// The per-trit NCT1 reader and writer, and the std::istringstream payload
// parsers serve ran over them: the executable specification that the
// word-at-a-time codecs of bits/serialize.h and serve/frame.h are fuzzed
// against (serialize_diff_fuzz_test). They move one trit per
// istream::get / push_back / put and serve no traffic.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "bits/test_set.h"
#include "bits/trit_vector.h"
#include "serve/frame.h"

namespace nc::bits {

/// save_trits / load_trits / save_test_set / load_test_set, one trit at a
/// time: the same bytes, the same accepted inputs and values, the same
/// exception types and messages, first fault in stream order.
void reference_save_trits(std::ostream& out, const TritVector& v);
TritVector reference_load_trits(std::istream& in);
void reference_save_test_set(std::ostream& out, const TestSet& ts);
TestSet reference_load_test_set(std::istream& in);

}  // namespace nc::bits

namespace nc::serve {

/// parse_encode_request / parse_decode_request through a std::istringstream
/// copy of the payload and the per-trit loaders above.
EncodeRequest reference_parse_encode_request(
    const std::vector<std::uint8_t>& payload);
DecodeRequest reference_parse_decode_request(
    const std::vector<std::uint8_t>& payload);

}  // namespace nc::serve
