// Binary serialization for trit streams and test sets.
//
// The ATE-side tooling (tools/ninec) stores compressed streams TE on disk;
// TE still carries X symbols (the leftover don't-cares), so the format packs
// four trits per byte rather than raw bits. Layout, little-endian:
//
//   magic "NCT1" | u8 kind (0 = TritVector, 1 = TestSet)
//   kind 0: u64 size                  | ceil(size/4) payload bytes
//   kind 1: u64 patterns, u64 width   | ceil(patterns*width/4) payload bytes
//
// Each payload byte holds trits at offsets 0..3, two bits each, value
// 0b00 = '0', 0b01 = '1', 0b10 = 'X'; 0b11 is invalid and rejected. Bits
// past the last trit are ignored on read and written as zero.
//
// The payload is TritVector's packed words, little-endian, cut to
// ceil(size/4) bytes, so both directions copy whole words in 64 KiB chunks.
// A reader sizes its words by the bytes the input holds (what a seekable
// stream or a span has left, else what has arrived), never by the header
// alone: a header claiming more trits than the input holds fails as
// truncated without a large allocation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "bits/test_set.h"
#include "bits/trit_vector.h"

namespace nc::bits {

void save_trits(std::ostream& out, const TritVector& v);
TritVector load_trits(std::istream& in);

void save_test_set(std::ostream& out, const TestSet& ts);
TestSet load_test_set(std::istream& in);

/// The same formats over bytes in memory (serve payloads). append_* adds
/// exactly the bytes save_* writes to the end of `out`. read_* parses the
/// stream at the front of `in`, advances `in` past it, and throws what
/// load_* throws on the same bytes.
void append_trits(std::vector<std::uint8_t>& out, const TritVector& v);
void append_test_set(std::vector<std::uint8_t>& out, const TestSet& ts);
TritVector read_trits(std::span<const std::uint8_t>& in);
TestSet read_test_set(std::span<const std::uint8_t>& in);

/// File helpers; throw std::runtime_error on I/O or format errors.
void save_trits_file(const std::string& path, const TritVector& v);
TritVector load_trits_file(const std::string& path);
void save_test_set_file(const std::string& path, const TestSet& ts);
TestSet load_test_set_file(const std::string& path);

}  // namespace nc::bits
