// The per-trit 9C coder: the executable specification that the
// word-parallel codec::NineCoded is fuzzed against (codec_diff_fuzz_test)
// and timed against (bench_throughput). It walks TD and TE one trit at a
// time, as Section II of the paper describes the code, and serves no
// traffic.
#pragma once

#include <cstddef>
#include <string>

#include "codec/nine_coded.h"

namespace nc::codec {

/// NineCoded::analyze and NineCoded::decode_checked, one trit at a time:
/// the same TE, statistics, typed errors, offsets and watchdog schedule.
/// K, the half split and the codeword table come from `coder`.
NineCodedStats reference_analyze(const NineCoded& coder,
                                 const bits::TritVector& td,
                                 bits::TritVector* out_stream = nullptr);
DecodeOutcome reference_decode_checked(const NineCoded& coder,
                                       const bits::TritVector& te,
                                       std::size_t original_bits,
                                       core::Watchdog* watchdog = nullptr);

/// The reference behind the Codec interface plus decode_checked, so the
/// sharded pipeline and the differential tests can run it wherever they run
/// the production coder.
class ReferenceCodec final : public Codec {
 public:
  explicit ReferenceCodec(const NineCoded& coder) : coder_(coder) {}

  std::string name() const override { return coder_.name(); }
  DecodeOutcome decode_checked(const bits::TritVector& te,
                               std::size_t original_bits) const {
    return reference_decode_checked(coder_, te, original_bits);
  }
  bits::TritVector encode(const bits::TritVector& td) const override {
    bits::TritVector te;
    reference_analyze(coder_, td, &te);
    return te;
  }
  bits::TritVector decode(const bits::TritVector& te,
                          std::size_t original_bits) const override {
    return decode_checked(te, original_bits).data;
  }

 private:
  NineCoded coder_;
};

}  // namespace nc::codec
