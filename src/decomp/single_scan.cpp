#include "decomp/single_scan.h"

#include <stdexcept>

#include "bits/bitstream.h"
#include "codec/decode_error.h"

namespace nc::decomp {

using bits::Trit;
using bits::TritVector;
using codec::DecodeError;
using codec::DecodeFault;
using codec::DecoderSpec;

SingleScanDecoder::SingleScanDecoder(const codec::NineCoded& coder, unsigned p)
    : spec_(coder.table(), coder.block_size(), coder.split()), p_(p) {
  if (p_ < 1) throw std::invalid_argument("clock ratio p must be >= 1");
}

DecoderTrace SingleScanDecoder::run(const TritVector& te,
                                    std::size_t original_bits,
                                    core::Watchdog* watchdog) const {
  DecoderTrace trace;
  bits::TritReader in(te);
  std::size_t block = 0;           // the block in flight
  std::size_t codeword_start = 0;  // TE offset of its codeword
  std::uint32_t state = 0;         // the root: expecting a codeword
  const codec::CodeLeaf* latched = nullptr;  // its codeword's half plans

  const auto charge = [&](std::size_t steps) {
    if (watchdog != nullptr &&
        watchdog->tick(steps) != core::WatchdogTrip::kNone)
      throw DecodeError(DecodeFault::kWatchdogExpired, in.position(), block);
  };
  const auto stream_half = [&](unsigned plan, std::size_t len) {
    // The counter walks `len` positions; each costs one SoC cycle for
    // locally generated fill or one ATE cycle (= p SoC cycles) for a bit
    // streamed from the tester through the shifter. Every position is one
    // watchdog step: streamed scan bits are the decoder's progress unit, so
    // the budget bounds total output too.
    charge(len);
    if (plan == codec::kPlanData) {
      // Bit-serially, a payload the stream cannot satisfy runs dry at TE's
      // end.
      if (in.remaining() < len)
        throw DecodeError(DecodeFault::kTruncated, te.size(), block);
      trace.scan_stream.append_range(te, in.position(), len);
      in.skip(len);
      trace.ate_cycles += len;
      trace.soc_cycles += static_cast<std::size_t>(p_) * len;
    } else {
      trace.scan_stream.append_run(
          len, plan == codec::kPlanFill1 ? Trit::One : Trit::Zero);
      trace.soc_cycles += len;
    }
  };

  // Whole blocks only: the decoder always finishes the block in flight
  // (the encoder padded TD to a block boundary), then the tail is trimmed.
  try {
    while (trace.scan_stream.size() < original_bits || state != 0) {
      if (state < spec_.half_a()) {  // recognition: one ATE bit each
        if (state == 0) codeword_start = in.position();
        const bool bit = in.next_bit();
        trace.ate_cycles += 1;
        trace.soc_cycles += p_;
        charge(1);
        const DecoderSpec::Step step = spec_.step(state, bit, false);
        if (step.invalid)
          throw DecodeError(DecodeFault::kInvalidCodeword, codeword_start,
                            block);
        if (step.leaf != DecoderSpec::kNoLeaf) {
          latched = &spec_.leaves()[step.leaf];
          ++trace.codewords;
        }
        state = step.next;
      } else if (state == spec_.ack()) {
        // The handshake overlaps the next codeword fetch; no extra cycles
        // in the paper's model.
        charge(1);
        state = spec_.step(state, false, false).next;
        ++block;
      } else {  // HalfA or HalfB: stream the half, then the counter's Done
        const bool left = state == spec_.half_a();
        stream_half(left ? latched->plan_a : latched->plan_b,
                    left ? spec_.left() : spec_.right());
        charge(1);
        state = spec_.step(state, false, /*done=*/true).next;
      }
    }
  } catch (const bits::StreamOverrun& e) {
    throw DecodeError(DecodeFault::kTruncated, e.offset(), block);
  } catch (const bits::InvalidSymbol& e) {
    throw DecodeError(DecodeFault::kXInCodeword, e.offset(), block);
  }
  // Length accounting, as in NineCoded::decode_checked: symbols left in TE
  // after the last block mean the parse desynchronized and ran short.
  if (!in.done())
    throw DecodeError(DecodeFault::kTrailingData, in.position(), block);
  trace.scan_stream.resize(original_bits);
  return trace;
}

}  // namespace nc::decomp
