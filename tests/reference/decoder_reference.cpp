#include "reference/decoder_reference.h"

#include <stdexcept>

#include "bits/bitstream.h"
#include "codec/decode_error.h"

namespace nc::decomp {

using bits::Trit;
using bits::TritVector;

FsmStep fsm_step(FsmState state, bool data_bit, bool done) {
  FsmStep step;
  auto recognize = [&](HalfPlan a, HalfPlan b) {
    step.next = FsmState::kHalfA;
    step.recognized = true;
    step.plan_a = a;
    step.plan_b = b;
    step.consumes_data_bit = true;
  };
  auto advance = [&](FsmState next) {
    step.next = next;
    step.consumes_data_bit = true;
  };

  switch (state) {
    case FsmState::kIdle:
      if (!data_bit)
        recognize(HalfPlan::kFill0, HalfPlan::kFill0);  // C1 = "0"
      else
        advance(FsmState::kSaw1);
      break;
    case FsmState::kSaw1:
      if (!data_bit)
        recognize(HalfPlan::kFill1, HalfPlan::kFill1);  // C2 = "10"
      else
        advance(FsmState::kSaw11);
      break;
    case FsmState::kSaw11:
      advance(data_bit ? FsmState::kSaw111 : FsmState::kSaw110);
      break;
    case FsmState::kSaw110:
      if (!data_bit)
        recognize(HalfPlan::kData, HalfPlan::kData);  // C9 = "1100"
      else
        advance(FsmState::kSaw1101);
      break;
    case FsmState::kSaw1101:
      if (!data_bit)
        recognize(HalfPlan::kFill0, HalfPlan::kFill1);  // C3 = "11010"
      else
        recognize(HalfPlan::kFill1, HalfPlan::kFill0);  // C4 = "11011"
      break;
    case FsmState::kSaw111:
      advance(data_bit ? FsmState::kSaw1111 : FsmState::kSaw1110);
      break;
    case FsmState::kSaw1110:
      if (!data_bit)
        recognize(HalfPlan::kFill0, HalfPlan::kData);  // C5 = "11100"
      else
        recognize(HalfPlan::kData, HalfPlan::kFill0);  // C6 = "11101"
      break;
    case FsmState::kSaw1111:
      if (!data_bit)
        recognize(HalfPlan::kFill1, HalfPlan::kData);  // C7 = "11110"
      else
        recognize(HalfPlan::kData, HalfPlan::kFill1);  // C8 = "11111"
      break;
    case FsmState::kHalfA:
      step.next = done ? FsmState::kHalfB : FsmState::kHalfA;
      break;
    case FsmState::kHalfB:
      step.next = done ? FsmState::kAck : FsmState::kHalfB;
      break;
    case FsmState::kAck:
      step.next = FsmState::kIdle;
      step.ack = true;
      break;
  }
  return step;
}

FsmStep FsmEngine::step(bool data_bit, bool done) {
  if (trip_ != core::WatchdogTrip::kNone) return FsmStep{.next = state_};
  if (watchdog_ != nullptr) {
    trip_ = watchdog_->tick(1);
    if (trip_ != core::WatchdogTrip::kNone) return FsmStep{.next = state_};
  }
  ++steps_;
  const FsmStep out = fsm_step(state_, data_bit, done);
  state_ = out.next;
  return out;
}

codec::BlockClass plan_class(HalfPlan a, HalfPlan b) {
  using codec::BlockClass;
  using enum HalfPlan;
  if (a == kFill0 && b == kFill0) return BlockClass::kC1;
  if (a == kFill1 && b == kFill1) return BlockClass::kC2;
  if (a == kFill0 && b == kFill1) return BlockClass::kC3;
  if (a == kFill1 && b == kFill0) return BlockClass::kC4;
  if (a == kFill0 && b == kData) return BlockClass::kC5;
  if (a == kData && b == kFill0) return BlockClass::kC6;
  if (a == kFill1 && b == kData) return BlockClass::kC7;
  if (a == kData && b == kFill1) return BlockClass::kC8;
  return BlockClass::kC9;
}

ReferenceSingleScanDecoder::ReferenceSingleScanDecoder(std::size_t block_size,
                                                       unsigned p)
    : k_(block_size), p_(p) {
  if (k_ < 2 || k_ % 2 != 0)
    throw std::invalid_argument("decoder block size K must be even and >= 2");
  if (p_ < 1) throw std::invalid_argument("clock ratio p must be >= 1");
}

DecoderTrace ReferenceSingleScanDecoder::run(const TritVector& te,
                                             std::size_t original_bits,
                                             core::Watchdog* watchdog) const {
  DecoderTrace trace;
  bits::TritReader in(te);
  const std::size_t half = k_ / 2;

  FsmEngine fsm(watchdog);
  HalfPlan plan_a = HalfPlan::kFill0;
  HalfPlan plan_b = HalfPlan::kFill0;

  auto expired = [&]() {
    return codec::DecodeError(codec::DecodeFault::kWatchdogExpired,
                              in.position(), trace.codewords);
  };
  auto stream_half = [&](HalfPlan plan) {
    // kHalfA/kHalfB: the counter walks K/2 positions; each position costs
    // one SoC cycle for locally generated fill or one ATE cycle (= p SoC
    // cycles) for a bit streamed from the tester through the shifter.
    // Every position is one watchdog step: streamed scan bits are the
    // decoder's progress unit, so the budget bounds total output too.
    if (watchdog != nullptr &&
        watchdog->tick(half) != core::WatchdogTrip::kNone)
      throw expired();
    // Fills and full-half payload copies land word-parallel; the per-trit
    // walk only survives for a payload the stream cannot fully satisfy, so
    // the StreamOverrun offset stays exactly where the reader ran dry.
    switch (plan) {
      case HalfPlan::kFill0:
        trace.scan_stream.append_run(half, Trit::Zero);
        trace.soc_cycles += half;
        break;
      case HalfPlan::kFill1:
        trace.scan_stream.append_run(half, Trit::One);
        trace.soc_cycles += half;
        break;
      case HalfPlan::kData:
        if (in.remaining() >= half) {
          trace.scan_stream.append(in.next_trits(half));
        } else {
          for (std::size_t i = 0; i < half; ++i)
            trace.scan_stream.push_back(in.next());
        }
        trace.ate_cycles += half;
        trace.soc_cycles += static_cast<std::size_t>(p_) * half;
        break;
    }
  };

  // Whole blocks only: the decoder always finishes the block in flight
  // (the encoder padded TD to a block boundary), then the tail is trimmed.
  // Reader failures become typed DecodeErrors carrying the TE offset and
  // the index of the block in flight, so the session layer can retry.
  try {
    while (trace.scan_stream.size() < original_bits ||
           fsm.state() != FsmState::kIdle) {
      switch (fsm.state()) {
        case FsmState::kHalfA:
          stream_half(plan_a);
          fsm.step(false, /*done=*/true);
          break;
        case FsmState::kHalfB:
          stream_half(plan_b);
          fsm.step(false, /*done=*/true);
          break;
        case FsmState::kAck:
          // Handshake overlaps the next codeword fetch; no extra cycles in
          // the paper's model.
          fsm.step(false, false);
          break;
        default: {  // recognition states consume one ATE bit each
          const bool bit = in.next_bit();
          trace.ate_cycles += 1;
          trace.soc_cycles += p_;
          const FsmStep step = fsm.step(bit, false);
          if (step.recognized) {
            plan_a = step.plan_a;
            plan_b = step.plan_b;
            ++trace.codewords;
          }
          break;
        }
      }
      if (fsm.trip() != core::WatchdogTrip::kNone) throw expired();
    }
  } catch (const bits::StreamOverrun& e) {
    throw codec::DecodeError(codec::DecodeFault::kTruncated, e.offset(),
                             trace.codewords);
  } catch (const bits::InvalidSymbol& e) {
    throw codec::DecodeError(codec::DecodeFault::kXInCodeword, e.offset(),
                             trace.codewords);
  }
  // Length accounting, mirroring NineCoded::decode_checked: symbols left in
  // TE after the last block mean the parse desynchronized and ran short.
  if (!in.done())
    throw codec::DecodeError(codec::DecodeFault::kTrailingData, in.position(),
                             trace.codewords);
  trace.scan_stream.resize(original_bits);
  return trace;
}

}  // namespace nc::decomp
