// The hand-written Fig. 2 decoder FSM and the cycle model that drove it:
// the oracle that codec::DecoderSpec and decomp::SingleScanDecoder are held
// to on the paper's table (decoder_diff_fuzz_test), and the table the
// synthesized controller is checked against (qm_diff_test, fsm_synth_test).
// The FSM is totally independent of K and of the test set: it recognizes
// the standard codeword tree bit-serially (at most five ATE cycles),
// latches a two-half plan (fill-0 / fill-1 / data per half), sequences the
// two halves through the MUX and raises Ack. It serves no traffic.
#pragma once

#include <cstddef>

#include "bits/trit_vector.h"
#include "codec/block_class.h"
#include "core/cancel.h"
#include "decomp/single_scan.h"

namespace nc::decomp {

/// MUX selection for one half-block (the paper's 2-bit Sel).
enum class HalfPlan : unsigned char {
  kFill0 = 0,  // drive constant 0 into the chain
  kFill1 = 1,  // drive constant 1
  kData = 2,   // stream Data_in through the K/2-bit shifter
};

/// FSM states. Recognition states mirror the codeword tree; kHalfA/kHalfB
/// wait for the counter's Done; kAck is the handshake cycle back to the ATE.
enum class FsmState : unsigned char {
  kIdle = 0,   // expecting the first codeword bit
  kSaw1,       // prefix "1"
  kSaw11,      // prefix "11"
  kSaw110,     // prefix "110"
  kSaw1101,    // prefix "1101"
  kSaw111,     // prefix "111"
  kSaw1110,    // prefix "1110"
  kSaw1111,    // prefix "1111"
  kHalfA,      // first half streaming into the scan chain
  kHalfB,      // second half
  kAck,        // acknowledge, then back to kIdle
};

inline constexpr std::size_t kFsmStateCount = 11;

/// Moore/Mealy mixed outputs of one step.
struct FsmStep {
  FsmState next = FsmState::kIdle;
  /// True when this step completed codeword recognition; `plan_a`/`plan_b`
  /// are the latched half plans (valid only when recognized is true).
  bool recognized = false;
  HalfPlan plan_a = HalfPlan::kFill0;
  HalfPlan plan_b = HalfPlan::kFill0;
  /// True when the decoder is consuming a Data_in bit this cycle.
  bool consumes_data_bit = false;
  /// True on the Ack cycle (ATE may present the next codeword afterwards).
  bool ack = false;
};

/// One FSM transition. In recognition states `data_bit` is the incoming
/// ATE bit; in kHalfA/kHalfB `done` is the counter's terminal count.
FsmStep fsm_step(FsmState state, bool data_bit, bool done);

/// Stateful FSM driver: owns the current state and charges every
/// transition one step of an optional watchdog. Once the watchdog trips,
/// further transitions keep the state frozen and keep reporting the trip.
class FsmEngine {
 public:
  /// `watchdog` may be null (unmetered); it is borrowed, not owned.
  explicit FsmEngine(core::Watchdog* watchdog = nullptr) noexcept
      : watchdog_(watchdog) {}

  FsmStep step(bool data_bit, bool done);

  FsmState state() const noexcept { return state_; }
  std::size_t steps() const noexcept { return steps_; }
  core::WatchdogTrip trip() const noexcept { return trip_; }

 private:
  FsmState state_ = FsmState::kIdle;
  std::size_t steps_ = 0;
  core::Watchdog* watchdog_;
  core::WatchdogTrip trip_ = core::WatchdogTrip::kNone;
};

/// The codeword class recognized by a (plan_a, plan_b) pair.
codec::BlockClass plan_class(HalfPlan a, HalfPlan b);

/// The single-scan cycle model on the Fig. 2 FSM, for the paper's table at
/// an even K >= 2: the same trace, watchdog schedule, faults and offsets as
/// SingleScanDecoder on that table, except that it reports the block index
/// as the count of codewords recognized so far.
class ReferenceSingleScanDecoder {
 public:
  ReferenceSingleScanDecoder(std::size_t block_size, unsigned p);

  DecoderTrace run(const bits::TritVector& te, std::size_t original_bits,
                   core::Watchdog* watchdog = nullptr) const;

 private:
  std::size_t k_;
  unsigned p_;
};

}  // namespace nc::decomp
