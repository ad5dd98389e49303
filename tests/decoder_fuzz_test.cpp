// Decode-path fuzzing under the bounded-progress watchdog.
//
// The guarantee under test: for ANY input stream -- random noise, a
// truncated or padded valid stream, X symbols in arbitrary positions --
// every decode entry point (single-scan model, multi-scan architectures,
// software block decoder) terminates within its
// step budget with either a successful decode or a typed DecodeError.
// No hang, no crash, and never a silently wrong "success" length.
#include <gtest/gtest.h>

#include <random>

#include "codec/decode_error.h"
#include "codec/nine_coded.h"
#include "core/cancel.h"
#include "codec/decoder_spec.h"
#include "decomp/multi_scan.h"
#include "decomp/single_scan.h"

namespace nc::decomp {
namespace {

using bits::TestSet;
using bits::Trit;
using bits::TritVector;
using codec::DecodeError;
using codec::DecodeFault;
using codec::NineCoded;

constexpr std::size_t kTrials = 400;  // >= 200 required by the guarantee

TritVector random_stream(std::mt19937_64& rng, std::size_t max_len,
                         double x_rate) {
  std::uniform_int_distribution<std::size_t> len_dist(0, max_len);
  std::bernoulli_distribution x(x_rate);
  std::bernoulli_distribution bit(0.5);
  TritVector out;
  const std::size_t len = len_dist(rng);
  for (std::size_t i = 0; i < len; ++i)
    out.push_back(x(rng) ? Trit::X : (bit(rng) ? Trit::One : Trit::Zero));
  return out;
}

/// Generous budget scaled like the fleet manager's automatic one: a clean
/// decode can never trip it, so any trip on garbage input still proves
/// bounded work rather than masking a hang.
std::size_t generous_budget(std::size_t original_bits, std::size_t te_bits) {
  return 64 + 8 * (original_bits + te_bits);
}

// -------------------------------------------------------- single_scan run

TEST(DecoderFuzz, RandomStreamsTerminateWithSuccessOrTypedError) {
  std::mt19937_64 rng(2024);
  const NineCoded coder(8);
  const SingleScanDecoder decoder(coder, 4);
  std::size_t successes = 0, errors = 0;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    // Pure noise essentially never parses to completion, so every tenth
    // trial streams a valid encode -- both exits stay exercised.
    TritVector te;
    std::size_t original;
    if (trial % 10 == 0) {
      const TritVector td = random_stream(rng, 200, 0.3);
      te = coder.encode(td);
      original = td.size();
    } else {
      te = random_stream(rng, 300, trial % 3 == 0 ? 0.1 : 0.0);
      original = std::uniform_int_distribution<std::size_t>(0, 200)(rng);
    }
    core::Watchdog watchdog(generous_budget(original, te.size()));
    try {
      const DecoderTrace trace = decoder.run(te, original, &watchdog);
      ++successes;
      EXPECT_EQ(trace.scan_stream.size(), original);
    } catch (const DecodeError&) {
      ++errors;  // typed: every corruption lands in the taxonomy
    }
    EXPECT_LE(watchdog.steps(), watchdog.max_steps() + 64)
        << "unbounded work on trial " << trial;
  }
  // Random noise must exercise both exits, or the fuzz proves nothing.
  EXPECT_GT(successes, 0u);
  EXPECT_GT(errors, 0u);
}

TEST(DecoderFuzz, TruncationsOfValidStreamAlwaysTerminate) {
  std::mt19937_64 rng(7);
  const NineCoded coder(8);
  const SingleScanDecoder decoder(coder, 4);
  TritVector td;
  std::uniform_int_distribution<int> t(0, 2);
  for (int i = 0; i < 160; ++i)
    td.push_back(t(rng) == 0 ? Trit::X
                             : (t(rng) == 1 ? Trit::One : Trit::Zero));
  const TritVector te = coder.encode(td);
  for (std::size_t cut = 0; cut <= te.size(); ++cut) {
    TritVector prefix;
    for (std::size_t i = 0; i < cut; ++i) prefix.push_back(te.get(i));
    core::Watchdog watchdog(generous_budget(td.size(), te.size()));
    try {
      const DecoderTrace trace = decoder.run(prefix, td.size(), &watchdog);
      EXPECT_EQ(cut, te.size());  // only the full stream may succeed
      EXPECT_EQ(trace.scan_stream.size(), td.size());
    } catch (const DecodeError& e) {
      EXPECT_LT(cut, te.size());
      EXPECT_NE(e.fault(), DecodeFault::kWatchdogExpired);
    }
  }
}

TEST(DecoderFuzz, AppendedGarbageIsTrailingDataOrTypedError) {
  std::mt19937_64 rng(13);
  const NineCoded coder(8);
  const SingleScanDecoder decoder(coder, 4);
  const TritVector td = random_stream(rng, 120, 0.3);
  const TritVector te = coder.encode(td);
  for (std::size_t extra = 1; extra <= 16; ++extra) {
    TritVector stream = te;
    for (std::size_t i = 0; i < extra; ++i)
      stream.push_back(i % 2 == 0 ? Trit::One : Trit::Zero);
    core::Watchdog watchdog(generous_budget(td.size(), stream.size()));
    EXPECT_THROW(decoder.run(stream, td.size(), &watchdog), DecodeError);
  }
}

TEST(DecoderFuzz, TinyBudgetRaisesWatchdogExpired) {
  std::mt19937_64 rng(31);
  const NineCoded coder(8);
  const SingleScanDecoder decoder(coder, 4);
  const TritVector td = random_stream(rng, 200, 0.2);
  const TritVector te = coder.encode(td);
  ASSERT_GT(te.size(), 4u);
  core::Watchdog watchdog(3);
  try {
    decoder.run(te, td.size(), &watchdog);
    FAIL() << "a 3-step budget cannot finish this decode";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.fault(), DecodeFault::kWatchdogExpired);
  }
}

// ----------------------------------------------------- software decoder

TEST(DecoderFuzz, BlockDecoderTerminatesOnRandomStreams) {
  std::mt19937_64 rng(555);
  const NineCoded coder(8);
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const TritVector te = random_stream(rng, 300, 0.05);
    const std::size_t original =
        std::uniform_int_distribution<std::size_t>(0, 200)(rng);
    core::Watchdog watchdog(generous_budget(original, te.size()));
    try {
      const auto outcome = coder.decode_checked(te, original, &watchdog);
      EXPECT_EQ(outcome.data.size(), original);
      EXPECT_EQ(outcome.consumed, te.size());
    } catch (const DecodeError&) {
    }
    EXPECT_LE(watchdog.steps(), watchdog.max_steps() + coder.block_size() + 5);
  }
}

TEST(DecoderFuzz, BlockDecoderTinyBudgetTripsAsWatchdogExpired) {
  const NineCoded coder(8);
  TritVector te;
  for (int i = 0; i < 64; ++i) te.push_back(Trit::Zero);  // all-C1 stream
  core::Watchdog watchdog(5);  // less than one block's k+5 charge
  try {
    coder.decode_checked(te, 64 * 8, &watchdog);
    FAIL() << "budget below one block cannot succeed";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.fault(), DecodeFault::kWatchdogExpired);
  }
}

// ------------------------------------------------------------ multi_scan

TEST(DecoderFuzz, MultiScanArchitecturesHonorTheSharedWatchdog) {
  std::mt19937_64 rng(77);
  const NineCoded coder(4);
  for (std::size_t trial = 0; trial < 50; ++trial) {
    // A well-formed test set; the budget is the attack here: a shared
    // watchdog must stop whichever bank is running when it expires.
    TestSet td(8, 16);
    std::bernoulli_distribution bit(0.5);
    for (std::size_t p = 0; p < td.pattern_count(); ++p) {
      TritVector row;
      for (std::size_t i = 0; i < 16; ++i)
        row.push_back(bit(rng) ? Trit::One : Trit::Zero);
      td.set_pattern(p, row);
    }
    core::Watchdog tiny(4);
    try {
      run_multi_scan_banked(td, 8, coder, 4, &tiny);
      FAIL() << "4 steps cannot decode 8x16 bits";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.fault(), DecodeFault::kWatchdogExpired);
      EXPECT_NE(e.pin(), DecodeError::kUnknown);
    }
    core::Watchdog roomy(generous_budget(8 * 16, 8 * 16) * 4);
    EXPECT_NO_THROW(run_multi_scan_banked(td, 8, coder, 4, &roomy));
    EXPECT_NO_THROW(
        run_multi_scan_single_pin(td, 8, coder, 4, nullptr));
  }
}

// ----------------------------------------------------------- the spec

TEST(DecoderFuzz, BudgetStopsAnEndlessStreamInFlight) {
  // A stream of C1 codewords that never reaches the requested length: the
  // per-transition charge stops it within one charge of the budget, in the
  // block it was decoding. A C1 block at K=8 costs 12 steps: its codeword
  // bit, two halves of 4, two Done transitions and the Ack.
  const NineCoded coder(8);
  const SingleScanDecoder decoder(coder, 4);
  const TritVector te = TritVector::from_string(std::string(1000, '0'));
  core::Watchdog watchdog(32);
  try {
    decoder.run(te, 8 * 1000, &watchdog);
    FAIL() << "32 steps cannot decode 1000 blocks";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.fault(), DecodeFault::kWatchdogExpired);
    EXPECT_EQ(e.block_index(), 2u);
    EXPECT_EQ(e.stream_offset(), 3u);
  }
  EXPECT_LE(watchdog.steps(), 32u + 4u);  // bounded work, not 12000 steps
}

TEST(DecoderFuzz, SpecRandomDrivesNeverEscapeTheStateSpace) {
  // The transition function is total: random inputs from any state of the
  // paper's table or of a table with Kraft slack stay inside the states.
  std::mt19937_64 rng(123);
  std::bernoulli_distribution bit(0.5);
  const codec::DecoderSpec specs[] = {
      {codec::CodewordTable::standard(), 8, 4},
      {codec::CodewordTable::from_lengths({2, 3, 4, 4, 5, 6, 7, 8, 8}), 9, 5}};
  for (const codec::DecoderSpec& spec : specs) {
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      std::uint32_t state = 0;
      for (int i = 0; i < 64; ++i) {
        state = spec.step(state, bit(rng), bit(rng)).next;
        EXPECT_LT(state, spec.state_count());
      }
    }
  }
}

// ------------------------------------------------------- watchdog itself

TEST(Watchdog, StepBudgetIsSticky) {
  core::Watchdog wd(10);
  EXPECT_EQ(wd.tick(10), core::WatchdogTrip::kNone);
  EXPECT_EQ(wd.tick(1), core::WatchdogTrip::kStepBudget);
  EXPECT_EQ(wd.tick(1), core::WatchdogTrip::kStepBudget);  // sticky
  EXPECT_EQ(wd.check(), core::WatchdogTrip::kStepBudget);
}

TEST(Watchdog, CancelTokenTripsOnCheck) {
  core::CancelToken cancel;
  core::Watchdog wd(0, core::Deadline{}, &cancel);
  EXPECT_EQ(wd.check(), core::WatchdogTrip::kNone);
  cancel.cancel();
  EXPECT_EQ(wd.check(), core::WatchdogTrip::kCancelled);
  EXPECT_EQ(wd.tick(), core::WatchdogTrip::kCancelled);
}

TEST(Watchdog, ExpiredDeadlineTripsWithinOnePollInterval) {
  core::Watchdog wd(0, core::Deadline::after(std::chrono::nanoseconds{0}));
  core::WatchdogTrip trip = core::WatchdogTrip::kNone;
  for (int i = 0; i < 2048 && trip == core::WatchdogTrip::kNone; ++i)
    trip = wd.tick();
  EXPECT_EQ(trip, core::WatchdogTrip::kDeadline);
}

TEST(Watchdog, UnlimitedNeverTrips) {
  core::Watchdog wd;
  EXPECT_FALSE(wd.limited());
  for (int i = 0; i < 5000; ++i)
    EXPECT_EQ(wd.tick(7), core::WatchdogTrip::kNone);
}

}  // namespace
}  // namespace nc::decomp
