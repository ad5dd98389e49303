// The fault-injected ATE channel, the error-detecting decode path, and the
// session retry/resync protocol.
//
// The central invariant (the detection trichotomy): for every corrupted
// transmission, exactly one of
//   (a) the decode path raises a typed DecodeError,
//   (b) the decoded pattern contradicts a specified stimulus bit -- the
//       response compare catches it on the tester,
//   (c) every corrupted symbol landed on a leftover-X fill: the decoded
//       pattern still covers the cube, and the corruption is harmless.
// A corruption that hit a specified bit must never survive as (c).
#include <gtest/gtest.h>

#include <random>

#include "atpg/atpg.h"
#include "circuit/samples.h"
#include "codec/decode_error.h"
#include "codec/nine_coded.h"
#include "decomp/ate_session.h"
#include "decomp/channel.h"
#include "decomp/single_scan.h"
#include "gen/cube_gen.h"
#include "sim/fault_sim.h"

namespace nc::decomp {
namespace {

using bits::TestSet;
using bits::Trit;
using bits::TritVector;
using codec::DecodeError;
using codec::DecodeFault;
using codec::NineCoded;

// ---------------------------------------------------------------- injector

TEST(ChannelModel, CleanConfigIsIdentity) {
  ChannelModel ch{ChannelConfig{}};
  const TritVector te = TritVector::from_string("01X10X");
  EXPECT_EQ(ch.transmit(te), te);
  EXPECT_FALSE(ch.last_corrupted());
  EXPECT_EQ(ch.stats().corrupted_transmissions, 0u);
  EXPECT_EQ(ch.stats().transmissions, 1u);
}

TEST(ChannelModel, DeterministicForSeed) {
  ChannelConfig cfg;
  cfg.flip_rate = 0.05;
  cfg.burst_rate = 0.01;
  cfg.seed = 99;
  const TritVector te(4000, Trit::Zero);
  ChannelModel a(cfg);
  ChannelModel b(cfg);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(a.transmit(te), b.transmit(te));
  EXPECT_EQ(a.stats().flipped_symbols, b.stats().flipped_symbols);
  EXPECT_GT(a.stats().flipped_symbols, 0u);
}

TEST(ChannelModel, FlipRateLandsNearExpectation) {
  ChannelConfig cfg;
  cfg.flip_rate = 1e-2;
  cfg.seed = 3;
  ChannelModel ch(cfg);
  const std::size_t n = 200000;
  ch.transmit(TritVector(n, Trit::Zero));
  const double observed =
      static_cast<double>(ch.stats().flipped_symbols) / static_cast<double>(n);
  EXPECT_NEAR(observed, 1e-2, 2e-3);
}

TEST(ChannelModel, BurstCorruptsRuns) {
  ChannelConfig cfg;
  cfg.burst_rate = 5e-3;
  cfg.burst_length = 16;
  cfg.seed = 11;
  ChannelModel ch(cfg);
  ch.transmit(TritVector(50000, Trit::Zero));
  ASSERT_GT(ch.stats().bursts, 0u);
  // Bursts corrupt about burst_length symbols each (the tail of the stream
  // can clip the last one).
  EXPECT_GE(ch.stats().flipped_symbols, ch.stats().bursts * 8);
}

TEST(ChannelModel, TruncationShortensStream) {
  ChannelConfig cfg;
  cfg.truncate_rate = 1.0;
  cfg.seed = 5;
  ChannelModel ch(cfg);
  const TritVector out = ch.transmit(TritVector(1000, Trit::One));
  EXPECT_LT(out.size(), 1000u);
  EXPECT_TRUE(ch.last_corrupted());
  EXPECT_EQ(ch.stats().truncations, 1u);
  EXPECT_EQ(ch.stats().truncated_symbols, 1000u - out.size());
}

TEST(ChannelModel, StuckPinHoldsConstantTail) {
  ChannelConfig cfg;
  cfg.stuck_rate = 1.0;
  cfg.seed = 8;
  ChannelModel ch(cfg);
  const TritVector out = ch.transmit(TritVector(256, Trit::X));
  ASSERT_EQ(ch.stats().stuck_events, 1u);
  ASSERT_GT(ch.stats().stuck_symbols, 0u);
  const std::size_t from = out.size() - ch.stats().stuck_symbols;
  const Trit held = out.get(from);
  EXPECT_TRUE(bits::is_care(held));
  for (std::size_t i = from; i < out.size(); ++i) EXPECT_EQ(out.get(i), held);
}

TEST(ChannelConfigParse, RoundTripsAndValidates) {
  const ChannelConfig cfg =
      ChannelConfig::parse("flip=1e-3,burst=1e-4:16,trunc=0.5,stuck=0,seed=7");
  EXPECT_DOUBLE_EQ(cfg.flip_rate, 1e-3);
  EXPECT_DOUBLE_EQ(cfg.burst_rate, 1e-4);
  EXPECT_EQ(cfg.burst_length, 16u);
  EXPECT_DOUBLE_EQ(cfg.truncate_rate, 0.5);
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_TRUE(cfg.faulty());
  EXPECT_EQ(ChannelConfig::parse(cfg.to_string()).flip_rate, cfg.flip_rate);

  EXPECT_THROW(ChannelConfig::parse("flip=2"), std::invalid_argument);
  EXPECT_THROW(ChannelConfig::parse("flip=abc"), std::invalid_argument);
  EXPECT_THROW(ChannelConfig::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(ChannelConfig::parse("flip"), std::invalid_argument);
  EXPECT_THROW(ChannelConfig::parse("burst=1e-3:0"), std::invalid_argument);
  EXPECT_FALSE(ChannelConfig::parse("").faulty());
}

// ------------------------------------------------------- typed decode path

TEST(DecodePath, TruncatedFinalBlockReportsLastBlock) {
  const NineCoded coder(8);
  // All-specified random data forces payload-rich streams.
  std::mt19937 rng(2);
  TritVector td;
  for (int i = 0; i < 256; ++i)
    td.push_back((rng() & 1u) ? Trit::One : Trit::Zero);
  const TritVector te = coder.encode(td);
  const TritVector cut = te.slice(0, te.size() - 1);
  try {
    coder.decode_checked(cut, td.size());
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.fault(), DecodeFault::kTruncated);
    EXPECT_EQ(e.block_index(), td.size() / 8 - 1);
    EXPECT_LE(e.stream_offset(), te.size());
  }
}

TEST(DecodePath, TrailingDataDetected) {
  const NineCoded coder(8);
  const TritVector td(64, Trit::Zero);
  TritVector te = coder.encode(td);
  const std::size_t clean = te.size();
  te.push_back(Trit::Zero);
  try {
    coder.decode_checked(te, td.size());
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.fault(), DecodeFault::kTrailingData);
    EXPECT_EQ(e.stream_offset(), clean);
  }
}

TEST(DecodePath, XInCodewordPositionDetected) {
  const NineCoded coder(8);
  TritVector te;
  te.push_back(Trit::X);  // the very first codeword bit is unspecified
  try {
    coder.decode_checked(te, 8);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.fault(), DecodeFault::kXInCodeword);
    EXPECT_EQ(e.stream_offset(), 0u);
    EXPECT_EQ(e.block_index(), 0u);
  }
}

TEST(DecodePath, OutcomeAccountsBlocksAndConsumption) {
  const NineCoded coder(8);
  const TritVector td = TritVector::from_string("0000000011111111010101XX");
  const TritVector te = coder.encode(td);
  const codec::DecodeOutcome out = coder.decode_checked(te, td.size());
  EXPECT_EQ(out.blocks, 3u);
  EXPECT_EQ(out.consumed, te.size());
  EXPECT_TRUE(td.covered_by(out.data) || td == out.data);
}

TEST(DecodePath, CycleDecoderRaisesSameTypedErrors) {
  const NineCoded coder(8);
  const SingleScanDecoder decoder(coder, 4);
  std::mt19937 rng(4);
  TritVector td;
  for (int i = 0; i < 256; ++i)
    td.push_back((rng() & 1u) ? Trit::One : Trit::Zero);
  const TritVector te = coder.encode(td);
  EXPECT_THROW(decoder.run(te.slice(0, te.size() - 3), td.size()),
               DecodeError);
  TritVector extended = te;
  extended.append_run(5, Trit::Zero);
  EXPECT_THROW(decoder.run(extended, td.size()), DecodeError);
}

// The detection trichotomy, exercised over many random seeded corruptions.
TEST(DecodePath, EveryCorruptionDetectedOrXMasked) {
  gen::CubeGenConfig gen_cfg;
  gen_cfg.patterns = 20;
  gen_cfg.width = 240;
  gen_cfg.seed = 21;
  const TestSet cubes = gen::generate_cubes(gen_cfg);
  const NineCoded coder(8);

  ChannelConfig ch_cfg;
  ch_cfg.flip_rate = 5e-3;
  ch_cfg.truncate_rate = 2e-2;
  ch_cfg.stuck_rate = 2e-2;
  ch_cfg.burst_rate = 1e-3;
  ch_cfg.seed = 77;
  ChannelModel channel(ch_cfg);

  std::size_t corrupted = 0, decode_detected = 0, compare_detected = 0,
              x_masked = 0;
  for (int round = 0; round < 40; ++round) {
    for (std::size_t pat = 0; pat < cubes.pattern_count(); ++pat) {
      const TritVector cube = cubes.pattern(pat);
      const TritVector te = coder.encode(cube);
      const TritVector rx = channel.transmit(te);
      if (!channel.last_corrupted()) {
        // Control: a clean transmission must decode to a covering pattern.
        const TritVector d = coder.decode(rx, cube.size());
        EXPECT_TRUE(cube.covered_by(d));
        continue;
      }
      ++corrupted;
      try {
        const codec::DecodeOutcome out =
            coder.decode_checked(rx, cube.size());
        if (cube.covered_by(out.data)) {
          // (c) X-masked: the pattern is still a legal fill of the cube.
          ++x_masked;
        } else {
          // (b) a specified stimulus bit was altered -- the response
          // compare catches exactly this on the tester.
          ++compare_detected;
        }
      } catch (const DecodeError&) {
        ++decode_detected;  // (a)
      }
    }
  }
  ASSERT_GT(corrupted, 50u);
  EXPECT_EQ(corrupted, decode_detected + compare_detected + x_masked);
  // Structural corruptions (truncation, stuck tails) dominate here, so the
  // decode layer alone must be catching a healthy share.
  EXPECT_GT(decode_detected, corrupted / 4);
}

// ------------------------------------------------------- session protocol

struct SessionFixture {
  circuit::Netlist netlist = circuit::samples::s27();
  TestSet tests;

  SessionFixture() {
    atpg::AtpgConfig cfg;
    tests = atpg::generate_tests(netlist, cfg).tests;
  }

  SessionConfig config(ChannelConfig ch, RetryPolicy retry = {}) const {
    SessionConfig cfg;
    cfg.resilience = ResilienceConfig{ch, retry};
    return cfg;
  }
};

TEST(ResilientSession, CleanChannelMatchesPerfectPath) {
  SessionFixture fx;
  const SessionResult r =
      run_test_session(fx.netlist, fx.tests, fx.config(ChannelConfig{}));
  EXPECT_TRUE(r.device_passes());
  EXPECT_EQ(r.patterns_applied, fx.tests.pattern_count());
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.corruptions_detected, 0u);
  EXPECT_EQ(r.corruptions_undetected, 0u);
  EXPECT_EQ(r.wasted_ate_bits, 0u);
}

TEST(ResilientSession, NoisyChannelRecoversViaRetries) {
  SessionFixture fx;
  ChannelConfig ch;
  ch.flip_rate = 1e-2;  // aggressive for the tiny s27 streams
  ch.seed = 13;
  RetryPolicy retry;
  retry.max_retries = 50;
  const SessionResult r =
      run_test_session(fx.netlist, fx.tests, fx.config(ch, retry));
  // With a generous retry budget the session must complete and pass: every
  // detected corruption re-streams, nothing aborts, nothing is misjudged.
  EXPECT_TRUE(r.device_passes()) << "unrecovered=" << r.patterns_unrecovered;
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.patterns_applied, fx.tests.pattern_count());
  EXPECT_EQ(r.channel.corrupted_transmissions,
            r.corruptions_detected + r.corruptions_undetected);
  if (r.retries > 0) EXPECT_GT(r.wasted_ate_bits, 0u);
}

TEST(ResilientSession, CorruptedPatternNeverReportedPassing) {
  // Sweep seeds; whenever a corruption slips past decode undetected, it
  // must be X-masked -- i.e. the session still passes fault-free -- and
  // detected corruptions must never land in the applied set.
  SessionFixture fx;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ChannelConfig ch;
    ch.flip_rate = 1e-2;
    ch.seed = seed;
    RetryPolicy retry;
    retry.max_retries = 100;
    const SessionResult r =
        run_test_session(fx.netlist, fx.tests, fx.config(ch, retry));
    EXPECT_TRUE(r.device_passes()) << "seed " << seed;
    EXPECT_EQ(r.failing_patterns, 0u) << "seed " << seed;
  }
}

TEST(ResilientSession, ZeroRetriesFailsSafeOnFirstCorruption) {
  SessionFixture fx;
  ChannelConfig ch;
  ch.truncate_rate = 1.0;  // every transmission is cut short
  ch.seed = 2;
  RetryPolicy retry;
  retry.max_retries = 0;
  const SessionResult r =
      run_test_session(fx.netlist, fx.tests, fx.config(ch, retry));
  EXPECT_FALSE(r.device_passes());
  EXPECT_EQ(r.patterns_applied, 0u);
  EXPECT_EQ(r.patterns_unrecovered, fx.tests.pattern_count());
  EXPECT_EQ(r.retries, 0u);
  // Fail-safe accounting: every unstreamable pattern is marked failed.
  for (const bool failed : r.pattern_failed) EXPECT_TRUE(failed);
}

TEST(ResilientSession, RetryExhaustionSkipsPatternAndContinues) {
  SessionFixture fx;
  ChannelConfig ch;
  ch.truncate_rate = 1.0;
  ch.seed = 4;
  RetryPolicy retry;
  retry.max_retries = 2;
  const SessionResult r =
      run_test_session(fx.netlist, fx.tests, fx.config(ch, retry));
  EXPECT_FALSE(r.aborted);  // default abort_after: never
  EXPECT_EQ(r.patterns_unrecovered, fx.tests.pattern_count());
  // max_retries + 1 attempts per pattern, all wasted.
  EXPECT_EQ(r.channel.transmissions, fx.tests.pattern_count() * 3u);
  EXPECT_EQ(r.retries, fx.tests.pattern_count() * 2u);
  EXPECT_EQ(r.patterns_retried, fx.tests.pattern_count());
}

TEST(ResilientSession, AbortThresholdStopsTheSession) {
  SessionFixture fx;
  ASSERT_GT(fx.tests.pattern_count(), 2u);
  ChannelConfig ch;
  ch.truncate_rate = 1.0;
  ch.seed = 6;
  RetryPolicy retry;
  retry.max_retries = 1;
  retry.abort_after = 2;
  const SessionResult r =
      run_test_session(fx.netlist, fx.tests, fx.config(ch, retry));
  EXPECT_TRUE(r.aborted);
  EXPECT_FALSE(r.device_passes());
  EXPECT_EQ(r.patterns_unrecovered, 2u);
  // The session stopped early: later patterns were never attempted.
  EXPECT_LT(r.channel.transmissions, fx.tests.pattern_count() * 2u);
}

TEST(ResilientSession, FaultyDeviceStillDetectedOverNoisyLink) {
  // End to end: a real stuck-at defect must still fail the session even
  // when the link itself needs retries.
  SessionFixture fx;
  const std::vector<sim::Fault> faults = sim::collapsed_fault_list(fx.netlist);
  sim::FaultSimulator fsim(fx.netlist);
  const auto cover = fsim.run(fx.tests, faults);
  ChannelConfig ch;
  ch.flip_rate = 5e-3;
  ch.seed = 9;
  RetryPolicy retry;
  retry.max_retries = 100;
  bool tried = false;
  for (std::size_t f = 0; f < faults.size() && !tried; ++f) {
    if (!cover.detected[f]) continue;
    tried = true;
    const SessionResult r = run_test_session(fx.netlist, fx.tests,
                                             fx.config(ch, retry), faults[f]);
    EXPECT_FALSE(r.device_passes());
    EXPECT_GT(r.failing_patterns, 0u);
    EXPECT_EQ(r.patterns_unrecovered, 0u);
  }
  EXPECT_TRUE(tried);
}

// ------------------------------------------------- bursts at boundaries
// Per-pattern streaming means one transmission per pattern: a burst that
// would run past the end of pattern k's stream must clip there, never
// bleed into pattern k+1's transmission.

TEST(ChannelModel, BurstClipsAtTransmissionEnd) {
  ChannelConfig cfg;
  cfg.burst_rate = 1.0;  // a burst starts at the first symbol, every time
  cfg.burst_length = 1000;
  const TritVector te(10, Trit::Zero);
  ChannelModel ch(cfg);
  const TritVector rx = ch.transmit(te);
  ASSERT_EQ(rx.size(), te.size());  // nothing spills past the end
  for (std::size_t i = 0; i < rx.size(); ++i) EXPECT_EQ(rx.get(i), Trit::One);
  EXPECT_EQ(ch.stats().flipped_symbols, te.size());

  // The clipped remainder of the burst must NOT carry into the next
  // pattern's transmission: the next stream is corrupted by its own burst
  // of full length, not by a leftover tail.
  const TritVector rx2 = ch.transmit(te);
  EXPECT_EQ(ch.stats().flipped_symbols, 2 * te.size());
  for (std::size_t i = 0; i < rx2.size(); ++i)
    EXPECT_EQ(rx2.get(i), Trit::One);
}

TEST(ChannelModel, BurstStartingAtLastSymbolCorruptsOneSymbol) {
  ChannelConfig cfg;
  cfg.burst_rate = 1.0;
  cfg.burst_length = 64;
  const TritVector te(1, Trit::One);
  ChannelModel ch(cfg);
  const TritVector rx = ch.transmit(te);
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx.get(0), Trit::Zero);
  EXPECT_EQ(ch.stats().flipped_symbols, 1u);
  EXPECT_EQ(ch.stats().bursts, 1u);
}

TEST(ChannelModel, ReseedAtPatternBoundaryIsolatesTransmissions) {
  // The fleet manager reseeds the channel at every batch boundary so that
  // batch k's fault stream is independent of how much of batch k-1 ran --
  // including a burst in flight when the boundary hit. Pin that property:
  // after reseed, a transmission is identical whether or not any earlier
  // traffic (with bursts straddling its end) happened on the channel.
  ChannelConfig cfg;
  cfg.flip_rate = 0.05;
  cfg.burst_rate = 0.05;
  cfg.burst_length = 16;
  const TritVector a(40, Trit::One);   // traffic before the boundary
  const TritVector b(64, Trit::Zero);  // the pattern after the boundary

  ChannelModel busy(cfg);
  for (int i = 0; i < 3; ++i) busy.transmit(a);
  busy.reseed(42);
  const TritVector via_busy = busy.transmit(b);

  ChannelModel fresh(cfg);
  fresh.reseed(42);
  const TritVector via_fresh = fresh.transmit(b);

  EXPECT_EQ(via_busy, via_fresh);
}

}  // namespace
}  // namespace nc::decomp
