// Unit tests of the shared transmit/decode/retry helper
// (decomp::stream_pattern_with_retry) that both the resilient ATE session
// and the fleet manager delegate to. The behavioral no-op of that dedup is
// covered by the existing ate_session and fleet suites; here we pin the
// helper's own accounting contract.
#include <gtest/gtest.h>

#include <cstddef>

#include "bits/trit_vector.h"
#include "codec/nine_coded.h"
#include "decomp/channel.h"
#include "decomp/retry.h"
#include "decomp/single_scan.h"

namespace nc::decomp {
namespace {

constexpr std::size_t kBlock = 8;

bits::TritVector test_cube() {
  return bits::TritVector::from_string(
      "01X0110XX1010X0011X00101XX110100"
      "10X011X00101X110XX0101001100X101");
}

struct Fixture {
  codec::NineCoded coder{kBlock};
  SingleScanDecoder decoder{coder, 4};
  bits::TritVector cube = test_cube();
  bits::TritVector te = coder.encode(cube);
  SessionResult session;
};

TEST(RetryHelperTest, CleanChannelSucceedsFirstAttemptNoRetryBooked) {
  Fixture fx;
  ChannelModel channel{ChannelConfig{}};  // perfect link
  const StreamOutcome out = stream_pattern_with_retry(
      channel, fx.decoder, fx.te, fx.cube, /*attempts=*/4, fx.session);

  EXPECT_TRUE(out.applied);
  EXPECT_EQ(out.used_retries, 0u);
  EXPECT_EQ(out.watchdog_trips, 0u);
  EXPECT_TRUE(fx.cube.covered_by(out.scan_stream));
  EXPECT_EQ(fx.session.ate_bits, fx.te.size());
  EXPECT_EQ(fx.session.wasted_ate_bits, 0u);
  EXPECT_EQ(fx.session.retries, 0u);
  EXPECT_EQ(fx.session.patterns_retried, 0u);
  EXPECT_EQ(fx.session.corruptions_detected, 0u);
  EXPECT_EQ(fx.session.corruptions_undetected, 0u);
}

TEST(RetryHelperTest, AlwaysTruncatingChannelExhaustsBudget) {
  Fixture fx;
  ChannelConfig cfg;
  cfg.truncate_rate = 1.0;  // every transmission loses its tail
  ChannelModel channel{cfg};
  const unsigned attempts = 4;
  const StreamOutcome out = stream_pattern_with_retry(
      channel, fx.decoder, fx.te, fx.cube, attempts, fx.session);

  EXPECT_FALSE(out.applied);
  // A retry is a re-stream actually issued: the last attempt has no
  // follower, so budget N attempts = N-1 retries, N detections.
  EXPECT_EQ(out.used_retries, attempts - 1);
  EXPECT_EQ(fx.session.retries, attempts - 1);
  EXPECT_EQ(fx.session.corruptions_detected, attempts);
  EXPECT_EQ(fx.session.patterns_retried, 1u);
  EXPECT_EQ(fx.session.ate_bits, 0u) << "no trusted decode, no useful bits";
  EXPECT_GT(fx.session.wasted_ate_bits, 0u);
}

TEST(RetryHelperTest, SingleAttemptFailureBooksNoRetry) {
  // The fleet probe path runs with attempts == 1: a detected corruption is
  // counted, but neither `retries` nor `patterns_retried` may move -- no
  // re-stream was ever issued.
  Fixture fx;
  ChannelConfig cfg;
  cfg.truncate_rate = 1.0;
  ChannelModel channel{cfg};
  const StreamOutcome out = stream_pattern_with_retry(
      channel, fx.decoder, fx.te, fx.cube, /*attempts=*/1, fx.session);

  EXPECT_FALSE(out.applied);
  EXPECT_EQ(out.used_retries, 0u);
  EXPECT_EQ(fx.session.retries, 0u);
  EXPECT_EQ(fx.session.patterns_retried, 0u);
  EXPECT_EQ(fx.session.corruptions_detected, 1u);
}

TEST(RetryHelperTest, RecoveryAfterCorruptionChargesExactAccounting) {
  // Seeded fault sequence: with a 50% per-transmission truncation rate and
  // a generous attempt budget, some seed yields at least one corrupted
  // attempt followed by a clean one. Scan seeds until that shape appears,
  // then pin the exact accounting for it.
  for (std::uint64_t seed = 1; seed < 64; ++seed) {
    Fixture fx;
    ChannelConfig cfg;
    cfg.truncate_rate = 0.5;
    cfg.seed = seed;
    ChannelModel channel{cfg};
    const unsigned attempts = 8;
    const StreamOutcome out = stream_pattern_with_retry(
        channel, fx.decoder, fx.te, fx.cube, attempts, fx.session);
    if (!out.applied || out.used_retries == 0) continue;

    // Success on attempt used_retries: every failed attempt had a follower.
    EXPECT_EQ(fx.session.corruptions_detected, out.used_retries);
    EXPECT_EQ(fx.session.retries, out.used_retries);
    EXPECT_EQ(fx.session.patterns_retried, 1u);
    EXPECT_EQ(fx.session.ate_bits, fx.te.size())
        << "only the trusted attempt's bits are useful";
    EXPECT_GT(fx.session.wasted_ate_bits, 0u);
    EXPECT_TRUE(fx.cube.covered_by(out.scan_stream));
    return;
  }
  FAIL() << "no seed in [1,64) produced corrupt-then-clean; rates changed?";
}

TEST(RetryHelperTest, WatchdogBudgetTripIsCountedPerAttempt) {
  Fixture fx;
  ChannelModel channel{ChannelConfig{}};  // clean link: only the budget bites
  const unsigned attempts = 3;
  const StreamOutcome out = stream_pattern_with_retry(
      channel, fx.decoder, fx.te, fx.cube, attempts, fx.session,
      [](std::size_t) { return std::size_t{1}; });  // starves every decode

  EXPECT_FALSE(out.applied);
  EXPECT_EQ(out.watchdog_trips, attempts);
  EXPECT_EQ(fx.session.corruptions_detected, attempts);
  EXPECT_EQ(fx.session.patterns_retried, 1u);
}

TEST(RetryHelperTest, GenerousWatchdogBudgetDoesNotPerturbCleanRun) {
  Fixture clean, metered;
  ChannelModel ch_a{ChannelConfig{}};
  ChannelModel ch_b{ChannelConfig{}};
  const StreamOutcome a = stream_pattern_with_retry(
      ch_a, clean.decoder, clean.te, clean.cube, 4, clean.session);
  const StreamOutcome b = stream_pattern_with_retry(
      ch_b, metered.decoder, metered.te, metered.cube, 4, metered.session,
      [&metered](std::size_t rx) {
        return 64 + 8 * (metered.cube.size() + rx);
      });

  ASSERT_TRUE(a.applied);
  ASSERT_TRUE(b.applied);
  EXPECT_EQ(b.watchdog_trips, 0u);
  EXPECT_EQ(a.scan_stream, b.scan_stream)
      << "a non-tripping watchdog must not change the decode";
  EXPECT_EQ(clean.session.ate_bits, metered.session.ate_bits);
  EXPECT_EQ(clean.session.soc_cycles, metered.session.soc_cycles);
}

TEST(RetryHelperTest, SessionAccumulatesAcrossPatterns) {
  // Two clean patterns through the same session: counters add up, and
  // patterns_retried stays per-pattern (not per-attempt).
  Fixture fx;
  ChannelModel channel{ChannelConfig{}};
  const StreamOutcome first = stream_pattern_with_retry(
      channel, fx.decoder, fx.te, fx.cube, 4, fx.session);
  const StreamOutcome second = stream_pattern_with_retry(
      channel, fx.decoder, fx.te, fx.cube, 4, fx.session);

  EXPECT_TRUE(first.applied);
  EXPECT_TRUE(second.applied);
  EXPECT_EQ(fx.session.ate_bits, 2 * fx.te.size());
  EXPECT_EQ(fx.session.patterns_retried, 0u);
  EXPECT_EQ(fx.session.soc_cycles % 2, 0u)
      << "identical patterns cost identical cycles";
}

}  // namespace
}  // namespace nc::decomp
