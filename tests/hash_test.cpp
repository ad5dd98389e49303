// The shared 128-bit FNV-1a (core/hash.h) is a durability contract, not
// just a hash: serve's cache keys, the sharded store's rendezvous ranking
// and its per-strip keys are all derived from it, and strip records written
// by one build must be findable by the next. These vectors pin the digest
// byte-for-byte; changing them silently orphans every sharded store on
// disk.
#include "core/hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace nc::core {
namespace {

TEST(Fnv128Test, EmptyInputIsTheOffsetBasis) {
  const Hash128 h = fnv128(nullptr, 0);
  EXPECT_EQ(h.lo, 0xCBF29CE484222325ull);
  EXPECT_EQ(h.hi, 0x6C62272E07BB0142ull);
}

TEST(Fnv128Test, FixedVectors) {
  // The lo lane is plain 64-bit FNV-1a, so "a" must match the published
  // reference value for that function.
  const std::uint8_t a[] = {'a'};
  Hash128 h = fnv128(a, 1);
  EXPECT_EQ(h.lo, 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(h.hi, 0xE5C9B63722C2EE79ull);

  const std::uint8_t abc[] = {'a', 'b', 'c'};
  h = fnv128(abc, 3);
  EXPECT_EQ(h.lo, 0xE71FA2190541574Bull);
  EXPECT_EQ(h.hi, 0x8B7EBB2D468F71E6ull);
}

TEST(Fnv128Test, U64UpdateFeedsLittleEndianBytes) {
  Fnv128 f;
  f.update_u64(0x0123456789ABCDEFull);
  const Hash128 h = f.digest();
  EXPECT_EQ(h.lo, 0x37EB3F3347761C55ull);
  EXPECT_EQ(h.hi, 0x32A5C24D3A374AC2ull);

  // Same bytes fed one at a time must agree -- update_u64 is a framing
  // convenience, not a different function.
  Fnv128 g;
  for (int i = 0; i < 8; ++i)
    g.update(static_cast<std::uint8_t>(0x0123456789ABCDEFull >> (8 * i)));
  const Hash128 h2 = g.digest();
  EXPECT_EQ(h2.lo, h.lo);
  EXPECT_EQ(h2.hi, h.hi);
}

TEST(Fnv128Test, StreamingMatchesOneShot) {
  std::vector<std::uint8_t> data(257);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  const Hash128 whole = fnv128(data.data(), data.size());
  Fnv128 f;
  f.update_bytes(data.data(), 100);
  f.update_bytes(data.data() + 100, data.size() - 100);
  const Hash128 split = f.digest();
  EXPECT_TRUE(whole == split);
}

// The exact byte sequence serve::cache_key feeds (kind, u64 k, lengths,
// u64 payload length, payload). Pinned so the shared hash provably
// produces the same cache keys -- and therefore finds the same store
// records -- as the private implementation it replaced.
TEST(Fnv128Test, CacheKeyCompositionVector) {
  Fnv128 f;
  f.update(0x9C);
  f.update_u64(8);
  for (int i = 0; i < 9; ++i) f.update(static_cast<std::uint8_t>(3 + i));
  f.update_u64(4);
  const std::uint8_t payload[] = {0, 1, 2, 3};
  f.update_bytes(payload, 4);
  const Hash128 h = f.digest();
  EXPECT_EQ(h.lo, 0x0E948CD5019EAFE4ull);
  EXPECT_EQ(h.hi, 0xA04D55CF3BD7275Bull);
}

TEST(Fnv128Test, HexIsHiThenLoZeroPadded) {
  EXPECT_EQ((Hash128{0x1, 0x2}).hex(),
            "00000000000000020000000000000001");
  const Hash128 h = fnv128(nullptr, 0);
  EXPECT_EQ(h.hex(), "6c62272e07bb0142cbf29ce484222325");
}

TEST(Fnv128Test, SingleByteChangesEveryLane) {
  std::vector<std::uint8_t> data(64, 0xAB);
  const Hash128 base = fnv128(data.data(), data.size());
  data[40] ^= 0x01;
  const Hash128 flipped = fnv128(data.data(), data.size());
  EXPECT_NE(base.lo, flipped.lo);
  EXPECT_NE(base.hi, flipped.hi);
}

// mix64 seeds every deterministic fan-out in the repo: fleet's per-device
// channel seeds and the tune optimizer's per-candidate RNG streams. Runs
// recorded before the hoist into core/hash.h must replay identically, so
// the finalizer is pinned byte-for-byte.
TEST(Mix64Test, GoldenVectors) {
  EXPECT_EQ(mix64(0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(mix64(1), 0x910A2DEC89025CC1ull);
  EXPECT_EQ(mix64(0xDEADBEEFull), 0x4ADFB90F68C9EB9Bull);
}

TEST(Mix64Test, MatchesPublishedSplitmix64Sequence) {
  // mix64(x) is one splitmix64 step from state x, so walking the state by
  // the golden-ratio increment must reproduce the published stream for
  // seed 1234567.
  const std::uint64_t increment = 0x9E3779B97F4A7C15ull;
  EXPECT_EQ(mix64(1234567), 6457827717110365317ull);
  EXPECT_EQ(mix64(1234567 + increment), 3203168211198807973ull);
}

// The seeded jitter of the server's write-through retries, the retrying
// client's retransmit timer and the chaos transport's latency all walk
// core::splitmix64. These vectors pin the generator and both default
// backoff schedules, so seeded runs replay bit-identically.
TEST(Mix64Test, SplitmixStepMatchesThePrivateCopiesItReplaced) {
  std::uint64_t state = 1;
  EXPECT_EQ(splitmix64(state), 0x910A2DEC89025CC1ull);
  EXPECT_EQ(splitmix64(state), 0xBEEB8DA1658EEC67ull);
  EXPECT_EQ(splitmix64(state), 0xF893A2EEFB32555Eull);
  EXPECT_EQ(splitmix64(state), 0x71C18690EE42C90Bull);
  EXPECT_EQ(state, 0x78DDE6E5FD29F055ull);
}

TEST(Mix64Test, EqualJitterBackoffSequences) {
  using std::chrono::milliseconds;
  // RetryingClient defaults: seed 1, 250 ms doubling to a 2000 ms cap.
  std::uint64_t client = 1;
  const std::int64_t client_want[] = {148, 340, 512, 1315, 1733, 1639};
  milliseconds b{250};
  for (const std::int64_t want : client_want) {
    EXPECT_EQ(equal_jitter(client, b).count(), want) << "backoff " << b.count();
    b = std::min(b * 2, milliseconds{2000});
  }
  // Server write-through defaults: 1 ms doubling to a 64 ms cap.
  std::uint64_t server = 0x9e3779b97f4a7c15ull;
  const std::int64_t server_want[] = {0, 2, 3, 6, 11, 25, 37, 52};
  b = milliseconds{1};
  for (const std::int64_t want : server_want) {
    EXPECT_EQ(equal_jitter(server, b).count(), want) << "backoff " << b.count();
    b = std::min(b * 2, milliseconds{64});
  }
}

TEST(Mix64Test, FleetSeedCompositionVector) {
  // fleet.cpp derives batch seeds as nested mixes; pin the composition so
  // checkpointed journals stay replayable across refactors.
  EXPECT_EQ(mix64(3 ^ mix64(5 ^ mix64(9))), 0xF36268102292D6FAull);
}

TEST(Mix64Test, IsConstexprAndBijectiveOnASample) {
  static_assert(mix64(0) == 0xE220A8397B1DCDAFull);
  // A finalizer must not collide on a dense small-integer sample (the
  // slot/generation values the optimizer feeds it).
  std::vector<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) seen.push_back(mix64(i));
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
}

}  // namespace
}  // namespace nc::core
