// Differential test of the packed-word X-fill against the per-trit fill in
// tests/reference: for every strategy and several seeds, over seeded
// geometries whose patterns start and end inside packed words, and over
// s38417- and CKT1-shaped sets, power::fill must return the reference's
// test set. TestSet == compares the packed words, so it checks the zero
// tail past the last trit too.
#include "reference/fill_reference.h"

#include <gtest/gtest.h>

#include <iterator>
#include <random>
#include <string>

#include "gen/cube_gen.h"
#include "gen/profiles.h"

namespace nc::power {
namespace {

using bits::TestSet;

constexpr FillStrategy kStrategies[] = {
    FillStrategy::kRandom, FillStrategy::kZero, FillStrategy::kOne,
    FillStrategy::kMinTransition};
constexpr std::uint64_t kSeeds[] = {1, 2, 11, 0x9E3779B97F4A7C15ull};

/// Widths at and around multiples of the 32-trit word, or any up to 130.
std::size_t random_width(std::mt19937_64& rng) {
  static constexpr std::size_t kEdges[] = {0,  1,  2,  31,  32,  33,  63, 64,
                                           65, 95, 96, 97, 127, 128, 129, 130};
  return rng() % 2 == 0 ? kEdges[rng() % std::size(kEdges)] : rng() % 131;
}

/// 0-40 patterns; each trit is X at a per-set density from 0 to 100%, else
/// a random care value, and about one pattern in eight is all X.
TestSet random_cubes(std::mt19937_64& rng) {
  const std::size_t patterns = rng() % 41;
  const std::size_t width = random_width(rng);
  const std::uint64_t x_pct = rng() % 3 == 0 ? rng() % 2 * 100 : rng() % 101;
  TestSet ts(patterns, width);
  for (std::size_t p = 0; p < patterns; ++p) {
    if (rng() % 8 == 0) continue;
    for (std::size_t c = 0; c < width; ++c)
      if (rng() % 100 >= x_pct) ts.set(p, c, bits::trit_from_bit(rng() & 1u));
  }
  return ts;
}

void expect_reference_fill(const TestSet& cubes, const std::string& where) {
  for (FillStrategy s : kStrategies)
    for (std::uint64_t seed : kSeeds) {
      ASSERT_EQ(fill(cubes, s, seed), reference_fill(cubes, s, seed))
          << where << " " << fill_strategy_name(s) << " seed " << seed;
      if (s != FillStrategy::kRandom) break;  // only random reads the seed
    }
}

TEST(FillDiffFuzz, RandomGeometriesMatchTheReference) {
  std::mt19937_64 rng(28);
  for (int trial = 0; trial < 2000; ++trial) {
    const TestSet cubes = random_cubes(rng);
    expect_reference_fill(cubes,
                          "trial " + std::to_string(trial) + " (" +
                              std::to_string(cubes.pattern_count()) + "x" +
                              std::to_string(cubes.pattern_length()) + ")");
  }
}

TEST(FillDiffFuzz, ProfileSetsMatchTheReference) {
  for (std::uint64_t gen_seed : {1, 2})
    expect_reference_fill(
        gen::calibrated_cubes(gen::iscas89_profile("s38417"), gen_seed),
        "s38417 seed " + std::to_string(gen_seed));
  for (const gen::BenchmarkProfile& profile : gen::ibm_profiles())
    if (profile.name == "CKT1")
      expect_reference_fill(gen::calibrated_cubes(profile, 1), "CKT1");
}

}  // namespace
}  // namespace nc::power
