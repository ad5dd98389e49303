// Property tests for the 9C coder over randomized test cubes: round-trip
// correctness, leftover-X accounting and the paper's size formula, swept
// across every block size the paper uses and several X densities.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "codec/nine_coded.h"
#include "reference/nine_coded_reference.h"

namespace nc::codec {
namespace {

using bits::Trit;
using bits::TritVector;

TritVector random_cube(std::mt19937& rng, std::size_t n, double x_density) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  TritVector v(n, Trit::Zero);
  for (std::size_t i = 0; i < n; ++i) {
    if (uni(rng) < x_density)
      v.set(i, Trit::X);
    else
      v.set(i, bits::trit_from_bit(rng() & 1u));
  }
  return v;
}

// Every sweep runs on the word-parallel production coder ("bitplane") and
// on the per-trit reference ("scalar", tests/reference): the properties are
// statements about the 9C code itself, so the specification must satisfy
// them as well as the coder that ships. CTest names each case with
// GetParam()'s bytes, so the one-byte values 1 and 2 are part of the test
// IDs and must stay.
enum class Coder : unsigned char { kScalarReference = 1, kBitplane = 2 };

/// Production, or the reference with the same K and table.
struct SweepCoder {
  NineCoded config;
  Coder coder;

  NineCodedStats analyze(const TritVector& td,
                         TritVector* te = nullptr) const {
    return coder == Coder::kBitplane ? config.analyze(td, te)
                                     : reference_analyze(config, td, te);
  }
  TritVector encode(const TritVector& td) const {
    TritVector te;
    analyze(td, &te);
    return te;
  }
  TritVector decode(const TritVector& te, std::size_t n) const {
    return coder == Coder::kBitplane
               ? config.decode(te, n)
               : reference_decode_checked(config, te, n).data;
  }
};

class NineCodedSweep
    : public ::testing::TestWithParam<std::tuple<int, double, Coder>> {};

TEST_P(NineCodedSweep, RoundTripCoversEveryCareBit) {
  const auto [k, x_density, coder] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(k * 1000 + x_density * 100));
  const SweepCoder nc{NineCoded(static_cast<std::size_t>(k)), coder};
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng() % 600;  // deliberately not block-aligned
    const TritVector td = random_cube(rng, n, x_density);
    const TritVector te = nc.encode(td);
    const TritVector d = nc.decode(te, td.size());
    ASSERT_EQ(d.size(), td.size());
    ASSERT_TRUE(td.covered_by(d))
        << "K=" << k << " n=" << n << "\ntd=" << td.to_string()
        << "\nd =" << d.to_string();
  }
}

TEST_P(NineCodedSweep, EncodedSizeMatchesPaperFormula) {
  const auto [k, x_density, coder] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(k * 77 + x_density * 10));
  const SweepCoder nc{NineCoded(static_cast<std::size_t>(k)), coder};
  const TritVector td = random_cube(rng, 3000, x_density);
  const NineCodedStats s = nc.analyze(td);
  // |TE| = sum_i N_i * |C_i| + (N5..8) * K/2 + N9 * K  (Section IV formula).
  std::size_t expect = 0;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<BlockClass>(c);
    expect += s.counts[c] * (nc.config.table().length(cls) +
                             payload_trits(cls, s.block_size));
  }
  EXPECT_EQ(s.encoded_bits, expect);
}

TEST_P(NineCodedSweep, XAccountingIsComplete) {
  // Every X of (padded) TD is either filled or leftover -- none vanish.
  const auto [k, x_density, coder] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(k * 13 + x_density * 1000));
  const SweepCoder nc{NineCoded(static_cast<std::size_t>(k)), coder};
  const TritVector td = random_cube(rng, 2048, x_density);
  const NineCodedStats s = nc.analyze(td);
  const std::size_t padding_x = s.padded_bits - s.original_bits;
  EXPECT_EQ(s.filled_x + s.leftover_x, td.x_count() + padding_x);
}

TEST_P(NineCodedSweep, LeftoverXSurvivesInStream) {
  const auto [k, x_density, coder] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(k + x_density * 31));
  const SweepCoder nc{NineCoded(static_cast<std::size_t>(k)), coder};
  const TritVector td = random_cube(rng, 1024, x_density);
  TritVector te;
  const NineCodedStats s = nc.analyze(td, &te);
  EXPECT_EQ(te.x_count(), s.leftover_x);
}

TEST_P(NineCodedSweep, FrequencyDirectedNeverWorseOnTrainingSet) {
  const auto [k, x_density, coder] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(k * 3 + x_density * 7));
  const TritVector td = random_cube(rng, 4096, x_density);
  const SweepCoder std_coder{NineCoded(static_cast<std::size_t>(k)), coder};
  // The two-pass construction of NineCoded::tuned_for, run on this coder.
  const auto counts = std_coder.analyze(td).counts;
  const SweepCoder tuned{NineCoded(static_cast<std::size_t>(k),
                                   CodewordTable::frequency_directed(counts)),
                         coder};
  EXPECT_LE(tuned.encode(td).size(), std_coder.encode(td).size());
  const TritVector d = tuned.decode(tuned.encode(td), td.size());
  EXPECT_TRUE(td.covered_by(d));
}

INSTANTIATE_TEST_SUITE_P(
    AllKAndDensities, NineCodedSweep,
    ::testing::Combine(::testing::Values(2, 4, 8, 12, 16, 20, 24, 28, 32, 48),
                       ::testing::Values(0.0, 0.3, 0.7, 0.95),
                       ::testing::Values(Coder::kScalarReference,
                                         Coder::kBitplane)),
    [](const ::testing::TestParamInfo<std::tuple<int, double, Coder>>& info) {
      return "K" + std::to_string(std::get<0>(info.param)) + "_X" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
             (std::get<2>(info.param) == Coder::kBitplane ? "_bitplane"
                                                          : "_scalar");
    });

// Exhaustive check for small K: every possible 4-trit block round-trips.
TEST(NineCodedExhaustive, AllBlocksK4) {
  const NineCoded nc(4);
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b)
      for (int c = 0; c < 3; ++c)
        for (int d = 0; d < 3; ++d) {
          TritVector td;
          td.push_back(static_cast<Trit>(a));
          td.push_back(static_cast<Trit>(b));
          td.push_back(static_cast<Trit>(c));
          td.push_back(static_cast<Trit>(d));
          const TritVector out = nc.decode(nc.encode(td), 4);
          ASSERT_TRUE(td.covered_by(out)) << td.to_string();
        }
}

// Is the frequency-directed property genuinely optimal among length
// permutations? For a fixed TD, no permutation of the standard lengths can
// beat the frequency-directed assignment (rearrangement inequality).
TEST(NineCodedExhaustive, FrequencyDirectedBeatsRandomPermutations) {
  std::mt19937 rng(99);
  const TritVector td = random_cube(rng, 4096, 0.6);
  const NineCoded tuned = NineCoded::tuned_for(td, 8);
  const std::size_t tuned_size = tuned.encode(td).size();
  std::array<unsigned, kNumClasses> lengths = {1, 2, 5, 5, 5, 5, 5, 5, 4};
  for (int trial = 0; trial < 30; ++trial) {
    std::shuffle(lengths.begin(), lengths.end(), rng);
    const NineCoded perm(8, CodewordTable::from_lengths(lengths));
    EXPECT_LE(tuned_size, perm.encode(td).size());
  }
}

}  // namespace
}  // namespace nc::codec
