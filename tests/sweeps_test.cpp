// Cross-module parameterized sweeps: broad configuration coverage for the
// invariants the focused suites check at single points.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "baselines/golomb.h"
#include "baselines/lzw.h"
#include "baselines/mtc.h"
#include "codec/nine_coded.h"
#include "codec/pattern_codec.h"
#include "decomp/multi_scan.h"
#include "decomp/single_scan.h"
#include "gen/cube_gen.h"

namespace nc {
namespace {

using bits::TestSet;
using bits::Trit;
using bits::TritVector;

TritVector random_stream(std::uint64_t seed, std::size_t n, double x) {
  gen::CubeGenConfig cfg;
  cfg.patterns = 1;
  cfg.width = n;
  cfg.x_fraction = x;
  cfg.seed = seed;
  return gen::generate_cubes(cfg).flatten();
}

// ------------------------------------------------ multi-scan chain sweep --

class ChainSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChainSweep, SinglePinCoversEveryChain) {
  const std::size_t chains = static_cast<std::size_t>(GetParam());
  gen::CubeGenConfig cfg;
  cfg.patterns = 6;
  cfg.width = 90;  // not a multiple of most chain counts: padding exercised
  cfg.x_fraction = 0.7;
  cfg.seed = 40 + chains;
  const TestSet td = gen::generate_cubes(cfg);
  const codec::NineCoded coder(8);
  const auto report = decomp::run_multi_scan_single_pin(td, chains, coder, 4);
  ASSERT_EQ(report.chain_streams.size(), chains);
  const std::size_t depth = (td.pattern_length() + chains - 1) / chains;
  for (std::size_t c = 0; c < chains; ++c)
    for (std::size_t p = 0; p < td.pattern_count(); ++p)
      for (std::size_t d = 0; d < depth; ++d) {
        const std::size_t cell = c * depth + d;
        if (cell >= td.pattern_length()) continue;
        const Trit want = td.at(p, cell);
        if (!bits::is_care(want)) continue;
        ASSERT_EQ(report.chain_streams[c].get(p * depth + d), want)
            << "chains=" << chains << " c=" << c << " p=" << p << " d=" << d;
      }
}

INSTANTIATE_TEST_SUITE_P(Chains, ChainSweep,
                         ::testing::Values(2, 3, 4, 8, 16, 32, 45));

// ------------------------------------------- pattern codec configuration --

class PatternSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(PatternSweep, TrainedRoundTrip) {
  const auto [k, extended] = GetParam();
  const TritVector td =
      random_stream(static_cast<std::uint64_t>(k) * 2 + extended, 3000, 0.8);
  const auto patterns = extended ? codec::extended_patterns()
                                 : codec::nine_coded_patterns();
  const codec::PatternCodec pc =
      codec::PatternCodec::trained(td, static_cast<std::size_t>(k), patterns);
  const TritVector d = pc.decode(pc.encode(td), td.size());
  EXPECT_TRUE(td.covered_by(d)) << pc.name();
}

INSTANTIATE_TEST_SUITE_P(
    KAndSet, PatternSweep,
    ::testing::Combine(::testing::Values(4, 8, 16, 32),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return "K" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_ext" : "_nine");
    });

// ------------------------------------------------ group-size sweeps -------

class GroupSweep : public ::testing::TestWithParam<int> {};

TEST_P(GroupSweep, GolombAndMtcRoundTrip) {
  const std::size_t m = static_cast<std::size_t>(GetParam());
  const TritVector td = random_stream(m, 2000, 0.85);
  const baselines::Golomb golomb(m);
  EXPECT_TRUE(td.covered_by(golomb.decode(golomb.encode(td), td.size())));
  const baselines::Mtc mtc(m);
  EXPECT_TRUE(td.covered_by(mtc.decode(mtc.encode(td), td.size())));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, GroupSweep,
                         ::testing::Values(2, 4, 8, 16, 32));

class LzwWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(LzwWidthSweep, RoundTrip) {
  const unsigned w = static_cast<unsigned>(GetParam());
  const TritVector td = random_stream(w, 4000, 0.9);
  const baselines::Lzw lzw(w);
  EXPECT_TRUE(td.covered_by(lzw.decode(lzw.encode(td), td.size())));
}

INSTANTIATE_TEST_SUITE_P(Widths, LzwWidthSweep,
                         ::testing::Values(2, 3, 6, 10, 14));

// ------------------------------------- random frequency-directed tables --

class RandomTableSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomTableSweep, ProgrammableDecoderMatchesSoftware) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::array<std::size_t, codec::kNumClasses> counts{};
  for (auto& c : counts) c = rng() % 1000;
  const codec::CodewordTable table =
      codec::CodewordTable::frequency_directed(counts);
  ASSERT_TRUE(table.prefix_free());
  const codec::NineCoded coder(8, table);
  const TritVector td = random_stream(rng(), 2000, 0.75);
  const TritVector te = coder.encode(td);
  const decomp::SingleScanDecoder decoder(coder, 2);
  const auto trace = decoder.run(te, td.size());
  EXPECT_EQ(trace.scan_stream, coder.decode(te, td.size()));
  EXPECT_TRUE(td.covered_by(trace.scan_stream));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTableSweep,
                         ::testing::Range(1, 13));

// ------------------------------- whole-block vs half-block dominance ------

class SplitSweep : public ::testing::TestWithParam<double> {};

TEST_P(SplitSweep, NineCodedBeatsWholeBlockCode) {
  const double x = GetParam();
  const TritVector td = random_stream(static_cast<std::uint64_t>(x * 100),
                                      20000, x);
  for (std::size_t k : {8u, 16u, 32u}) {
    // Whole-block "3C" size: 1 / 2 / 2+K bits per block.
    TritVector padded = td;
    if (padded.size() % k != 0)
      padded.append_run(k - padded.size() % k, Trit::X);
    std::size_t three = 0;
    for (std::size_t b = 0; b < padded.size(); b += k) {
      const auto kind = codec::NineCoded::scan_half(padded, b, k).kind;
      three += kind.zero_compatible ? 1 : kind.one_compatible ? 2 : 2 + k;
    }
    const std::size_t nine = codec::NineCoded(k).encode(td).size();
    EXPECT_LE(nine, three) << "K=" << k << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, SplitSweep,
                         ::testing::Values(0.8, 0.9, 0.95),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "X" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

}  // namespace
}  // namespace nc
