#include "decomp/multi_scan.h"

#include <gtest/gtest.h>

#include "decomp/timing.h"
#include "gen/cube_gen.h"
#include "gen/profiles.h"

namespace nc::decomp {
namespace {

using bits::TestSet;
using bits::Trit;
using bits::TritVector;
using codec::NineCoded;

TestSet sample_td(std::size_t patterns, std::size_t width,
                  std::uint64_t seed) {
  gen::CubeGenConfig cfg;
  cfg.patterns = patterns;
  cfg.width = width;
  cfg.x_fraction = 0.85;
  cfg.seed = seed;
  return gen::generate_cubes(cfg);
}

// The decoded chain content must cover the chain's slice of TD (chain c
// holds pattern cells [c*depth, (c+1)*depth), X-padded at the tail).
void expect_chains_cover_td(const ArchitectureReport& report,
                            const TestSet& td) {
  const std::size_t chains = report.chains;
  const std::size_t depth = (td.pattern_length() + chains - 1) / chains;
  for (std::size_t c = 0; c < chains; ++c) {
    ASSERT_EQ(report.chain_streams[c].size(), td.pattern_count() * depth);
    for (std::size_t row = 0; row < td.pattern_count(); ++row)
      for (std::size_t d = 0; d < depth; ++d) {
        const std::size_t cell = c * depth + d;
        if (cell >= td.pattern_length()) continue;  // pad position
        const Trit want = td.at(row, cell);
        if (!bits::is_care(want)) continue;
        EXPECT_EQ(report.chain_streams[c].get(row * depth + d), want)
            << "chain " << c << " row " << row << " depth " << d;
      }
  }
}

TEST(MultiScan, SinglePinReportShape) {
  const TestSet td = sample_td(10, 96, 1);
  const NineCoded coder(8);
  const ArchitectureReport r = run_multi_scan_single_pin(td, 16, coder, 8);
  EXPECT_EQ(r.ate_pins, 1u);
  EXPECT_EQ(r.decoders, 1u);
  EXPECT_EQ(r.chains, 16u);
  EXPECT_EQ(r.chain_streams.size(), 16u);
}

TEST(MultiScan, SinglePinChainContentsMatchTd) {
  const TestSet td = sample_td(8, 64, 2);
  const NineCoded coder(8);
  expect_chains_cover_td(run_multi_scan_single_pin(td, 8, coder, 4), td);
}

TEST(MultiScan, SinglePinHandlesUnevenWidth) {
  const TestSet td = sample_td(6, 50, 3);  // 50 cells over 8 chains: pad
  const NineCoded coder(8);
  expect_chains_cover_td(run_multi_scan_single_pin(td, 8, coder, 4), td);
}

TEST(MultiScan, SinglePinKeepsSingleScanTestTimeOnAlignedWidth) {
  // Paper claim: Fig 4b does not increase test time vs Fig 4a. With a width
  // that is a multiple of the chain count, both process identical volumes.
  const TestSet td = sample_td(12, 128, 4);
  const NineCoded coder(8);
  const ArchitectureReport a = run_single_scan(td, coder, 8);
  const ArchitectureReport b = run_multi_scan_single_pin(td, 16, coder, 8);
  // Same data volume, same decoder; cycles differ only through the slicing's
  // effect on block statistics -- they stay within a few percent.
  const double ratio = static_cast<double>(b.soc_cycles) /
                       static_cast<double>(a.soc_cycles);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
  EXPECT_EQ(b.ate_pins, a.ate_pins);
}

TEST(MultiScan, BankedRequiresChainMultipleOfK) {
  const TestSet td = sample_td(4, 64, 5);
  const NineCoded coder(8);
  EXPECT_THROW(run_multi_scan_banked(td, 12, coder, 4),
               std::invalid_argument);
  EXPECT_NO_THROW(run_multi_scan_banked(td, 16, coder, 4));
}

TEST(MultiScan, BankedUsesParallelDecoders) {
  const TestSet td = sample_td(10, 128, 6);
  const NineCoded coder(8);
  const ArchitectureReport banked = run_multi_scan_banked(td, 32, coder, 8);
  EXPECT_EQ(banked.ate_pins, 4u);
  EXPECT_EQ(banked.decoders, 4u);
  const ArchitectureReport single_pin =
      run_multi_scan_single_pin(td, 32, coder, 8);
  // Four decoders in parallel: roughly 4x faster than the one-pin variant.
  EXPECT_LT(banked.soc_cycles * 2, single_pin.soc_cycles);
}

TEST(MultiScan, BankedChainContentsMatchTd) {
  const TestSet td = sample_td(6, 64, 7);
  const NineCoded coder(8);
  const ArchitectureReport r = run_multi_scan_banked(td, 16, coder, 4);
  expect_chains_cover_td(r, td);
}

TEST(MultiScan, ZeroChainsRejected) {
  const TestSet td = sample_td(2, 16, 8);
  const NineCoded coder(8);
  EXPECT_THROW(run_multi_scan_single_pin(td, 0, coder, 4),
               std::invalid_argument);
}

TEST(MultiScan, PinCountTradeoffTable) {
  // The Fig. 4 trade-off: (a) 1 pin/1 chain, (b) 1 pin/m chains,
  // (c) m/K pins/m chains with ~K/m of the test time of (b)... report
  // fields exercise the whole comparison the rpct example prints.
  const TestSet td = sample_td(10, 256, 9);
  const NineCoded coder(8);
  const auto a = run_single_scan(td, coder, 8);
  const auto b = run_multi_scan_single_pin(td, 32, coder, 8);
  const auto c = run_multi_scan_banked(td, 32, coder, 8);
  EXPECT_EQ(a.ate_pins, 1u);
  EXPECT_EQ(b.ate_pins, 1u);
  EXPECT_EQ(c.ate_pins, 4u);
  EXPECT_LT(c.soc_cycles, b.soc_cycles);
  EXPECT_GT(c.decoders, b.decoders);
}

// Each runner decodes with the controller of the coder it is given, so a
// frequency-directed table and an odd K with uneven halves run on all three
// architectures: the chains hold TD, and the single-scan time is the
// analytic model's for that coder.
void expect_every_architecture_runs(const NineCoded& coder) {
  const TestSet td = gen::calibrated_cubes(gen::iscas89_profile("s5378"));
  const unsigned p = 8;
  const ArchitectureReport a = run_single_scan(td, coder, p);
  expect_chains_cover_td(a, td);
  EXPECT_EQ(a.soc_cycles,
            comp_soc_cycles(coder.analyze(td.flatten()), coder.table(), p))
      << coder.name();
  expect_chains_cover_td(run_multi_scan_single_pin(td, 16, coder, p), td);
  expect_chains_cover_td(
      run_multi_scan_banked(td, 2 * coder.block_size(), coder, p), td);
}

TEST(MultiScan, FrequencyDirectedCoderRunsOnEveryArchitecture) {
  const TestSet td = gen::calibrated_cubes(gen::iscas89_profile("s5378"));
  const NineCoded tuned = NineCoded::tuned_for(td.flatten(), 8);
  ASSERT_NE(tuned.table(), codec::CodewordTable::standard());
  expect_every_architecture_runs(tuned);
}

TEST(MultiScan, OddBlockCoderRunsOnEveryArchitecture) {
  expect_every_architecture_runs(
      NineCoded(9, codec::CodewordTable::standard(), 4));
}

}  // namespace
}  // namespace nc::decomp
