#include "decomp/single_scan.h"

#include <gtest/gtest.h>

#include "codec/decode_error.h"
#include "codec/nine_coded.h"
#include "decomp/timing.h"
#include "gen/cube_gen.h"

namespace nc::decomp {
namespace {

using bits::TritVector;
using codec::NineCoded;
using codec::NineCodedStats;

TEST(SingleScanDecoder, RejectsBadParameters) {
  // An odd K needs an explicit split; the coder refuses it without one.
  EXPECT_THROW(SingleScanDecoder(NineCoded(7), 8), std::invalid_argument);
  EXPECT_THROW(SingleScanDecoder(NineCoded(8), 0), std::invalid_argument);
}

TEST(SingleScanDecoder, ReproducesSoftwareDecoder) {
  const NineCoded coder(8);
  const TritVector td = TritVector::from_string(
      "00000000" "11111111" "0X0001X0" "01XX10X1" "0000XXXX");
  const TritVector te = coder.encode(td);
  const SingleScanDecoder decoder(coder, 4);
  const DecoderTrace trace = decoder.run(te, td.size());
  EXPECT_EQ(trace.scan_stream, coder.decode(te, td.size()));
  EXPECT_TRUE(td.covered_by(trace.scan_stream));
}

TEST(SingleScanDecoder, CountsCodewords) {
  const NineCoded coder(8);
  const TritVector td = TritVector::from_string("00000000" "11111111");
  const SingleScanDecoder decoder(coder, 1);
  EXPECT_EQ(decoder.run(coder.encode(td), td.size()).codewords, 2u);
}

TEST(SingleScanDecoder, UniformBlockTiming) {
  // One C1 block, p=4: 1 codeword bit (4 SoC cycles) + 8 fill bits (8).
  const NineCoded coder(8);
  const TritVector td = TritVector::from_string("00000000");
  const SingleScanDecoder decoder(coder, 4);
  const DecoderTrace trace = decoder.run(coder.encode(td), td.size());
  EXPECT_EQ(trace.ate_cycles, 1u);
  EXPECT_EQ(trace.soc_cycles, 1u * 4 + 8u);
}

TEST(SingleScanDecoder, MismatchBlockTiming) {
  // C9 block, p=4: 4 codeword bits + 8 payload bits, all at ATE rate.
  const NineCoded coder(8);
  const TritVector td = TritVector::from_string("01100110");
  const SingleScanDecoder decoder(coder, 4);
  const DecoderTrace trace = decoder.run(coder.encode(td), td.size());
  EXPECT_EQ(trace.ate_cycles, 12u);
  EXPECT_EQ(trace.soc_cycles, 12u * 4);
}

TEST(SingleScanDecoder, MixedBlockTiming) {
  // C5 block, p=2: 5 codeword bits + 4 payload at ATE rate, 4 fill at SoC.
  const NineCoded coder(8);
  const TritVector td = TritVector::from_string("000001X0");
  const SingleScanDecoder decoder(coder, 2);
  const DecoderTrace trace = decoder.run(coder.encode(td), td.size());
  EXPECT_EQ(trace.ate_cycles, 9u);
  EXPECT_EQ(trace.soc_cycles, 9u * 2 + 4u);
}

TEST(SingleScanDecoder, FaultsNameTheBlockInFlight) {
  // Two C9 blocks at K=8: every cut inside block 0 -- its codeword or its
  // payload -- is block 0's fault, as decode_checked numbers blocks.
  const NineCoded coder(8);
  const TritVector td = TritVector::from_string("01100110" "10011001");
  const TritVector te = coder.encode(td);
  ASSERT_EQ(te.size(), 2u * (4 + 8));
  const SingleScanDecoder decoder(coder, 4);
  for (std::size_t cut = 0; cut < te.size(); ++cut) {
    try {
      decoder.run(te.slice(0, cut), td.size());
      ADD_FAILURE() << "cut " << cut << " decoded";
    } catch (const codec::DecodeError& e) {
      EXPECT_EQ(e.fault(), codec::DecodeFault::kTruncated) << cut;
      EXPECT_EQ(e.block_index(), cut < 12 ? 0u : 1u) << cut;
      EXPECT_EQ(e.stream_offset(), cut) << cut;  // where the reader ran dry
    }
  }
}

class TimingSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TimingSweep, SimulatorMatchesAnalyticModel) {
  const auto [k, p] = GetParam();
  gen::CubeGenConfig cfg;
  cfg.patterns = 24;
  cfg.width = 173;
  cfg.x_fraction = 0.8;
  cfg.seed = static_cast<std::uint64_t>(k * 10 + p);
  const TritVector td = gen::generate_cubes(cfg).flatten();

  const NineCoded coder(static_cast<std::size_t>(k));
  TritVector te;
  const NineCodedStats stats = coder.analyze(td, &te);

  const SingleScanDecoder decoder(coder, static_cast<unsigned>(p));
  const DecoderTrace trace = decoder.run(te, td.size());

  EXPECT_EQ(trace.soc_cycles,
            comp_soc_cycles(stats, coder.table(), static_cast<unsigned>(p)));
  EXPECT_EQ(trace.ate_cycles, te.size());
  EXPECT_TRUE(td.covered_by(trace.scan_stream));
}

INSTANTIATE_TEST_SUITE_P(
    KAndP, TimingSweep,
    ::testing::Combine(::testing::Values(4, 8, 16, 32),
                       ::testing::Values(1, 2, 8, 16)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "K" + std::to_string(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Timing, TatApproachesCompressionRatioAsPGrows) {
  gen::CubeGenConfig cfg;
  cfg.patterns = 30;
  cfg.width = 400;
  cfg.x_fraction = 0.9;
  cfg.seed = 7;
  const TritVector td = gen::generate_cubes(cfg).flatten();
  const NineCoded coder(8);
  const NineCodedStats stats = coder.analyze(td);
  const double cr = stats.compression_ratio();
  double prev = -1e9;
  for (unsigned p : {1u, 2u, 4u, 8u, 16u, 64u, 1024u}) {
    const double tat = tat_percent(stats, coder.table(), p);
    EXPECT_LT(tat, cr);          // TAT is bounded above by CR
    EXPECT_GE(tat, prev - 1e-9); // and approaches it monotonically
    prev = tat;
  }
  EXPECT_NEAR(tat_percent(stats, coder.table(), 1u << 20), cr, 0.1);
}

TEST(Timing, NocompCycles) {
  EXPECT_EQ(nocomp_soc_cycles(1000, 8), 8000u);
}

TEST(Timing, EmptyStats) {
  codec::NineCodedStats stats;
  stats.block_size = 8;
  EXPECT_EQ(comp_soc_cycles(stats, codec::CodewordTable::standard(), 4), 0u);
  EXPECT_DOUBLE_EQ(tat_percent(stats, codec::CodewordTable::standard(), 4),
                   0.0);
}

}  // namespace
}  // namespace nc::decomp
