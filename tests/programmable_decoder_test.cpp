// The cycle model programmed by a codeword table: SingleScanDecoder builds
// its controller from the coder it decodes, so a frequency-directed or
// tuned table runs through the same model as the paper's.
#include <gtest/gtest.h>

#include "codec/nine_coded.h"
#include "decomp/single_scan.h"
#include "decomp/timing.h"
#include "gen/cube_gen.h"
#include "reference/decoder_reference.h"

namespace nc::decomp {
namespace {

using bits::TritVector;
using codec::CodewordTable;
using codec::NineCoded;

TritVector sample_td(std::uint64_t seed) {
  gen::CubeGenConfig cfg;
  cfg.patterns = 20;
  cfg.width = 311;
  cfg.x_fraction = 0.8;
  cfg.seed = seed;
  return gen::generate_cubes(cfg).flatten();
}

TEST(ProgrammableDecoder, MatchesHardwiredDecoderOnStandardTable) {
  // The hand-written Fig. 2 model is the oracle on the paper's table.
  const TritVector td = sample_td(1);
  const NineCoded coder(8);
  const TritVector te = coder.encode(td);
  const ReferenceSingleScanDecoder hardwired(8, 4);
  const SingleScanDecoder programmed(coder, 4);
  const DecoderTrace a = hardwired.run(te, td.size());
  const DecoderTrace b = programmed.run(te, td.size());
  EXPECT_EQ(a.scan_stream, b.scan_stream);
  EXPECT_EQ(a.soc_cycles, b.soc_cycles);
  EXPECT_EQ(a.ate_cycles, b.ate_cycles);
  EXPECT_EQ(a.codewords, b.codewords);
}

TEST(ProgrammableDecoder, DecodesFrequencyDirectedStream) {
  const TritVector td = sample_td(2);
  const NineCoded tuned = NineCoded::tuned_for(td, 8);
  const TritVector te = tuned.encode(td);
  const SingleScanDecoder decoder(tuned, 8);
  const DecoderTrace trace = decoder.run(te, td.size());
  EXPECT_TRUE(td.covered_by(trace.scan_stream));
  EXPECT_EQ(trace.scan_stream, tuned.decode(te, td.size()));
}

TEST(ProgrammableDecoder, TimingMatchesAnalyticModelForTunedTable) {
  const TritVector td = sample_td(3);
  const NineCoded tuned = NineCoded::tuned_for(td, 16);
  TritVector te;
  const auto stats = tuned.analyze(td, &te);
  for (unsigned p : {1u, 4u, 16u}) {
    const SingleScanDecoder decoder(tuned, p);
    EXPECT_EQ(decoder.run(te, td.size()).soc_cycles,
              comp_soc_cycles(stats, tuned.table(), p))
        << "p=" << p;
  }
}

TEST(ProgrammableDecoder, RejectsBadParameters) {
  EXPECT_THROW(SingleScanDecoder(NineCoded(8), 0), std::invalid_argument);
  // K and the split are the coder's, which validates them.
  EXPECT_THROW(NineCoded(5, CodewordTable::standard()), std::invalid_argument);
  EXPECT_THROW(NineCoded(8, CodewordTable::standard(), 8),
               std::invalid_argument);
}

TEST(ProgrammableDecoder, WrongTableFailsLoudly) {
  // Decoding a frequency-directed stream with the standard table must not
  // silently produce wrong data: either a care bit differs or the stream
  // desynchronizes and throws.
  const TritVector td = sample_td(4);
  const NineCoded tuned = NineCoded::tuned_for(td, 8);
  if (tuned.table() == CodewordTable::standard())
    GTEST_SKIP() << "tuning kept the standard table on this data";
  const TritVector te = tuned.encode(td);
  const SingleScanDecoder wrong(NineCoded(8), 4);
  try {
    const DecoderTrace trace = wrong.run(te, td.size());
    EXPECT_FALSE(td.covered_by(trace.scan_stream));
  } catch (const std::exception&) {
    SUCCEED();
  }
}

TEST(ProgrammableDecoder, RunsOddBlocksWithUnevenHalves) {
  // K = 9 split 4 | 5 and K = 7 split 5 | 2, with the standard and a
  // frequency-directed table: the halves follow the coder's split.
  const TritVector td = sample_td(5);
  for (const auto [k, split] : {std::pair<std::size_t, std::size_t>{9, 4},
                                {7, 5}}) {
    for (const CodewordTable& table :
         {CodewordTable::standard(), NineCoded::tuned_for(td, 8).table()}) {
      const NineCoded coder(k, table, split);
      TritVector te;
      const auto stats = coder.analyze(td, &te);
      const DecoderTrace trace = SingleScanDecoder(coder, 4).run(te, td.size());
      EXPECT_EQ(trace.scan_stream, coder.decode(te, td.size()))
          << coder.name();
      EXPECT_EQ(trace.soc_cycles, comp_soc_cycles(stats, table, 4))
          << coder.name();
      EXPECT_EQ(trace.ate_cycles, te.size()) << coder.name();
    }
  }
}

}  // namespace
}  // namespace nc::decomp
