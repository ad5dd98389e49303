#include "codec/nine_coded.h"

#include <gtest/gtest.h>

#include <limits>

namespace nc::codec {
namespace {

using bits::TritVector;

TEST(NineCoded, RejectsBadBlockSize) {
  EXPECT_THROW(NineCoded(0), std::invalid_argument);
  EXPECT_THROW(NineCoded(7), std::invalid_argument);
  EXPECT_NO_THROW(NineCoded(2));
  EXPECT_NO_THROW(NineCoded(48));
}

TEST(NineCoded, NameIncludesK) {
  EXPECT_EQ(NineCoded(8).name(), "9C(K=8)");
}

TEST(NineCoded, EncodesAllZeroBlockToSingleBit) {
  const NineCoded nc(8);
  const TritVector te = nc.encode(TritVector::from_string("00000000"));
  EXPECT_EQ(te.to_string(), "0");
}

TEST(NineCoded, EncodesAllOneBlock) {
  const NineCoded nc(8);
  EXPECT_EQ(nc.encode(TritVector::from_string("11111111")).to_string(), "10");
}

TEST(NineCoded, EncodesC3AndC4) {
  const NineCoded nc(8);
  EXPECT_EQ(nc.encode(TritVector::from_string("0X0X1111")).to_string(),
            "11010");
  EXPECT_EQ(nc.encode(TritVector::from_string("11XX00X0")).to_string(),
            "11011");
}

TEST(NineCoded, MixedBlockCarriesMismatchHalfVerbatim) {
  const NineCoded nc(8);
  // Left 0-compatible, right mismatch "01X0" -> C5 + payload (X preserved).
  EXPECT_EQ(nc.encode(TritVector::from_string("0X0001X0")).to_string(),
            "11100" "01X0");
}

TEST(NineCoded, FullMismatchCarriesWholeBlock) {
  const NineCoded nc(8);
  EXPECT_EQ(nc.encode(TritVector::from_string("01XX10X1")).to_string(),
            "1100" "01XX10X1");
}

TEST(NineCoded, DecodeReproducesUniformBlocks) {
  const NineCoded nc(8);
  const TritVector td = TritVector::from_string("0000000011111111");
  EXPECT_EQ(nc.decode(nc.encode(td), td.size()), td);
}

TEST(NineCoded, DecodeFillsXInMatchedHalves) {
  const NineCoded nc(8);
  const TritVector td = TritVector::from_string("0X0XXXX1");
  // Block is C2-incompatible (has 0), C1-incompatible (has 1)... actually
  // left is 0-compatible, right is 1-compatible -> C3: left fills 0, right 1.
  const TritVector d = nc.decode(nc.encode(td), td.size());
  EXPECT_EQ(d.to_string(), "00001111");
  EXPECT_TRUE(td.covered_by(d));
}

TEST(NineCoded, DecodePreservesLeftoverX) {
  const NineCoded nc(8);
  const TritVector td = TritVector::from_string("XXXX01XX");
  const TritVector d = nc.decode(nc.encode(td), td.size());
  EXPECT_EQ(d.to_string(), "000001XX");
}

TEST(NineCoded, PadsTailBlockAndTruncatesOnDecode) {
  const NineCoded nc(8);
  const TritVector td = TritVector::from_string("0110");  // half a block
  const TritVector te = nc.encode(td);
  const TritVector d = nc.decode(te, td.size());
  ASSERT_EQ(d.size(), 4u);
  EXPECT_TRUE(td.covered_by(d));
}

TEST(NineCoded, StatsCountsMatchPaperFormula) {
  const NineCoded nc(8);
  // Two C1 blocks, one C5 block, one C9 block.
  const TritVector td = TritVector::from_string(
      "00000000" "XXXXXXXX" "000001X0" "01X001X0");
  const NineCodedStats s = nc.analyze(td);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[4], 1u);
  EXPECT_EQ(s.counts[8], 1u);
  EXPECT_EQ(s.blocks(), 4u);
  // |TE| = N1*1 + N5*(5+4) + N9*(4+8)
  EXPECT_EQ(s.encoded_bits, 2u * 1 + 1u * 9 + 1u * 12);
  EXPECT_EQ(s.original_bits, 32u);
  EXPECT_EQ(s.padded_bits, 32u);
  // Leftover X: one in the C5 payload, two in the C9 payload.
  EXPECT_EQ(s.leftover_x, 3u);
  // Filled X: 8 in the all-X C1 block, 1 in the C5 matched half ("000 0" has
  // none)... the C5 left half "0000" has none; all-X block has 8.
  EXPECT_EQ(s.filled_x, 8u);
}

TEST(NineCoded, CompressionRatioMatchesDefinition) {
  NineCodedStats s;
  s.original_bits = 100;
  s.encoded_bits = 40;
  EXPECT_DOUBLE_EQ(s.compression_ratio(), 60.0);
}

TEST(NineCoded, NegativeCompressionPossible) {
  const NineCoded nc(4);
  // Dense alternating data expands: every block is C9 (cost 4+K).
  const TritVector td = TritVector::from_string("0110011001100110");
  const NineCodedStats s = nc.analyze(td);
  EXPECT_LT(s.compression_ratio(), 0.0);
}

TEST(NineCoded, LeftoverXPercent) {
  NineCodedStats s;
  s.original_bits = 200;
  s.leftover_x = 30;
  EXPECT_DOUBLE_EQ(s.leftover_x_percent(), 15.0);
}

TEST(NineCoded, AnalyzeAndEncodeAgree) {
  const NineCoded nc(8);
  const TritVector td = TritVector::from_string(
      "0000XXXX" "11XX11XX" "01100110" "XXXXXXXX");
  TritVector via_analyze;
  const NineCodedStats s = nc.analyze(td, &via_analyze);
  EXPECT_EQ(via_analyze, nc.encode(td));
  EXPECT_EQ(s.encoded_bits, via_analyze.size());
}

TEST(NineCoded, TunedForReassignsWhenOrderViolated) {
  // Construct TD where C8 blocks outnumber C9 blocks.
  std::string s;
  for (int i = 0; i < 10; ++i) s += "01X01111";  // C8
  for (int i = 0; i < 2; ++i) s += "01100110";   // C9
  const bits::TritVector td = bits::TritVector::from_string(s);
  const NineCoded tuned = NineCoded::tuned_for(td, 8);
  // C8 dominates (10 blocks) so it takes the 1-bit slot; C9 takes 2 bits.
  EXPECT_EQ(tuned.table().length(BlockClass::kC8), 1u);
  EXPECT_EQ(tuned.table().length(BlockClass::kC9), 2u);
  // Tuned coder still round-trips.
  const bits::TritVector d = tuned.decode(tuned.encode(td), td.size());
  EXPECT_TRUE(td.covered_by(d));
  // And compresses at least as well as the standard coder on this TD.
  const NineCoded std_coder(8);
  EXPECT_LE(tuned.encode(td).size(), std_coder.encode(td).size());
}

TEST(NineCoded, DecodeThrowsOnCorruptStream) {
  const NineCoded nc(8);
  // "11" followed by end of stream: no codeword can complete.
  try {
    nc.decode(bits::TritVector::from_string("11"), 8);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.fault(), DecodeFault::kTruncated);
    EXPECT_EQ(e.block_index(), 0u);
  }
}

TEST(NineCoded, HugeLengthWithEmptyStreamIsTruncated) {
  // A crafted length near SIZE_MAX must not wrap the block count to zero:
  // the decoder runs out of TE on the first block.
  const NineCoded nc(8);
  try {
    nc.decode_checked(TritVector{}, std::numeric_limits<std::size_t>::max());
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.fault(), DecodeFault::kTruncated);
    EXPECT_EQ(e.block_index(), 0u);
  }
}

TEST(NineCoded, EmptyInput) {
  const NineCoded nc(8);
  const TritVector te = nc.encode(TritVector{});
  EXPECT_TRUE(te.empty());
  EXPECT_TRUE(nc.decode(te, 0).empty());
}

}  // namespace
}  // namespace nc::codec
