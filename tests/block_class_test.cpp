#include "codec/block_class.h"

#include <gtest/gtest.h>

#include "codec/nine_coded.h"

namespace nc::codec {
namespace {

using bits::TritVector;

BlockClass classify(const std::string& block) {
  const TritVector v = TritVector::from_string(block);
  const std::size_t half = v.size() / 2;
  return classify_halves(NineCoded::scan_half(v, 0, half).kind,
                         NineCoded::scan_half(v, half, half).kind);
}

TEST(ClassifyHalf, AllZeroIsZeroCompatibleOnly) {
  const TritVector v = TritVector::from_string("0000");
  const HalfKind k = NineCoded::scan_half(v, 0, 4).kind;
  EXPECT_TRUE(k.zero_compatible);
  EXPECT_FALSE(k.one_compatible);
  EXPECT_FALSE(k.mismatch());
}

TEST(ClassifyHalf, AllXIsBothCompatible) {
  const TritVector v = TritVector::from_string("XXXX");
  const HalfKind k = NineCoded::scan_half(v, 0, 4).kind;
  EXPECT_TRUE(k.zero_compatible);
  EXPECT_TRUE(k.one_compatible);
}

TEST(ClassifyHalf, MixedIsMismatch) {
  const TritVector v = TritVector::from_string("0X1X");
  EXPECT_TRUE(NineCoded::scan_half(v, 0, 4).kind.mismatch());
}

TEST(ClassifyHalf, RespectsOffsetAndLength) {
  const TritVector v = TritVector::from_string("11110000");
  EXPECT_FALSE(NineCoded::scan_half(v, 0, 4).kind.zero_compatible);
  EXPECT_TRUE(NineCoded::scan_half(v, 4, 4).kind.zero_compatible);
}

// Paper Table I, K=8 example rows.
TEST(ClassifyBlock, PaperTableICases) {
  EXPECT_EQ(classify("00000000"), BlockClass::kC1);
  EXPECT_EQ(classify("11111111"), BlockClass::kC2);
  EXPECT_EQ(classify("00001111"), BlockClass::kC3);
  EXPECT_EQ(classify("11110000"), BlockClass::kC4);
  EXPECT_EQ(classify("00000110"), BlockClass::kC5);
  EXPECT_EQ(classify("01100000"), BlockClass::kC6);
  EXPECT_EQ(classify("11110110"), BlockClass::kC7);
  EXPECT_EQ(classify("01101111"), BlockClass::kC8);
  EXPECT_EQ(classify("01100110"), BlockClass::kC9);
}

// Don't-cares must match the cheapest case (paper: 00, 0X, X0, XX are all C1;
// X-only blocks prefer C1 over C2).
TEST(ClassifyBlock, XResolvesToCheapestCase) {
  EXPECT_EQ(classify("XXXXXXXX"), BlockClass::kC1);
  EXPECT_EQ(classify("0X0XXXX0"), BlockClass::kC1);
  EXPECT_EQ(classify("1XXXXXX1"), BlockClass::kC2);
  EXPECT_EQ(classify("XXXX1111"), BlockClass::kC2);  // C2 (2b) beats C3 (5b)
  EXPECT_EQ(classify("1111XXXX"), BlockClass::kC2);  // C2 (2b) beats C4 (5b)
}

TEST(ClassifyBlock, MixedHalvesPreferZeroVariant) {
  // Right half mismatch, left half all-X: C5 (left-as-0s) not C7.
  EXPECT_EQ(classify("XXXX01XX"), BlockClass::kC5);
  // Left half mismatch, right all-X: C6 not C8.
  EXPECT_EQ(classify("01XXXXXX"), BlockClass::kC6);
}

TEST(ClassifyBlock, WorksForOtherK) {
  EXPECT_EQ(classify("0X"), BlockClass::kC1);
  EXPECT_EQ(classify("10"), BlockClass::kC4);
  EXPECT_EQ(classify("0110"), BlockClass::kC9);
  EXPECT_EQ(classify("0000000000000001"), BlockClass::kC5);
}

TEST(ClassifyBlock, K2NeverMismatches) {
  // A 1-trit half cannot contain both a 0 and a 1.
  for (const char* s : {"00", "01", "10", "11", "0X", "X1", "XX"}) {
    const BlockClass c = classify(s);
    EXPECT_LE(static_cast<int>(c), static_cast<int>(BlockClass::kC4)) << s;
  }
}

TEST(PayloadTrits, MatchesTableI) {
  EXPECT_EQ(payload_trits(BlockClass::kC1, 8), 0u);
  EXPECT_EQ(payload_trits(BlockClass::kC4, 8), 0u);
  EXPECT_EQ(payload_trits(BlockClass::kC5, 8), 4u);
  EXPECT_EQ(payload_trits(BlockClass::kC8, 16), 8u);
  EXPECT_EQ(payload_trits(BlockClass::kC9, 8), 8u);
}

TEST(UniformFill, MatchesCaseDefinitions) {
  EXPECT_EQ(uniform_fill(BlockClass::kC1), (std::array<bool, 2>{false, false}));
  EXPECT_EQ(uniform_fill(BlockClass::kC2), (std::array<bool, 2>{true, true}));
  EXPECT_EQ(uniform_fill(BlockClass::kC3), (std::array<bool, 2>{false, true}));
  EXPECT_EQ(uniform_fill(BlockClass::kC4), (std::array<bool, 2>{true, false}));
}

TEST(MixedShape, MatchesCaseDefinitions) {
  EXPECT_FALSE(mixed_shape(BlockClass::kC5).uniform_value);
  EXPECT_FALSE(mixed_shape(BlockClass::kC5).mismatch_is_left);
  EXPECT_FALSE(mixed_shape(BlockClass::kC6).uniform_value);
  EXPECT_TRUE(mixed_shape(BlockClass::kC6).mismatch_is_left);
  EXPECT_TRUE(mixed_shape(BlockClass::kC7).uniform_value);
  EXPECT_FALSE(mixed_shape(BlockClass::kC7).mismatch_is_left);
  EXPECT_TRUE(mixed_shape(BlockClass::kC8).uniform_value);
  EXPECT_TRUE(mixed_shape(BlockClass::kC8).mismatch_is_left);
}

TEST(CaseNumber, OneBased) {
  EXPECT_EQ(case_number(BlockClass::kC1), 1u);
  EXPECT_EQ(case_number(BlockClass::kC9), 9u);
}

}  // namespace
}  // namespace nc::codec
