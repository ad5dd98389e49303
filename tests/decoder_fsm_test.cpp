// The decoder controller of the paper's table: the codec::DecoderSpec that
// the cycle model runs, synth prices and rtl emits, checked against Fig. 2
// and Table I. decoder_diff_fuzz_test compares it with the hand-written
// Fig. 2 table transition by transition.
#include "codec/decoder_spec.h"

#include <gtest/gtest.h>

#include "codec/codeword_table.h"
#include "reference/decoder_reference.h"

namespace nc::decomp {
namespace {

using codec::BlockClass;
using codec::CodewordTable;
using codec::DecoderSpec;

DecoderSpec standard_spec() {
  return DecoderSpec(CodewordTable::standard(), 8, 4);
}

// Feeds the bit string through recognition states; returns the final step.
DecoderSpec::Step recognize(const DecoderSpec& spec, const std::string& bits) {
  std::uint32_t state = 0;
  DecoderSpec::Step step;
  for (char c : bits) {
    step = spec.step(state, c == '1', false);
    state = step.next;
  }
  return step;
}

TEST(DecoderFsm, RecognizesEveryStandardCodeword) {
  const CodewordTable table = CodewordTable::standard();
  const DecoderSpec spec = standard_spec();
  ASSERT_EQ(spec.recognition_states(), 8u);
  ASSERT_EQ(spec.state_count(), kFsmStateCount);
  for (std::size_t c = 0; c < codec::kNumClasses; ++c) {
    const auto cls = static_cast<BlockClass>(c);
    const DecoderSpec::Step step = recognize(spec, table.at(cls).to_string());
    ASSERT_EQ(step.leaf, c) << "C" << c + 1;
    EXPECT_EQ(step.next, spec.half_a()) << "C" << c + 1;
    const codec::CodeLeaf& leaf = spec.leaves()[step.leaf];
    EXPECT_EQ(plan_class(static_cast<HalfPlan>(leaf.plan_a),
                         static_cast<HalfPlan>(leaf.plan_b)),
              cls)
        << "C" << c + 1;
  }
}

TEST(DecoderFsm, NoProperPrefixRecognizes) {
  const CodewordTable table = CodewordTable::standard();
  const DecoderSpec spec = standard_spec();
  for (std::size_t c = 0; c < codec::kNumClasses; ++c) {
    const std::string word =
        table.at(static_cast<BlockClass>(c)).to_string();
    for (std::size_t len = 1; len < word.size(); ++len) {
      const DecoderSpec::Step step = recognize(spec, word.substr(0, len));
      EXPECT_EQ(step.leaf, DecoderSpec::kNoLeaf)
          << word << " prefix length " << len;
      EXPECT_LT(step.next, spec.half_a()) << word << " prefix length " << len;
    }
  }
}

TEST(DecoderFsm, RecognitionConsumesDataBits) {
  // Recognition states branch on the ATE bit; the half and Ack states
  // ignore it.
  const DecoderSpec spec = standard_spec();
  for (std::uint32_t s = 0; s < spec.recognition_states(); ++s) {
    const DecoderSpec::Step zero = spec.step(s, false, false);
    const DecoderSpec::Step one = spec.step(s, true, false);
    EXPECT_TRUE(zero.next != one.next || zero.leaf != one.leaf) << s;
  }
  for (std::uint32_t s = spec.half_a(); s < spec.state_count(); ++s)
    for (const bool done : {false, true})
      EXPECT_EQ(spec.step(s, false, done).next, spec.step(s, true, done).next)
          << s;
}

TEST(DecoderFsm, HalfStatesWaitForDone) {
  const DecoderSpec spec = standard_spec();
  EXPECT_EQ(spec.step(spec.half_a(), false, false).next, spec.half_a());
  EXPECT_EQ(spec.step(spec.half_a(), false, true).next, spec.half_b());
  EXPECT_EQ(spec.step(spec.half_b(), false, false).next, spec.half_b());
  EXPECT_EQ(spec.step(spec.half_b(), false, true).next, spec.ack());
}

TEST(DecoderFsm, AckReturnsToIdle) {
  const DecoderSpec spec = standard_spec();
  const DecoderSpec::Step step = spec.step(spec.ack(), false, false);
  EXPECT_EQ(step.next, 0u);
  EXPECT_TRUE(step.ack);
}

TEST(DecoderFsm, PlanClassRoundTrip) {
  using enum HalfPlan;
  EXPECT_EQ(plan_class(kFill0, kFill0), BlockClass::kC1);
  EXPECT_EQ(plan_class(kFill1, kFill1), BlockClass::kC2);
  EXPECT_EQ(plan_class(kFill0, kFill1), BlockClass::kC3);
  EXPECT_EQ(plan_class(kFill1, kFill0), BlockClass::kC4);
  EXPECT_EQ(plan_class(kFill0, kData), BlockClass::kC5);
  EXPECT_EQ(plan_class(kData, kFill0), BlockClass::kC6);
  EXPECT_EQ(plan_class(kFill1, kData), BlockClass::kC7);
  EXPECT_EQ(plan_class(kData, kFill1), BlockClass::kC8);
  EXPECT_EQ(plan_class(kData, kData), BlockClass::kC9);
  // codec::half_plans, which every decoder consumer reads, is its inverse.
  for (std::size_t c = 0; c < codec::kNumClasses; ++c) {
    const auto cls = static_cast<BlockClass>(c);
    const auto plans = codec::half_plans(cls);
    EXPECT_EQ(plan_class(static_cast<HalfPlan>(plans[0]),
                         static_cast<HalfPlan>(plans[1])),
              cls);
  }
}

TEST(DecoderFsm, MaxFiveCyclesPerCodeword) {
  // Paper: "maximum of five cycles are required for the longest codeword."
  const CodewordTable table = CodewordTable::standard();
  for (std::size_t c = 0; c < codec::kNumClasses; ++c)
    EXPECT_LE(table.at(static_cast<BlockClass>(c)).length, 5u);
}

TEST(DecoderSpec, RejectsNonPrefixFreeCodesAndEmptyHalves) {
  EXPECT_THROW(DecoderSpec({{codec::Codeword{0b0, 1}, 0, 0},
                            {codec::Codeword{0b01, 2}, 1, 1}},
                           4, 4),
               std::invalid_argument);
  EXPECT_THROW(DecoderSpec({{codec::Codeword{0b10, 2}, 0, 0},
                            {codec::Codeword{0b1, 1}, 1, 1}},
                           4, 4),
               std::invalid_argument);
  EXPECT_THROW(DecoderSpec(CodewordTable::standard(), 8, 0),
               std::invalid_argument);
  EXPECT_THROW(DecoderSpec(CodewordTable::standard(), 8, 8),
               std::invalid_argument);
  const DecoderSpec odd(CodewordTable::standard(), 9, 4);
  EXPECT_EQ(odd.left(), 4u);
  EXPECT_EQ(odd.right(), 5u);
}

}  // namespace
}  // namespace nc::decomp
