#include "synth/code_synth.h"

#include <gtest/gtest.h>

#include "codec/pattern_codec.h"
#include "reference/qm_reference.h"

namespace nc::synth {
namespace {

TEST(CodeSynth, StandardTableMatchesHandcraftedStateCount) {
  // The 9-leaf standard trie has 8 internal nodes -> 8 recognition states,
  // plus HalfA/HalfB/Ack = 11 total, exactly the Fig. 2 FSM.
  const auto leaves = leaves_for_table(codec::CodewordTable::standard());
  const CodeSynthResult r = synthesize_code_fsm(leaves, 3);
  EXPECT_EQ(r.recognition_states, 8u);
  EXPECT_EQ(r.total_states, 11u);
  EXPECT_EQ(r.state_bits, 4u);
  EXPECT_EQ(r.plan_bits, 2u);
}

TEST(CodeSynth, StandardTableCostTracksHandcraftedFsm) {
  // The trie numbers its states in Fig. 2's order, so the generic FSM of
  // the paper's table is the hand-written one, gate for gate (qm_diff_test
  // compares the covers cube for cube).
  const auto leaves = leaves_for_table(codec::CodewordTable::standard());
  const CodeSynthResult generic = synthesize_code_fsm(leaves, 3);
  const CodeSynthResult handcrafted = reference_synthesize_decoder_fsm();
  EXPECT_EQ(generic.total_gate_equivalents(),
            handcrafted.total_gate_equivalents());
  EXPECT_EQ(generic.total_gate_equivalents(), 128u);
}

TEST(CodeSynth, FrequencyDirectedTableSameSize) {
  // Re-assigned codewords permute the trie but keep its shape: identical
  // state count, similar cost.
  std::array<std::size_t, codec::kNumClasses> counts = {5, 9, 1, 1, 1,
                                                        1, 1, 20, 3};
  const auto table = codec::CodewordTable::frequency_directed(counts);
  const CodeSynthResult r = synthesize_code_fsm(leaves_for_table(table), 3);
  EXPECT_EQ(r.recognition_states, 8u);
  EXPECT_EQ(r.total_states, 11u);
}

TEST(CodeSynth, BiggerCodeCostsMoreGates) {
  // The paper's trade-off: more codewords => a more expensive decoder.
  // Build a 25-leaf balanced-ish code via Huffman over equal frequencies.
  const auto nine = synthesize_code_fsm(
      leaves_for_table(codec::CodewordTable::standard()), 3);

  const bits::HuffmanCode code =
      bits::HuffmanCode::build(std::vector<std::size_t>(25, 1));
  std::vector<CodeLeaf> leaves;
  for (std::size_t c = 0; c < 25; ++c) {
    CodeLeaf leaf;
    leaf.word = codec::Codeword{static_cast<std::uint32_t>(code.code(c)),
                                code.length(c)};
    leaf.plan_a = static_cast<unsigned>(c / 5);
    leaf.plan_b = static_cast<unsigned>(c % 5);
    leaves.push_back(leaf);
  }
  const CodeSynthResult ext = synthesize_code_fsm(leaves, 5);
  EXPECT_EQ(ext.recognition_states, 24u);
  EXPECT_GT(ext.total_gate_equivalents(), nine.total_gate_equivalents());
}

TEST(CodeSynth, RejectsNonPrefixFreeCode) {
  std::vector<CodeLeaf> leaves = {
      {codec::Codeword{0b0, 1}, 0, 0},
      {codec::Codeword{0b01, 2}, 1, 1},  // "0" prefixes "01"
  };
  EXPECT_THROW(synthesize_code_fsm(leaves, 3), std::invalid_argument);
}

TEST(CodeSynth, RejectsDegenerateInputs) {
  EXPECT_THROW(synthesize_code_fsm({}, 3), std::invalid_argument);
  std::vector<CodeLeaf> one = {{codec::Codeword{0, 1}, 0, 0}};
  EXPECT_THROW(synthesize_code_fsm(one, 1), std::invalid_argument);
}

TEST(CodeSynth, LeavesForTableCoverAllNineClasses) {
  const auto leaves = leaves_for_table(codec::CodewordTable::standard());
  ASSERT_EQ(leaves.size(), 9u);
  // C1: both halves fill-0; C9: both data (plan 2).
  EXPECT_EQ(leaves[0].plan_a, 0u);
  EXPECT_EQ(leaves[0].plan_b, 0u);
  EXPECT_EQ(leaves[8].plan_a, 2u);
  EXPECT_EQ(leaves[8].plan_b, 2u);
  // C6: left data, right fill-0.
  EXPECT_EQ(leaves[5].plan_a, 2u);
  EXPECT_EQ(leaves[5].plan_b, 0u);
}

}  // namespace
}  // namespace nc::synth
