// Differential test of the sorted-vector Quine-McCluskey minimizer against
// the std::set oracle in tests/reference: on random functions with
// don't-care sets the cover must be the oracle's, cube for cube and in the
// same order, malformed input must fail with the oracle's message, and the
// synthesized decoder FSMs must match the oracle's output for output.
#include "reference/qm_reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>

#include "codec/codeword_table.h"

namespace nc::synth {
namespace {

/// A random function of 1..10 variables: up to 256 of its minterms, drawn
/// at random, are each ON or DC with per-function odds (the rest are OFF),
/// listed in random order with a few repeats. The cap keeps the quadratic
/// oracle at test speed; dense truth tables come from the FSM cases below.
struct Function {
  unsigned n = 0;
  std::vector<std::uint32_t> ones, dontcares;
};

Function random_function(std::mt19937_64& rng) {
  Function f;
  f.n = 1 + static_cast<unsigned>(rng() % 10);
  std::vector<std::uint32_t> minterms(1u << f.n);
  for (std::uint32_t m = 0; m < minterms.size(); ++m) minterms[m] = m;
  std::shuffle(minterms.begin(), minterms.end(), rng);
  const std::size_t cap = std::min<std::size_t>(minterms.size(), 256);
  minterms.resize(rng() % (cap + 1));
  const unsigned on_pct = static_cast<unsigned>(rng() % 101);
  for (std::uint32_t m : minterms)
    (rng() % 100 < on_pct ? f.ones : f.dontcares).push_back(m);
  for (auto* set : {&f.ones, &f.dontcares})
    if (!set->empty() && rng() % 4 == 0) set->push_back(set->front());
  return f;
}

std::string render(const std::vector<Cube>& cover, unsigned n) {
  std::string s;
  for (const Cube& c : cover) {
    s += c.to_string(n);
    s += " + ";
  }
  return s;
}

TEST(QmDiff, RandomFunctionsGetTheOraclesCover) {
  std::mt19937_64 rng(24);
  for (int trial = 0; trial < 5000; ++trial) {
    const Function f = random_function(rng);
    const std::vector<Cube> got = minimize(f.n, f.ones, f.dontcares);
    const std::vector<Cube> want = reference_minimize(f.n, f.ones, f.dontcares);
    ASSERT_EQ(got, want) << "trial " << trial << " n=" << f.n << "\n  got  "
                         << render(got, f.n) << "\n  want "
                         << render(want, f.n);
  }
}

TEST(QmDiff, MalformedInputFailsLikeTheOracle) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    Function f = random_function(rng);
    // Out of range, or one minterm both ON and DC, in either list.
    const std::uint32_t bad =
        rng() % 2 == 0 ? (1u << f.n) + static_cast<std::uint32_t>(rng() % 4)
                       : static_cast<std::uint32_t>(rng() % (1u << f.n));
    f.ones.push_back(bad);
    if (rng() % 2 == 0) f.dontcares.push_back(bad);
    std::string got, want;
    try {
      minimize(f.n, f.ones, f.dontcares);
    } catch (const std::invalid_argument& e) {
      got = e.what();
    }
    try {
      reference_minimize(f.n, f.ones, f.dontcares);
    } catch (const std::invalid_argument& e) {
      want = e.what();
    }
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

void expect_same_outputs(const std::vector<FsmOutputCost>& got,
                         const std::vector<FsmOutputCost>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name) << where;
    EXPECT_EQ(got[i].cover, want[i].cover) << where << " " << got[i].name;
    EXPECT_EQ(got[i].cost.gate_equivalents(), want[i].cost.gate_equivalents())
        << where << " " << got[i].name;
    EXPECT_EQ(got[i].cost.literals, want[i].cost.literals)
        << where << " " << got[i].name;
  }
}

TEST(QmDiff, CodeFsmsMatchTheOracle) {
  // Codeword lengths up to 8, the tuner's default cap.
  std::mt19937_64 rng(11);
  int tables = 0;
  while (tables < 500) {
    std::array<unsigned, codec::kNumClasses> lengths{};
    for (unsigned& len : lengths)
      len = 1 + static_cast<unsigned>(rng() % 8);
    codec::CodewordTable table;
    try {
      table = codec::CodewordTable::from_lengths(lengths);
    } catch (const codec::CodeSpecError&) {
      continue;
    }
    ++tables;
    const std::vector<CodeLeaf> leaves = leaves_for_table(table);
    const CodeSynthResult got = synthesize_code_fsm(leaves, 3);
    const CodeSynthResult want = reference_synthesize_code_fsm(leaves, 3);
    std::string where = "lengths";
    for (unsigned len : lengths) {
      where += ' ';
      where += std::to_string(len);
    }
    EXPECT_EQ(got.total_states, want.total_states) << where;
    EXPECT_EQ(got.total_gate_equivalents(), want.total_gate_equivalents())
        << where;
    expect_same_outputs(got.outputs, want.outputs, where);
  }
}

TEST(QmDiff, DecoderFsmMatchesTheOracle) {
  const FsmSynthesisResult got = synthesize_decoder_fsm();
  const FsmSynthesisResult want = reference_synthesize_decoder_fsm();
  EXPECT_EQ(got.state_flops, want.state_flops);
  EXPECT_EQ(got.total_gate_equivalents(), want.total_gate_equivalents());
  expect_same_outputs(got.outputs, want.outputs, "decoder FSM");
}

}  // namespace
}  // namespace nc::synth
