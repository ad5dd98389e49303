// Differential test of the truth-table Quine-McCluskey minimizer against
// the std::set oracle in tests/reference: on random functions with
// don't-care sets, sparse and dense, the cover must be the oracle's, cube
// for cube and in the same order, malformed input must fail with the
// oracle's message, and the synthesized decoder FSMs must match the
// oracle's output for output.
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

/// A dense function of `n` variables with no minterm cap: each of the 2^n
/// minterms is ON, DC or OFF with per-function odds.
Function dense_function(std::mt19937_64& rng, unsigned n) {
  Function f;
  f.n = n;
  const std::uint64_t on_pct = rng() % 101;
  const std::uint64_t dc_pct = rng() % (101 - on_pct);
  for (std::uint32_t m = 0; m < (1u << n); ++m) {
    const std::uint64_t r = rng() % 100;
    if (r < on_pct)
      f.ones.push_back(m);
    else if (r < on_pct + dc_pct)
      f.dontcares.push_back(m);
  }
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

TEST(QmDiff, DenseFunctionsGetTheOraclesCover) {
  std::mt19937_64 rng(28);
  for (int trial = 0; trial < 40; ++trial) {
    const Function f = dense_function(rng, 7 + trial % 4);
    const std::vector<Cube> got = minimize(f.n, f.ones, f.dontcares);
    const std::vector<Cube> want = reference_minimize(f.n, f.ones, f.dontcares);
    ASSERT_EQ(got, want) << "trial " << trial << " n=" << f.n << "\n  got  "
                         << render(got, f.n) << "\n  want "
                         << render(want, f.n);
  }
}

TEST(QmDiff, DenseTwelveVariableFunctionIsCovered) {
  // Twelve variables is the minimizer's cap and past the oracle's reach.
  std::mt19937_64 rng(12);
  for (int trial = 0; trial < 4; ++trial) {
    const Function f = dense_function(rng, 12);
    const std::vector<Cube> cover = minimize(f.n, f.ones, f.dontcares);
    EXPECT_TRUE(cover_matches(f.n, cover, f.ones, f.dontcares))
        << "trial " << trial;
  }
}

TEST(QmDiff, ThirteenVariablesFailWithTheOraclesMessage) {
  std::string want;
  try {
    reference_minimize(21, {0});
  } catch (const std::invalid_argument& e) {
    want = e.what();
  }
  ASSERT_FALSE(want.empty());
  try {
    minimize(13, {0});
    ADD_FAILURE() << "minimize(13, ...) did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), want);
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

void expect_code_fsm_matches(const std::vector<CodeLeaf>& leaves) {
  const CodeSynthResult got = synthesize_code_fsm(leaves, 3);
  const CodeSynthResult want = reference_synthesize_code_fsm(leaves, 3);
  std::string where = "code";
  for (const CodeLeaf& leaf : leaves) {
    where += ' ';
    where += leaf.word.to_string();
  }
  EXPECT_EQ(got.total_states, want.total_states) << where;
  EXPECT_EQ(got.total_gate_equivalents(), want.total_gate_equivalents())
      << where;
  expect_same_outputs(got.outputs, want.outputs, where);
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
    expect_code_fsm_matches(leaves_for_table(table));
  }
}

TEST(QmDiff, LongCodeFsmsMatchTheOracle) {
  // Nine random prefix-free codewords of up to 31 bits, the longest a
  // codeword may be. A canonical table shares most prefixes; these share
  // few, so the trie passes 128 states: 10 FSM inputs. (All nine at 31
  // bits reach 261 states and 11 inputs, but the oracle takes 15-20 s on
  // each such FSM.)
  std::mt19937_64 rng(31);
  std::size_t max_inputs = 0;
  for (int code = 0; code < 2; ++code) {
    std::vector<CodeLeaf> leaves;
    while (leaves.size() < codec::kNumClasses) {
      CodeLeaf leaf;
      leaf.word.length = 1 + static_cast<unsigned>(rng() % 31);
      leaf.word.bits = static_cast<std::uint32_t>(rng()) &
                       ((std::uint32_t{1} << leaf.word.length) - 1);
      leaf.plan_a = static_cast<unsigned>(rng() % 3);
      leaf.plan_b = static_cast<unsigned>(rng() % 3);
      const bool prefix_free = std::none_of(
          leaves.begin(), leaves.end(), [&](const CodeLeaf& other) {
            const codec::Codeword& a = other.word;
            const codec::Codeword& b = leaf.word;
            return a.length <= b.length
                       ? b.bits >> (b.length - a.length) == a.bits
                       : a.bits >> (a.length - b.length) == b.bits;
          });
      if (prefix_free) leaves.push_back(leaf);
    }
    expect_code_fsm_matches(leaves);
    max_inputs =
        std::max(max_inputs, synthesize_code_fsm(leaves, 3).state_bits + 2);
  }
  EXPECT_EQ(max_inputs, 10u);
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
