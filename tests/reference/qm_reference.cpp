#include "reference/qm_reference.h"

#include <algorithm>
#include <array>
#include <bit>
#include <set>
#include <stdexcept>
#include <string>

#include "reference/decoder_reference.h"

namespace nc::synth {

std::vector<Cube> reference_minimize(
    unsigned n, const std::vector<std::uint32_t>& ones,
    const std::vector<std::uint32_t>& dontcares) {
  if (n > 20) throw std::invalid_argument("too many variables for QM");
  const std::uint32_t limit = n == 32 ? ~0u : (1u << n);
  const std::uint32_t full_mask = n == 32 ? ~0u : (1u << n) - 1;

  std::set<std::uint32_t> on(ones.begin(), ones.end());
  std::set<std::uint32_t> dc(dontcares.begin(), dontcares.end());
  for (std::uint32_t m : on) {
    if (m >= limit) throw std::invalid_argument("minterm out of range");
    if (dc.count(m))
      throw std::invalid_argument("minterm is both ON and DC");
  }
  for (std::uint32_t m : dc)
    if (m >= limit) throw std::invalid_argument("minterm out of range");
  if (on.empty()) return {};

  // Iterative combining: cubes as (value, mask); two cubes merge when masks
  // match and values differ in exactly one masked bit.
  std::set<std::pair<std::uint32_t, std::uint32_t>> current;
  for (std::uint32_t m : on) current.insert({m, full_mask});
  for (std::uint32_t m : dc) current.insert({m, full_mask});

  std::vector<Cube> primes;
  while (!current.empty()) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> next;
    std::set<std::pair<std::uint32_t, std::uint32_t>> combined;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> list(current.begin(),
                                                              current.end());
    for (std::size_t i = 0; i < list.size(); ++i) {
      for (std::size_t j = i + 1; j < list.size(); ++j) {
        if (list[i].second != list[j].second) continue;
        const std::uint32_t diff = list[i].first ^ list[j].first;
        if (std::popcount(diff) != 1) continue;
        next.insert({list[i].first & ~diff, list[i].second & ~diff});
        combined.insert(list[i]);
        combined.insert(list[j]);
      }
    }
    for (const auto& c : list)
      if (!combined.count(c)) primes.push_back(Cube{c.first, c.second});
    current = std::move(next);
  }

  // Greedy cover of the ON-set by primes (essential primes fall out first
  // because they are the unique cover of some minterm).
  std::vector<std::uint32_t> uncovered(on.begin(), on.end());
  std::vector<Cube> cover;
  // Essential primes.
  for (std::uint32_t m : on) {
    const Cube* only = nullptr;
    for (const Cube& p : primes) {
      if (!p.covers(m)) continue;
      if (only != nullptr) { only = nullptr; break; }
      only = &p;
    }
    if (only != nullptr &&
        std::find(cover.begin(), cover.end(), *only) == cover.end())
      cover.push_back(*only);
  }
  auto erase_covered = [&] {
    uncovered.erase(std::remove_if(uncovered.begin(), uncovered.end(),
                                   [&](std::uint32_t m) {
                                     for (const Cube& c : cover)
                                       if (c.covers(m)) return true;
                                     return false;
                                   }),
                    uncovered.end());
  };
  erase_covered();
  while (!uncovered.empty()) {
    // Pick the prime covering the most uncovered minterms (ties: fewer
    // literals).
    const Cube* best = nullptr;
    std::size_t best_count = 0;
    for (const Cube& p : primes) {
      std::size_t cnt = 0;
      for (std::uint32_t m : uncovered) cnt += p.covers(m) ? 1 : 0;
      if (cnt > best_count ||
          (cnt == best_count && cnt > 0 && best != nullptr &&
           p.literal_count() < best->literal_count())) {
        best = &p;
        best_count = cnt;
      }
    }
    cover.push_back(*best);
    erase_covered();
  }
  return cover;
}

namespace {

FsmOutputCost reference_output(const std::string& name, unsigned inputs,
                               const std::vector<std::uint32_t>& on,
                               const std::vector<std::uint32_t>& dc) {
  FsmOutputCost oc;
  oc.name = name;
  oc.cover = reference_minimize(inputs, on, dc);
  oc.cost = sop_cost(oc.cover);
  return oc;
}

}  // namespace

CodeSynthResult reference_synthesize_code_fsm(
    const std::vector<CodeLeaf>& leaves, unsigned plan_symbols) {
  if (leaves.empty()) throw std::invalid_argument("empty code");
  if (plan_symbols < 2)
    throw std::invalid_argument("need at least one fill plan plus data");

  // Codeword trie: node 0 is the root; a child is 0 when absent, a node
  // index when > 0, and ~leaf when < 0.
  std::vector<std::array<int, 2>> nodes(1, {0, 0});
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    const codec::Codeword& w = leaves[l].word;
    std::size_t at = 0;
    for (unsigned i = w.length; i-- > 0;) {
      const unsigned bit = (w.bits >> i) & 1u;
      const int slot = nodes[at][bit];
      if (i == 0) {
        if (slot != 0)
          throw std::invalid_argument("codeword set is not prefix-free");
        nodes[at][bit] = ~static_cast<int>(l);
      } else if (slot < 0) {
        throw std::invalid_argument("codeword set is not prefix-free");
      } else if (slot == 0) {
        nodes[at][bit] = static_cast<int>(nodes.size());
        at = nodes.size();
        nodes.push_back({0, 0});
      } else {
        at = static_cast<std::size_t>(slot);
      }
    }
  }

  CodeSynthResult result;
  result.recognition_states = nodes.size();
  result.total_states = nodes.size() + 3;  // HalfA, HalfB, Ack
  if (result.total_states > 1024)
    throw std::invalid_argument("code too large to synthesize");
  while ((std::size_t{1} << result.state_bits) < result.total_states)
    ++result.state_bits;
  while ((1u << result.plan_bits) < plan_symbols) ++result.plan_bits;
  if (result.plan_bits == 0) result.plan_bits = 1;

  const unsigned r = static_cast<unsigned>(result.recognition_states);
  const unsigned half_a = r, half_b = r + 1, ack = r + 2;
  const unsigned inputs = static_cast<unsigned>(result.state_bits) + 2;
  const std::size_t n_next = result.state_bits;
  const std::size_t n_plan = result.plan_bits;
  std::vector<std::vector<std::uint32_t>> ones(n_next + 1 + 2 * n_plan + 1);
  std::vector<std::uint32_t> dontcares;
  std::vector<std::uint32_t> plan_dc;

  for (std::uint32_t in = 0; in < (1u << inputs); ++in) {
    const unsigned state = in & ((1u << result.state_bits) - 1);
    const bool data_bit = (in >> result.state_bits) & 1u;
    const bool done = (in >> (result.state_bits + 1)) & 1u;
    if (state > ack) {
      dontcares.push_back(in);
      plan_dc.push_back(in);
      continue;
    }
    unsigned next;
    bool latch = false, is_ack = false;
    unsigned plan_a = 0, plan_b = 0;
    if (state < r) {
      const int slot = nodes[state][data_bit ? 1 : 0];
      if (slot < 0) {
        const CodeLeaf& leaf = leaves[static_cast<std::size_t>(~slot)];
        next = half_a;
        latch = true;
        plan_a = leaf.plan_a;
        plan_b = leaf.plan_b;
      } else {
        next = slot == 0 ? 0u : static_cast<unsigned>(slot);
      }
    } else if (state == half_a) {
      next = done ? half_b : half_a;
    } else if (state == half_b) {
      next = done ? ack : half_b;
    } else {
      next = 0;
      is_ack = true;
    }
    for (std::size_t b = 0; b < n_next; ++b)
      if ((next >> b) & 1u) ones[b].push_back(in);
    if (latch) {
      ones[n_next].push_back(in);
      for (std::size_t b = 0; b < n_plan; ++b) {
        if ((plan_a >> b) & 1u) ones[n_next + 1 + b].push_back(in);
        if ((plan_b >> b) & 1u) ones[n_next + 1 + n_plan + b].push_back(in);
      }
    } else {
      plan_dc.push_back(in);
    }
    if (is_ack) ones[n_next + 1 + 2 * n_plan].push_back(in);
  }

  for (std::size_t b = 0; b < n_next; ++b)
    result.outputs.push_back(reference_output(
        "next_state" + std::to_string(b), inputs, ones[b], dontcares));
  result.outputs.push_back(
      reference_output("latch_plan", inputs, ones[n_next], dontcares));
  for (std::size_t b = 0; b < n_plan; ++b)
    result.outputs.push_back(reference_output(
        "plan_a" + std::to_string(b), inputs, ones[n_next + 1 + b], plan_dc));
  for (std::size_t b = 0; b < n_plan; ++b)
    result.outputs.push_back(
        reference_output("plan_b" + std::to_string(b), inputs,
                         ones[n_next + 1 + n_plan + b], plan_dc));
  result.outputs.push_back(reference_output(
      "ack", inputs, ones[n_next + 1 + 2 * n_plan], dontcares));
  return result;
}

CodeSynthResult reference_synthesize_decoder_fsm() {
  // Inputs: [3:0] state code, [4] data_bit, [5] done.
  constexpr unsigned kInputs = 6;
  const char* const names[] = {"next_state0", "next_state1", "next_state2",
                               "next_state3", "latch_plan",  "plan_a0",
                               "plan_a1",     "plan_b0",     "plan_b1",
                               "ack"};
  std::vector<std::vector<std::uint32_t>> ones(10);
  std::vector<std::uint32_t> dontcares;
  for (std::uint32_t in = 0; in < (1u << kInputs); ++in) {
    const unsigned state_code = in & 0xF;
    if (state_code >= decomp::kFsmStateCount) {
      dontcares.push_back(in);
      continue;
    }
    const decomp::FsmStep step = decomp::fsm_step(
        static_cast<decomp::FsmState>(state_code), (in >> 4) & 1u,
        (in >> 5) & 1u);
    const unsigned next = static_cast<unsigned>(step.next);
    for (unsigned b = 0; b < 4; ++b)
      if ((next >> b) & 1u) ones[b].push_back(in);
    const unsigned pa = static_cast<unsigned>(step.plan_a);
    const unsigned pb = static_cast<unsigned>(step.plan_b);
    if (step.recognized) {
      ones[4].push_back(in);
      if (pa & 1u) ones[5].push_back(in);
      if (pa & 2u) ones[6].push_back(in);
      if (pb & 1u) ones[7].push_back(in);
      if (pb & 2u) ones[8].push_back(in);
    }
    if (step.ack) ones[9].push_back(in);
  }
  // Plan outputs are don't-care wherever latch_plan is low: the unused
  // state codes first, then the used inputs that do not latch.
  std::vector<std::uint32_t> plan_dc = dontcares;
  for (std::uint32_t in = 0; in < (1u << kInputs); ++in)
    if ((in & 0xF) < decomp::kFsmStateCount &&
        !std::binary_search(ones[4].begin(), ones[4].end(), in))
      plan_dc.push_back(in);

  CodeSynthResult result;
  result.recognition_states = 8;
  result.total_states = decomp::kFsmStateCount;
  result.state_bits = 4;
  result.plan_bits = 2;
  for (std::size_t i = 0; i < ones.size(); ++i)
    result.outputs.push_back(reference_output(
        names[i], kInputs, ones[i], i >= 5 && i <= 8 ? plan_dc : dontcares));
  return result;
}

}  // namespace nc::synth
