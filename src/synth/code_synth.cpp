#include "synth/code_synth.h"

#include <algorithm>
#include <stdexcept>

namespace nc::synth {

std::size_t CodeSynthResult::combinational_gates() const noexcept {
  std::size_t g = 0;
  for (const FsmOutputCost& o : outputs) g += o.cost.gate_equivalents();
  return g;
}

CodeSynthResult synthesize_code_fsm(const std::vector<CodeLeaf>& leaves,
                                    unsigned plan_symbols) {
  if (leaves.empty()) throw std::invalid_argument("empty code");
  if (plan_symbols < 2)
    throw std::invalid_argument("need at least one fill plan plus data");

  // The controller alone: the half lengths belong to the counter.
  const codec::DecoderSpec spec(leaves, 0, 0);

  CodeSynthResult result;
  result.recognition_states = spec.recognition_states();
  result.total_states = spec.state_count();
  if (result.total_states > 1024)
    throw std::invalid_argument("code too large to synthesize");
  while ((std::size_t{1} << result.state_bits) < result.total_states)
    ++result.state_bits;
  while ((1u << result.plan_bits) < plan_symbols) ++result.plan_bits;
  if (result.plan_bits == 0) result.plan_bits = 1;

  // State codes are the spec's: [0, R) recognition (trie node index),
  // R = HalfA, R+1 = HalfB, R+2 = Ack.
  const unsigned inputs =
      static_cast<unsigned>(result.state_bits) + 2;  // + data, done
  const std::uint32_t input_count = 1u << inputs;

  // Output functions: next_state bits, latch, plan_a bits, plan_b bits, ack.
  const std::size_t n_next = result.state_bits;
  const std::size_t n_plan = result.plan_bits;
  std::vector<std::vector<std::uint32_t>> ones(n_next + 1 + 2 * n_plan + 1);
  std::vector<std::uint32_t> dontcares;
  std::vector<std::uint32_t> plan_dc;

  for (std::uint32_t in = 0; in < input_count; ++in) {
    const unsigned state = in & ((1u << result.state_bits) - 1);
    const bool data_bit = (in >> result.state_bits) & 1u;
    const bool done = (in >> (result.state_bits + 1)) & 1u;
    if (state >= spec.state_count()) {
      dontcares.push_back(in);
      plan_dc.push_back(in);
      continue;
    }

    // An absent edge (a code with Kraft slack) parks in the root.
    const codec::DecoderSpec::Step step = spec.step(state, data_bit, done);
    for (std::size_t b = 0; b < n_next; ++b)
      if ((step.next >> b) & 1u) ones[b].push_back(in);
    if (step.leaf != codec::DecoderSpec::kNoLeaf) {
      const CodeLeaf& leaf = spec.leaves()[step.leaf];
      ones[n_next].push_back(in);
      for (std::size_t b = 0; b < n_plan; ++b) {
        if ((leaf.plan_a >> b) & 1u) ones[n_next + 1 + b].push_back(in);
        if ((leaf.plan_b >> b) & 1u)
          ones[n_next + 1 + n_plan + b].push_back(in);
      }
    } else {
      plan_dc.push_back(in);  // plan outputs matter only while latching
    }
    if (step.ack) ones[n_next + 1 + 2 * n_plan].push_back(in);
  }

  auto add_output = [&](const std::string& name,
                        const std::vector<std::uint32_t>& on, bool plan) {
    FsmOutputCost oc;
    oc.name = name;
    oc.cover = minimize(inputs, on, plan ? plan_dc : dontcares);
    oc.cost = sop_cost(oc.cover);
    result.outputs.push_back(std::move(oc));
  };
  for (std::size_t b = 0; b < n_next; ++b)
    add_output("next_state" + std::to_string(b), ones[b], false);
  add_output("latch_plan", ones[n_next], false);
  for (std::size_t b = 0; b < n_plan; ++b)
    add_output("plan_a" + std::to_string(b), ones[n_next + 1 + b], true);
  for (std::size_t b = 0; b < n_plan; ++b)
    add_output("plan_b" + std::to_string(b), ones[n_next + 1 + n_plan + b],
               true);
  add_output("ack", ones[n_next + 1 + 2 * n_plan], false);
  return result;
}

std::size_t decoder_gate_estimate(std::size_t fsm_gates, std::size_t k,
                                  std::size_t split) noexcept {
  const std::size_t left = split == 0 ? k / 2 : split;
  const std::size_t widest = std::max(left, k - left);
  std::size_t counter_bits = 0;
  while ((std::size_t{1} << counter_bits) < widest) ++counter_bits;
  if (counter_bits == 0) counter_bits = 1;
  const std::size_t counter = counter_bits * 8 + counter_bits;
  const std::size_t shifter = widest * 6;
  return fsm_gates + counter + shifter + 3;
}

}  // namespace nc::synth
