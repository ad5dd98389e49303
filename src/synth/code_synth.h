// Decoder-FSM synthesis for an ARBITRARY prefix code.
//
// Fig. 2's controller generalizes: recognition states are the internal
// nodes of the codeword trie, followed by the two half-streaming states and
// the Ack state; the latched "plan" selects, per half, a fill pattern or
// the pass-through-data path. This module walks that FSM -- the
// codec::DecoderSpec the cycle model runs -- over every (state, data, done)
// input and minimizes every next-state/output function with
// Quine-McCluskey. That reproduces the paper's claim that the controller is
// a handful of gates, independent of K and of the test set; it is how the
// ablation bench prices the "more codewords => more expensive decoder"
// trade-off, and how the tuner costs every candidate code in gates.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "codec/codeword_table.h"
#include "codec/decoder_spec.h"
#include "synth/qm.h"

namespace nc::synth {

/// One codeword and what the decoder must do once it is recognized.
/// `plan_a` / `plan_b` select a fill pattern (0 .. plan_symbols-2) or the
/// data path (plan_symbols-1) for the left / right half.
using codec::CodeLeaf;

/// The leaves of a 9C codeword table (plans: 0-fill, 1-fill, data;
/// plan_symbols = 3).
using codec::leaves_for_table;

/// Cost of one synthesized combinational output (next-state bit or control
/// signal) of the decoder FSM.
struct FsmOutputCost {
  std::string name;
  std::vector<Cube> cover;
  SopCost cost;
};

struct CodeSynthResult {
  std::size_t recognition_states = 0;  // internal trie nodes
  std::size_t total_states = 0;        // + HalfA, HalfB, Ack
  std::size_t state_bits = 0;
  std::size_t plan_bits = 0;           // per half
  /// next_state bits, latch_plan, plan_a bits, plan_b bits, ack; over the
  /// inputs (state[state_bits-1:0], data_bit, done).
  std::vector<FsmOutputCost> outputs;
  std::size_t combinational_gates() const noexcept;
  /// Combinational gates plus registers (one DFF ~ 6 gate equivalents, the
  /// usual standard-cell rule of thumb).
  std::size_t total_gate_equivalents() const noexcept {
    return combinational_gates() + 6 * state_bits;
  }
};

/// Synthesizes the decoder FSM for `leaves` (must form a prefix-free code).
/// `plan_symbols` is the number of distinct half plans (fill patterns + 1
/// for the data path). Unused state codes are don't-cares, and so are the
/// plan outputs on every input that does not latch. Throws
/// std::invalid_argument on an empty, prefix-violating, or oversized
/// (> 2^10 states) code.
CodeSynthResult synthesize_code_fsm(const std::vector<CodeLeaf>& leaves,
                                    unsigned plan_symbols);

/// Gate-equivalent estimate of a complete single-scan decoder whose
/// controller costs `fsm_gates`, for block size K = `k` with a left half of
/// `split` symbols (0 means K/2): a counter over the wider half (~8 GE per
/// toggle bit plus a comparator bit), a shifter as wide as that half (~6 GE
/// per flop) and the output MUX (~3 GE). K and the split size only the
/// datapath.
std::size_t decoder_gate_estimate(std::size_t fsm_gates, std::size_t k,
                                  std::size_t split = 0) noexcept;

}  // namespace nc::synth
