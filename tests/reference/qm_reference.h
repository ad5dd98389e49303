// The std::set Quine-McCluskey minimizer, and the two FSM synthesizers
// driving it: the oracle that synth::minimize and synthesize_code_fsm are
// held to, cube for cube (qm_diff_test). It
// compares every pair of cubes at each merge level, so it is quadratic in
// the cube count, and it synthesizes no decoder outside the tests.
#pragma once

#include <cstdint>
#include <vector>

#include "synth/code_synth.h"
#include "synth/qm.h"

namespace nc::synth {

/// minimize over std::set: the same cover, cube for cube and in the same
/// order, and the same exceptions.
std::vector<Cube> reference_minimize(
    unsigned n, const std::vector<std::uint32_t>& ones,
    const std::vector<std::uint32_t>& dontcares = {});

/// synthesize_code_fsm with its own codeword trie and every output function
/// minimized by reference_minimize.
CodeSynthResult reference_synthesize_code_fsm(
    const std::vector<CodeLeaf>& leaves, unsigned plan_symbols);
/// The hand-written Fig. 2 FSM (decomp::fsm_step) synthesized the same
/// way: state[3:0], data_bit and done in, the outputs of
/// synthesize_code_fsm out.
CodeSynthResult reference_synthesize_decoder_fsm();

}  // namespace nc::synth
