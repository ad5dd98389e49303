// One description of the 9C on-chip decoder (Figs. 1-2): the controller's
// codeword-recognition trie, the two half plans each codeword latches, the
// two half lengths the counter walks, and the controller's transition
// function. The cycle model (decomp::SingleScanDecoder), the two-level
// synthesis that prices the controller (synth::synthesize_code_fsm) and the
// Verilog emitter (rtl) all walk this one spec, so the decoder that runs is
// the decoder that is priced and emitted. Table VII's frequency-directed
// code, or a tuned one, only rewires the trie.
//
// States: recognition states 0 .. R-1 are the trie's internal nodes in
// insertion order (0 is the root, the Idle state), then HalfA = R,
// HalfB = R+1 and Ack = R+2. For the paper's table R = 8 and the numbering
// is Fig. 2's: Idle, "1", "11", "110", "1101", "111", "1110", "1111".
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "codec/codeword_table.h"

namespace nc::codec {

/// One codeword of a decoder and the plans its block's halves are driven
/// with. A 9C code uses kPlanFill0/kPlanFill1/kPlanData (half_plans); a
/// larger code may number more fill plans, with its data plan last.
struct CodeLeaf {
  Codeword word;
  unsigned plan_a = 0;  // left half
  unsigned plan_b = 0;  // right half
};

/// The leaves of a 9C table: C1..C9 in class order, with half_plans.
std::vector<CodeLeaf> leaves_for_table(const CodewordTable& table);

class DecoderSpec {
 public:
  static constexpr std::uint32_t kNoLeaf = ~std::uint32_t{0};

  /// One transition of the controller.
  struct Step {
    std::uint32_t next = 0;
    /// The leaf recognized on this step, whose plans latch; kNoLeaf if none.
    std::uint32_t leaf = kNoLeaf;
    /// The bit left the trie through an absent edge, which only a code with
    /// Kraft slack has; `next` is the root. Hardware parks there; the cycle
    /// model reports an invalid codeword.
    bool invalid = false;
    bool ack = false;  // the Ack cycle: the ATE may send the next codeword
  };

  /// The decoder of the prefix-free code `leaves` (std::invalid_argument if
  /// it is not prefix-free) with halves of `left` and `right` symbols. The
  /// controller alone, as synthesis prices it, does not read the lengths.
  DecoderSpec(std::vector<CodeLeaf> leaves, std::size_t left,
              std::size_t right);

  /// The 9C decoder of `table` for K = `k` with a left half of `split`
  /// symbols (in [1, K-1]) and a right half of K - `split`.
  DecoderSpec(const CodewordTable& table, std::size_t k, std::size_t split);

  std::uint32_t recognition_states() const noexcept {
    return static_cast<std::uint32_t>(edges_.size());
  }
  std::uint32_t half_a() const noexcept { return recognition_states(); }
  std::uint32_t half_b() const noexcept { return half_a() + 1; }
  std::uint32_t ack() const noexcept { return half_a() + 2; }
  std::uint32_t state_count() const noexcept { return half_a() + 3; }

  const std::vector<CodeLeaf>& leaves() const noexcept { return leaves_; }
  std::size_t left() const noexcept { return left_; }
  std::size_t right() const noexcept { return right_; }

  /// The transition function, for `state` < state_count(). A recognition
  /// state consumes the ATE bit `data_bit`: it moves down the trie, or
  /// latches a leaf and enters HalfA. HalfA and HalfB wait for the
  /// counter's terminal count `done`; Ack returns to the root.
  Step step(std::uint32_t state, bool data_bit, bool done) const noexcept;

 private:
  /// Where a recognition state goes on one input bit.
  struct Edge {
    enum class Kind : unsigned char { kAbsent, kState, kLeaf };
    Kind kind = Kind::kAbsent;
    std::uint32_t index = 0;  // the next recognition state, or the leaf
  };

  std::vector<CodeLeaf> leaves_;
  std::size_t left_;
  std::size_t right_;
  std::vector<std::array<Edge, 2>> edges_;  // per recognition state, per bit
};

}  // namespace nc::codec
