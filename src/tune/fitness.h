// Fitness of one genome on one workload: the real encoder's block-class
// histogram, the real TAT model, the real synthesized decoder cost.
//
// Nothing in here estimates. The production NineCoded coder classifies the
// (filled) test set once per (fill, fill seed, K, split); a block's class
// depends on nothing else, so every candidate that shares those four is
// priced from the same histogram: |TE| = sum N_i * (|C_i| + payload_i), the
// exact size its encoder would emit (codec::encoded_bits). TAT comes from
// decomp's cycle accounting over the same counts, and the decoder
// controller is synthesized gate-by-gate with synth::code_synth (trie FSM +
// Quine-McCluskey) for the hardware price. The three axes combine under a
// weight vector into one scalar score; an invalid genome (Kraft violation,
// bad K/split, oversized FSM) scores -infinity and is counted, not
// repaired -- the optimizer's selection pressure does the repairing.
#pragma once

#include <cstddef>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>

#include "bits/test_set.h"
#include "tune/genome.h"

namespace nc::tune {

/// The scalarization. Score = cr * CR% + tat * TAT% - gates * FSM gate
/// equivalents. CR and TAT are percentages (bigger is better); gates is an
/// absolute count (smaller is better), so its weight is a price per gate in
/// "CR points".
struct TuneWeights {
  double cr = 1.0;
  double tat = 0.25;
  double gates = 0.05;
  /// ATE:SoC clock ratio for the TAT model (paper Table V uses 8).
  unsigned p = 8;

  bool operator==(const TuneWeights&) const = default;
};

struct FitnessReport {
  bool valid = false;
  double cr_percent = 0.0;
  double tat_percent = 0.0;
  std::size_t fsm_gates = 0;       // synthesized controller, gate equivalents
  std::size_t datapath_gates = 0;  // + counter/shifter estimate (reported)
  std::size_t encoded_bits = 0;
  double score = -std::numeric_limits<double>::infinity();
};

/// Evaluates genomes against one TestSet. Thread-safe: the optimizer calls
/// evaluate() from every pool worker. Three pure functions are memoized
/// under one mutex: the filled TD stream of a (fill, seed), the encoder's
/// statistics of a (fill, seed, K, resolved split), and the synthesized FSM
/// cost of a length assignment.
class FitnessEvaluator {
 public:
  FitnessEvaluator(const bits::TestSet& td, TuneWeights weights);

  /// Never throws for an invalid genome: returns report.valid = false with
  /// score -infinity.
  FitnessReport evaluate(const TuneGenome& genome) const;

  const TuneWeights& weights() const noexcept { return weights_; }

 private:
  const bits::TritVector& filled_stream(const TuneGenome& genome) const;
  codec::NineCodedStats class_stats(const TuneGenome& genome,
                                    const codec::NineCoded& coder) const;
  std::size_t fsm_cost(const std::array<unsigned, codec::kNumClasses>& lengths,
                       const codec::CodewordTable& table) const;

  bits::TestSet td_;
  TuneWeights weights_;

  mutable std::mutex mutex_;
  mutable std::map<std::pair<unsigned, std::uint64_t>, bits::TritVector>
      fill_memo_;
  // (fill, fill seed, K, resolved split) -> the encoder's statistics.
  mutable std::map<
      std::tuple<unsigned, std::uint64_t, std::size_t, std::size_t>,
      codec::NineCodedStats>
      stats_memo_;
  mutable std::map<std::string, std::size_t> fsm_memo_;
};

}  // namespace nc::tune
