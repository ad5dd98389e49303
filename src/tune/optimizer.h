// The seeded evolutionary loop over TuneGenomes.
//
// Classic (mu + lambda) elitism a la Polian et al.: the population is
// ranked by scalar fitness, the top slice survives unchanged, and the rest
// is rebuilt by crossover + mutation of elite parents. Three properties are
// contractual (DESIGN.md section 16):
//  * Seeded determinism -- every random draw comes from a per-candidate
//    std::mt19937_64 seeded mix64(seed ^ mix64(generation << 32 | slot)),
//    so two runs with the same (TestSet, config) are bit-identical.
//  * Jobs-invariance -- fitness evaluation fans out on a ThreadPool via
//    core::parallel_map (order-preserving) and ranking ties break on the
//    lower population index, so --jobs changes wall time, never the result.
//  * Baseline dominance -- slot 0 of generation 0 is the paper's standard
//    genome and slot 1 the frequency-directed reassignment for this TD;
//    elitism guarantees the winner scores at least as well as both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tune/fitness.h"
#include "tune/genome.h"

namespace nc::tune {

struct TuneConfig {
  std::uint64_t seed = 1;
  std::size_t generations = 10;
  std::size_t population = 24;
  /// Worker threads for fitness evaluation (result-invariant).
  std::size_t jobs = 1;
  TuneWeights weights;

  /// Mutation bounds. K stays in [k_min, k_max]; codeword lengths in
  /// [1, max_len] (the decoder FSM grows with the trie, so cap it);
  /// baseline_k seeds the standard/frequency-directed genomes.
  std::size_t k_min = 4;
  std::size_t k_max = 32;
  std::size_t baseline_k = 8;
  unsigned max_len = 8;
  /// Search asymmetric half splits (off = always K/2).
  bool tune_split = true;
  /// Search X-fill policies (off = keep X alive, the paper's default).
  bool tune_fill = true;
};

/// One generation's summary, in order; the score trace of the run.
struct GenerationTrace {
  std::size_t generation = 0;
  double best_score = 0.0;
  double mean_valid_score = 0.0;
  std::size_t invalid = 0;  // candidates rejected this generation
};

struct TuneResult {
  TuneGenome best;
  FitnessReport best_report;
  /// The two seeded baselines, scored with the same evaluator.
  FitnessReport standard_report;
  FitnessReport frequency_directed_report;
  TuneGenome frequency_directed;
  std::vector<GenerationTrace> trace;
  std::size_t evaluations = 0;
  std::size_t invalid_genomes = 0;
};

/// Runs the loop. Throws std::invalid_argument on a degenerate config
/// (population < 2, generations == 0, jobs == 0, empty TD).
TuneResult run_tune(const bits::TestSet& td, const TuneConfig& config);

}  // namespace nc::tune
