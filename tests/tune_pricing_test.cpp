// Differential test of histogram pricing (DESIGN.md section 16.2):
// FitnessEvaluator::evaluate classifies each (fill, fill seed, K, split)
// once and prices every candidate from that class histogram. The oracle
// below re-encodes the filled test set for every candidate and takes |TE|
// from the emitted stream. Both must agree on every report field, doubles
// bit for bit, with one evaluator shared by four pool workers.
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/parallel.h"
#include "core/thread_pool.h"
#include "decomp/timing.h"
#include "gen/cube_gen.h"
#include "synth/code_synth.h"
#include "tune/fitness.h"
#include "tune/genome.h"

namespace nc::tune {
namespace {

bits::TestSet workload() {
  gen::CubeGenConfig cfg;
  cfg.patterns = 20;
  cfg.width = 97;  // 1940 trits: most K leave a last block to pad
  cfg.x_fraction = 0.7;
  cfg.seed = 5;
  return gen::generate_cubes(cfg);
}

/// Fitness by re-encoding: the filled test set through the production
/// encoder for this candidate, |TE| from the stream it emits, and the
/// decoder FSM synthesized afresh.
FitnessReport reencode_oracle(const bits::TestSet& td,
                              const TuneWeights& weights,
                              const TuneGenome& genome) {
  FitnessReport report;
  try {
    const codec::NineCoded coder = genome.make_coder();
    bits::TritVector te;
    codec::NineCodedStats stats =
        coder.analyze(genome.apply_fill(td).flatten(), &te);
    stats.encoded_bits = te.size();
    report.cr_percent = stats.compression_ratio();
    report.tat_percent = decomp::tat_percent(stats, coder.table(), weights.p);
    report.fsm_gates =
        synth::synthesize_code_fsm(synth::leaves_for_table(coder.table()), 3)
            .total_gate_equivalents();
    report.datapath_gates = synth::decoder_gate_estimate(
        report.fsm_gates, genome.k, genome.split);
    report.encoded_bits = stats.encoded_bits;
    report.score = weights.cr * report.cr_percent +
                   weights.tat * report.tat_percent -
                   weights.gates * static_cast<double>(report.fsm_gates);
    report.valid = true;
  } catch (const std::invalid_argument&) {
    report = FitnessReport{};
  }
  return report;
}

std::size_t draw(std::mt19937_64& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(rng() % (hi - lo + 1));
}

/// A random genome. Most satisfy Kraft with lengths up to 9; some break
/// Kraft or leave [1, 31]; K runs up to 64 with split 0, an explicit K/2,
/// any explicit split (odd K too), and invalid K/split pairs.
TuneGenome random_genome(std::mt19937_64& rng) {
  TuneGenome g;
  g.fill = static_cast<FillPolicy>(rng() % kNumFillPolicies);
  g.fill_seed = draw(rng, 1, 4);

  const std::size_t shape = rng() % 10;
  if (shape < 3) {  // the paper's symmetric halves
    g.k = 2 * draw(rng, 1, 32);
    g.split = 0;
  } else if (shape < 5) {  // the same halves, split spelled out
    g.k = 2 * draw(rng, 1, 32);
    g.split = g.k / 2;
  } else if (shape < 9) {  // any split, odd K included
    g.k = draw(rng, 2, 64);
    g.split = draw(rng, 1, g.k - 1);
  } else {  // invalid: K < 2, odd K with split 0, or split >= K
    switch (rng() % 3) {
      case 0: g.k = draw(rng, 0, 1); g.split = 0; break;
      case 1: g.k = 2 * draw(rng, 1, 31) + 1; g.split = 0; break;
      default: g.k = draw(rng, 2, 64); g.split = draw(rng, g.k, g.k + 3);
    }
  }

  const std::size_t lengths = rng() % 10;
  if (lengths < 7) {  // valid: redraw until Kraft holds
    do {
      for (unsigned& len : g.lengths)
        len = static_cast<unsigned>(draw(rng, 1, 9));
      try {
        codec::CodewordTable::from_lengths(g.lengths);
        break;
      } catch (const codec::CodeSpecError&) {
      }
    } while (true);
  } else if (lengths < 9) {  // Kraft violation
    for (unsigned& len : g.lengths)
      len = static_cast<unsigned>(draw(rng, 1, 3));
  } else {  // a length outside [1, 31]
    g.lengths[rng() % codec::kNumClasses] = rng() % 2 == 0 ? 0u : 32u;
  }
  return g;
}

void expect_same_report(const FitnessReport& got, const FitnessReport& want,
                        const TuneGenome& g) {
  const std::string where = g.to_json();
  EXPECT_EQ(got.valid, want.valid) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cr_percent),
            std::bit_cast<std::uint64_t>(want.cr_percent))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.tat_percent),
            std::bit_cast<std::uint64_t>(want.tat_percent))
      << where;
  EXPECT_EQ(got.fsm_gates, want.fsm_gates) << where;
  EXPECT_EQ(got.datapath_gates, want.datapath_gates) << where;
  EXPECT_EQ(got.encoded_bits, want.encoded_bits) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.score),
            std::bit_cast<std::uint64_t>(want.score))
      << where;
}

TEST(TunePricing, HistogramPricingMatchesReencodingOnSharedEvaluator) {
  const bits::TestSet td = workload();
  const TuneWeights weights;
  std::mt19937_64 rng(24);
  std::vector<TuneGenome> genomes;
  for (int i = 0; i < 600; ++i) genomes.push_back(random_genome(rng));
  // Every candidate again, so the second pass prices from a warm memo.
  const std::size_t first_pass = genomes.size();
  for (std::size_t i = 0; i < first_pass; ++i) genomes.push_back(genomes[i]);

  const FitnessEvaluator evaluator(td, weights);
  core::ThreadPool pool(4);
  const std::vector<FitnessReport> got = core::parallel_map(
      pool, genomes.size(),
      [&](std::size_t i) { return evaluator.evaluate(genomes[i]); });

  std::size_t valid = 0, odd_k = 0, random_fill = 0;
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    const FitnessReport want = reencode_oracle(td, weights, genomes[i]);
    expect_same_report(got[i], want, genomes[i]);
    if (i >= first_pass) continue;
    valid += want.valid;
    odd_k += want.valid && genomes[i].k % 2 == 1;
    random_fill += want.valid && genomes[i].fill == FillPolicy::kRandom;
  }
  // The draw covers what it claims to: valid and invalid candidates, odd K
  // with an explicit split, and the seeded random fill.
  EXPECT_GT(valid, 300u);
  EXPECT_LT(valid, first_pass - 100);
  EXPECT_GT(odd_k, 50u);
  EXPECT_GT(random_fill, 50u);
}

TEST(TunePricing, SplitZeroAndExplicitHalfPriceAlike) {
  const bits::TestSet td = workload();
  const FitnessEvaluator evaluator(td, TuneWeights{});
  for (const std::size_t k : {2, 8, 16, 64}) {
    TuneGenome zero = TuneGenome::standard(k);
    TuneGenome half = zero;
    half.split = k / 2;
    const FitnessReport a = evaluator.evaluate(zero);
    const FitnessReport b = evaluator.evaluate(half);
    expect_same_report(a, reencode_oracle(td, TuneWeights{}, zero), zero);
    expect_same_report(b, a, half);
  }
}

}  // namespace
}  // namespace nc::tune
