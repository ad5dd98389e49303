// The tune optimizer's behavioral contract (DESIGN.md section 16):
// seeded determinism, jobs-invariance, baseline dominance, and honest
// bookkeeping of invalid candidates. Everything here runs against a small
// X-rich workload so a full evolutionary loop stays test-speed.
#include "tune/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/cube_gen.h"
#include "tune/fitness.h"
#include "tune/genome.h"

namespace nc::tune {
namespace {

using bits::TestSet;

TestSet small_workload(std::uint64_t seed = 1) {
  gen::CubeGenConfig cfg;
  cfg.patterns = 24;
  cfg.width = 64;
  cfg.x_fraction = 0.7;
  cfg.seed = seed;
  return gen::generate_cubes(cfg);
}

TuneConfig quick_config() {
  TuneConfig cfg;
  cfg.seed = 42;
  cfg.generations = 3;
  cfg.population = 8;
  cfg.jobs = 1;
  return cfg;
}

TEST(TuneOptimizer, SameSeedIsBitReproducible) {
  const TestSet td = small_workload();
  const TuneResult a = run_tune(td, quick_config());
  const TuneResult b = run_tune(td, quick_config());
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_report.score, b.best_report.score);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.invalid_genomes, b.invalid_genomes);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].best_score, b.trace[i].best_score);
    EXPECT_EQ(a.trace[i].mean_valid_score, b.trace[i].mean_valid_score);
    EXPECT_EQ(a.trace[i].invalid, b.trace[i].invalid);
  }
}

TEST(TuneOptimizer, DifferentSeedsSearchDifferently) {
  const TestSet td = small_workload();
  TuneConfig cfg = quick_config();
  const TuneResult a = run_tune(td, cfg);
  cfg.seed = 43;
  const TuneResult b = run_tune(td, cfg);
  // The winners may coincide (both start from the same baselines), but the
  // explored populations must differ somewhere in the trace.
  bool any_difference = a.best != b.best;
  for (std::size_t i = 0; i < a.trace.size() && !any_difference; ++i)
    any_difference = a.trace[i].mean_valid_score != b.trace[i].mean_valid_score;
  EXPECT_TRUE(any_difference);
}

TEST(TuneOptimizer, JobsNeverChangeTheResult) {
  const TestSet td = small_workload();
  TuneConfig cfg = quick_config();
  const TuneResult serial = run_tune(td, cfg);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    cfg.jobs = jobs;
    const TuneResult parallel = run_tune(td, cfg);
    EXPECT_EQ(parallel.best, serial.best) << "jobs=" << jobs;
    EXPECT_EQ(parallel.best_report.score, serial.best_report.score)
        << "jobs=" << jobs;
    ASSERT_EQ(parallel.trace.size(), serial.trace.size());
    for (std::size_t i = 0; i < serial.trace.size(); ++i) {
      EXPECT_EQ(parallel.trace[i].best_score, serial.trace[i].best_score)
          << "jobs=" << jobs << " gen=" << i;
      EXPECT_EQ(parallel.trace[i].mean_valid_score,
                serial.trace[i].mean_valid_score)
          << "jobs=" << jobs << " gen=" << i;
    }
  }
}

TEST(TuneOptimizer, WinnerDominatesBothSeededBaselines) {
  const TestSet td = small_workload();
  const TuneResult r = run_tune(td, quick_config());
  ASSERT_TRUE(r.best_report.valid);
  ASSERT_TRUE(r.standard_report.valid);
  ASSERT_TRUE(r.frequency_directed_report.valid);
  EXPECT_GE(r.best_report.score, r.standard_report.score);
  EXPECT_GE(r.best_report.score, r.frequency_directed_report.score);
}

TEST(TuneOptimizer, TraceBestScoreIsMonotone) {
  // Elitism carries the incumbent forward, so per-generation best never
  // regresses.
  const TestSet td = small_workload(7);
  TuneConfig cfg = quick_config();
  cfg.generations = 5;
  const TuneResult r = run_tune(td, cfg);
  ASSERT_EQ(r.trace.size(), cfg.generations);
  for (std::size_t i = 1; i < r.trace.size(); ++i)
    EXPECT_GE(r.trace[i].best_score, r.trace[i - 1].best_score);
  EXPECT_EQ(r.best_report.score, r.trace.back().best_score);
}

TEST(TuneOptimizer, EvaluationAccountingAddsUp) {
  const TestSet td = small_workload();
  TuneConfig cfg = quick_config();
  const TuneResult r = run_tune(td, cfg);
  EXPECT_EQ(r.evaluations, cfg.generations * cfg.population);
  EXPECT_LE(r.invalid_genomes, r.evaluations);
}

TEST(TuneOptimizer, RejectsDegenerateConfigs) {
  const TestSet td = small_workload();
  TuneConfig cfg = quick_config();
  cfg.population = 1;
  EXPECT_THROW(run_tune(td, cfg), std::invalid_argument);
  cfg = quick_config();
  cfg.generations = 0;
  EXPECT_THROW(run_tune(td, cfg), std::invalid_argument);
  cfg = quick_config();
  cfg.jobs = 0;
  EXPECT_THROW(run_tune(td, cfg), std::invalid_argument);
  cfg = quick_config();
  EXPECT_THROW(run_tune(TestSet(), cfg), std::invalid_argument);
  cfg = quick_config();
  cfg.k_min = 5;  // odd bounds break the symmetric-split mutants
  EXPECT_THROW(run_tune(td, cfg), std::invalid_argument);
}

TEST(TuneFitness, InvalidGenomeScoresMinusInfinity) {
  const TestSet td = small_workload();
  const FitnessEvaluator eval(td, TuneWeights{});
  TuneGenome bad;
  bad.lengths = {1, 1, 1, 1, 1, 1, 1, 1, 1};  // Kraft violation
  const FitnessReport r = eval.evaluate(bad);
  EXPECT_FALSE(r.valid);
  EXPECT_TRUE(std::isinf(r.score));
  EXPECT_LT(r.score, 0.0);
}

TEST(TuneFitness, StandardGenomeMatchesDirectCodecRun) {
  const TestSet td = small_workload();
  const FitnessEvaluator eval(td, TuneWeights{});
  const FitnessReport r = eval.evaluate(TuneGenome::standard(8));
  ASSERT_TRUE(r.valid);
  const auto stats = codec::NineCoded(8).analyze(td.flatten());
  EXPECT_EQ(r.encoded_bits, stats.encoded_bits);
  EXPECT_DOUBLE_EQ(r.cr_percent, stats.compression_ratio());
}

TEST(TuneFitness, GateWeightPenalizesExpensiveDecoders) {
  const TestSet td = small_workload();
  TuneWeights pricey;
  pricey.gates = 10.0;  // make hardware dominate the scalarization
  const FitnessEvaluator eval(td, pricey);
  const FitnessReport std8 = eval.evaluate(TuneGenome::standard(8));
  ASSERT_TRUE(std8.valid);
  EXPECT_LT(std8.score, 0.0);  // 128 GE * 10 swamps any CR percentage
}

}  // namespace
}  // namespace nc::tune
