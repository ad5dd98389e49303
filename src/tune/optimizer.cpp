#include "tune/optimizer.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>
#include <utility>

#include "core/hash.h"
#include "core/parallel.h"
#include "core/thread_pool.h"

namespace nc::tune {

namespace {

using core::mix64;

/// Bounded draw from the (fully specified) mt19937_64 word stream. Plain
/// modulo, not std::uniform_int_distribution: the distribution's mapping is
/// implementation-defined and would make "same seed, same result" hold only
/// per standard library. Modulo bias is irrelevant for a mutation picker.
std::uint64_t draw(std::mt19937_64& rng, std::uint64_t n) {
  return rng() % n;
}

/// Re-scores this TD with the paper's two-pass frequency-directed
/// reassignment (Table VII) at the baseline K; seeded into the population
/// so the winner provably dominates it.
TuneGenome frequency_directed_genome(const bits::TestSet& td,
                                     const TuneConfig& cfg) {
  const codec::NineCodedStats stats =
      codec::NineCoded(cfg.baseline_k).analyze(td.flatten());
  const codec::CodewordTable table =
      codec::CodewordTable::frequency_directed(stats.counts);
  TuneGenome g = TuneGenome::standard(cfg.baseline_k);
  for (std::size_t c = 0; c < codec::kNumClasses; ++c)
    g.lengths[c] = table.length(static_cast<codec::BlockClass>(c));
  return g;
}

/// Keeps K inside [k_min, k_max] and, for symmetric genomes, even; keeps
/// split inside [1, K-1].
void clamp_shape(TuneGenome& g, const TuneConfig& cfg) {
  g.k = std::clamp(g.k, cfg.k_min, cfg.k_max);
  if (g.split == 0 && g.k % 2 != 0) {
    // Symmetric split needs even K; k_min/k_max are validated even, so one
    // step in range always exists.
    g.k = g.k + 1 <= cfg.k_max ? g.k + 1 : g.k - 1;
  }
  if (g.split >= g.k) g.split = g.k - 1;
}

void mutate(TuneGenome& g, std::mt19937_64& rng, const TuneConfig& cfg) {
  // Ops 0..3 are always on; split/fill ops join the menu when enabled.
  std::uint64_t ops = 4;
  if (cfg.tune_split) ++ops;
  if (cfg.tune_fill) ops += 2;
  std::uint64_t op = draw(rng, ops);
  if (op >= 4 && !cfg.tune_split) ++op;  // skip the split op's slot
  switch (op) {
    case 0: {  // swap the lengths of two classes
      const std::size_t a = draw(rng, codec::kNumClasses);
      const std::size_t b = draw(rng, codec::kNumClasses);
      std::swap(g.lengths[a], g.lengths[b]);
      break;
    }
    case 1: {  // nudge one length (may violate Kraft: scored, not repaired)
      const std::size_t a = draw(rng, codec::kNumClasses);
      if (draw(rng, 2) == 0 && g.lengths[a] < cfg.max_len)
        ++g.lengths[a];
      else if (g.lengths[a] > 1)
        --g.lengths[a];
      break;
    }
    case 2: {  // block size +- 2 (parity-preserving)
      if (draw(rng, 2) == 0)
        g.k += 2;
      else if (g.k >= cfg.k_min + 2)
        g.k -= 2;
      break;
    }
    case 3: {  // randomize the fill seed (matters only for kRandom)
      g.fill_seed = rng();
      break;
    }
    case 4: {  // nudge the split point
      std::size_t s = g.resolved_split();
      if (draw(rng, 2) == 0)
        ++s;
      else if (s > 1)
        --s;
      g.split = std::min(s, g.k - 1);
      break;
    }
    case 5: {  // jump to a random fill policy
      g.fill = static_cast<FillPolicy>(draw(rng, kNumFillPolicies));
      break;
    }
    default: {  // 6: back to the paper's keep-X default
      g.fill = FillPolicy::kNone;
      break;
    }
  }
  clamp_shape(g, cfg);
}

TuneGenome crossover(const TuneGenome& a, const TuneGenome& b,
                     std::mt19937_64& rng) {
  TuneGenome child = a;
  // (k, split) travel as a unit -- they constrain each other.
  if (draw(rng, 2) == 0) {
    child.k = b.k;
    child.split = b.split;
  }
  if (draw(rng, 2) == 0) child.lengths = b.lengths;
  if (draw(rng, 2) == 0) {
    child.fill = b.fill;
    child.fill_seed = b.fill_seed;
  }
  return child;
}

void validate(const bits::TestSet& td, const TuneConfig& cfg) {
  if (td.flatten().size() == 0)
    throw std::invalid_argument("tune: empty test set");
  if (cfg.population < 2)
    throw std::invalid_argument("tune: population must be >= 2");
  if (cfg.generations == 0)
    throw std::invalid_argument("tune: generations must be >= 1");
  if (cfg.jobs == 0) throw std::invalid_argument("tune: jobs must be >= 1");
  if (cfg.k_min < 2 || cfg.k_min % 2 != 0 || cfg.k_max % 2 != 0 ||
      cfg.k_min > cfg.k_max)
    throw std::invalid_argument("tune: need even 2 <= k_min <= k_max");
  if (cfg.baseline_k < cfg.k_min || cfg.baseline_k > cfg.k_max ||
      cfg.baseline_k % 2 != 0)
    throw std::invalid_argument("tune: baseline_k must be even in [k_min, k_max]");
  if (cfg.max_len < 4 || cfg.max_len > 31)
    throw std::invalid_argument("tune: max_len must be in [4, 31]");
}

}  // namespace

TuneResult run_tune(const bits::TestSet& td, const TuneConfig& cfg) {
  validate(td, cfg);

  const FitnessEvaluator eval(td, cfg.weights);
  core::ThreadPool pool(cfg.jobs);

  const TuneGenome standard = TuneGenome::standard(cfg.baseline_k);
  const TuneGenome freq = frequency_directed_genome(td, cfg);

  // Generation 0: the two baselines plus mutated copies of them. Slot
  // seeds mix the config seed so --seed reshuffles everything at once.
  std::vector<TuneGenome> pop(cfg.population);
  pop[0] = standard;
  pop[1] = freq;
  for (std::size_t i = 2; i < cfg.population; ++i) {
    std::mt19937_64 rng(mix64(cfg.seed ^ mix64(i)));
    TuneGenome g = i % 2 == 0 ? standard : freq;
    const std::size_t rounds = 1 + draw(rng, 3);
    for (std::size_t m = 0; m < rounds; ++m) mutate(g, rng, cfg);
    pop[i] = g;
  }

  TuneResult result;
  result.frequency_directed = freq;

  const std::size_t elite =
      std::max<std::size_t>(1, std::min(cfg.population - 1, cfg.population / 4));

  for (std::size_t gen = 0; gen < cfg.generations; ++gen) {
    const std::vector<FitnessReport> reports = core::parallel_map(
        pool, pop.size(),
        [&](std::size_t i) { return eval.evaluate(pop[i]); });
    result.evaluations += pop.size();

    // Rank: score descending, population index ascending on ties -- the
    // tie-break that makes the winner independent of evaluation order.
    std::vector<std::size_t> order(pop.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (reports[a].score != reports[b].score)
        return reports[a].score > reports[b].score;
      return a < b;
    });

    GenerationTrace t;
    t.generation = gen;
    t.best_score = reports[order[0]].score;
    double sum = 0.0;
    std::size_t valid = 0;
    for (const FitnessReport& r : reports) {
      if (r.valid) {
        sum += r.score;
        ++valid;
      } else {
        ++t.invalid;
      }
    }
    t.mean_valid_score = valid == 0 ? 0.0 : sum / static_cast<double>(valid);
    result.invalid_genomes += t.invalid;
    result.trace.push_back(t);

    if (gen + 1 == cfg.generations) {
      result.best = pop[order[0]];
      result.best_report = reports[order[0]];
      break;
    }

    // Breed the next generation: elites survive verbatim (so the best
    // score is monotone across generations), the rest are children of
    // elite parents. Each slot's RNG is derived from (seed, gen, slot)
    // alone, never from thread timing.
    std::vector<TuneGenome> next(cfg.population);
    for (std::size_t e = 0; e < elite; ++e) next[e] = pop[order[e]];
    for (std::size_t slot = elite; slot < cfg.population; ++slot) {
      std::mt19937_64 rng(mix64(
          cfg.seed ^ mix64(((gen + 1) << 32) ^ static_cast<std::uint64_t>(slot))));
      const std::size_t ia = draw(rng, elite);
      const std::size_t ib = draw(rng, elite);
      TuneGenome child = crossover(pop[order[ia]], pop[order[ib]], rng);
      const std::size_t rounds = 1 + draw(rng, 3);
      for (std::size_t m = 0; m < rounds; ++m) mutate(child, rng, cfg);
      next[slot] = child;
    }
    pop = std::move(next);
  }

  result.standard_report = eval.evaluate(standard);
  result.frequency_directed_report = eval.evaluate(freq);
  return result;
}

}  // namespace nc::tune
