#include "tune/fitness.h"

#include "decomp/timing.h"
#include "synth/code_synth.h"

namespace nc::tune {

FitnessEvaluator::FitnessEvaluator(const bits::TestSet& td,
                                   TuneWeights weights)
    : td_(td), weights_(weights) {}

namespace {

/// Only the random fill reads its seed.
std::uint64_t fill_seed_key(const TuneGenome& genome) noexcept {
  return genome.fill == FillPolicy::kRandom ? genome.fill_seed : 0;
}

}  // namespace

const bits::TritVector& FitnessEvaluator::filled_stream(
    const TuneGenome& genome) const {
  const auto key = std::make_pair(static_cast<unsigned>(genome.fill),
                                  fill_seed_key(genome));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fill_memo_.find(key);
  if (it == fill_memo_.end())
    it = fill_memo_.emplace(key, genome.apply_fill(td_).flatten()).first;
  return it->second;
}

codec::NineCodedStats FitnessEvaluator::class_stats(
    const TuneGenome& genome, const codec::NineCoded& coder) const {
  // The coder's split is resolved, so split 0 and an explicit K/2 share an
  // entry.
  const auto key =
      std::make_tuple(static_cast<unsigned>(genome.fill), fill_seed_key(genome),
                      coder.block_size(), coder.split());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = stats_memo_.find(key);
    if (it != stats_memo_.end()) return it->second;
  }
  // Classify outside the lock, as fsm_cost synthesizes: a racing worker
  // only repeats the same pure work.
  const codec::NineCodedStats stats = coder.analyze(filled_stream(genome));
  std::lock_guard<std::mutex> lock(mutex_);
  stats_memo_.emplace(key, stats);
  return stats;
}

std::size_t FitnessEvaluator::fsm_cost(
    const std::array<unsigned, codec::kNumClasses>& lengths,
    const codec::CodewordTable& table) const {
  std::string key(lengths.begin(), lengths.end());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = fsm_memo_.find(key);
    if (it != fsm_memo_.end()) return it->second;
  }
  // Synthesize outside the lock: QM minimization is the slow part and two
  // workers racing on the same key just do the same pure work twice.
  const synth::CodeSynthResult fsm =
      synth::synthesize_code_fsm(synth::leaves_for_table(table), 3);
  const std::size_t gates = fsm.total_gate_equivalents();
  std::lock_guard<std::mutex> lock(mutex_);
  fsm_memo_.emplace(std::move(key), gates);
  return gates;
}

FitnessReport FitnessEvaluator::evaluate(const TuneGenome& genome) const {
  FitnessReport report;
  try {
    const codec::NineCoded coder = genome.make_coder();
    // The memoized histogram may come from another table: price it with
    // this one.
    codec::NineCodedStats stats = class_stats(genome, coder);
    stats.encoded_bits = codec::encoded_bits(stats.counts, coder.table(),
                                             coder.block_size(), coder.split());
    report.cr_percent = stats.compression_ratio();
    report.tat_percent =
        decomp::tat_percent(stats, coder.table(), weights_.p);
    report.fsm_gates = fsm_cost(genome.lengths, coder.table());
    report.datapath_gates =
        synth::decoder_gate_estimate(report.fsm_gates, genome.k, genome.split);
    report.encoded_bits = stats.encoded_bits;
    report.score = weights_.cr * report.cr_percent +
                   weights_.tat * report.tat_percent -
                   weights_.gates * static_cast<double>(report.fsm_gates);
    report.valid = true;
  } catch (const std::invalid_argument&) {
    // CodeSpecError (bad lengths), bad K/split, or an FSM past the
    // synthesizer's state cap: the genome is simply unfit.
    report = FitnessReport{};
  }
  return report;
}

}  // namespace nc::tune
