#include "decomp/ate_session.h"

#include <exception>
#include <future>
#include <memory>
#include <vector>

#include "codec/decode_error.h"
#include "codec/sharded.h"
#include "core/thread_pool.h"
#include "decomp/response_compare.h"
#include "decomp/retry.h"
#include "decomp/single_scan.h"
#include "sim/logic_sim.h"

namespace nc::decomp {

using bits::TestSet;
using bits::Trit;
using bits::TritVector;

namespace {

/// The paper's model: one TE for the whole TD over a perfect link.
SessionResult run_perfect(const circuit::Netlist& netlist,
                          const TestSet& cubes, const SessionConfig& config,
                          const std::optional<sim::Fault>& fault) {
  SessionResult result;

  // The ATE compresses once and streams; the decoder fills the chain.
  const codec::NineCoded coder(config.block_size);
  const TritVector td = cubes.flatten();
  const TritVector te = coder.encode(td);
  const SingleScanDecoder decoder(coder, config.p);
  const DecoderTrace trace = decoder.run(te, td.size());
  result.ate_bits = te.size();
  // One capture cycle per pattern on top of the decoder's scan-in time;
  // scan-out overlaps the next pattern's scan-in.
  result.soc_cycles = trace.soc_cycles + cubes.pattern_count();

  const TestSet applied = TestSet::unflatten(
      trace.scan_stream, cubes.pattern_count(), cubes.pattern_length());

  ResponseComparator compare(netlist, cubes.pattern_length());
  for (std::size_t pat = 0; pat < applied.pattern_count(); ++pat) {
    const bool failed = compare.pattern_fails(applied.pattern(pat), fault);
    result.pattern_failed.push_back(failed);
    if (failed) ++result.failing_patterns;
    ++result.patterns_applied;
  }
  return result;
}

/// Pipelined perfect-channel path: the test set is cut into pattern-aligned
/// shards, each compressed into its own TE. The main thread plays the ATE --
/// it compresses and streams shards strictly in order -- while pool workers
/// decode, unflatten and response-compare the shards already streamed, so
/// the channel transfer of shard k+1 overlaps the decode of shard k.
/// Workers write only their own slot of `outcomes`; the merge walks shards
/// in index order, so the result is independent of jobs and scheduling.
SessionResult run_perfect_parallel(const circuit::Netlist& netlist,
                                   const TestSet& cubes,
                                   const SessionConfig& config,
                                   const std::optional<sim::Fault>& fault) {
  const codec::NineCoded coder(config.block_size);
  const SingleScanDecoder decoder(coder, config.p);
  const std::size_t jobs = config.jobs == 0
                               ? core::ThreadPool::hardware_threads()
                               : config.jobs;
  const auto plan = codec::shard_plan(
      cubes.pattern_count(), config.shards == 0 ? jobs : config.shards);
  const TritVector& flat = cubes.flatten();
  const std::size_t width = cubes.pattern_length();

  struct ShardOutcome {
    std::size_t ate_bits = 0;
    std::size_t soc_cycles = 0;
    std::vector<bool> failed;
  };
  std::vector<ShardOutcome> outcomes(plan.size());

  core::ThreadPool pool(jobs < plan.size() ? jobs : plan.size());
  std::vector<std::future<void>> pending;
  pending.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto [first, patterns] = plan[i];
    // ATE side, in stream order: compress shard i and put it on the link.
    auto te = std::make_shared<const TritVector>(
        coder.encode(flat.slice(first * width, patterns * width)));
    // SoC side, concurrent: decode + capture + compare the received shard.
    pending.push_back(pool.submit([&netlist, &fault, &decoder, &outcomes, te,
                                   i, patterns = patterns, width] {
      const DecoderTrace trace = decoder.run(*te, patterns * width);
      const TestSet applied =
          TestSet::unflatten(trace.scan_stream, patterns, width);
      ShardOutcome& out = outcomes[i];
      out.ate_bits = te->size();
      out.soc_cycles = trace.soc_cycles + patterns;  // + capture cycles
      ResponseComparator compare(netlist, width);
      out.failed.reserve(patterns);
      for (std::size_t pat = 0; pat < patterns; ++pat)
        out.failed.push_back(compare.pattern_fails(applied.pattern(pat), fault));
    }));
  }
  std::exception_ptr first_error;
  for (auto& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  SessionResult result;
  for (const ShardOutcome& out : outcomes) {
    result.ate_bits += out.ate_bits;
    result.soc_cycles += out.soc_cycles;
    for (const bool failed : out.failed) {
      result.pattern_failed.push_back(failed);
      if (failed) ++result.failing_patterns;
      ++result.patterns_applied;
    }
  }
  return result;
}

/// Resilient mode: one TE per pattern (the decoder FSM resynchronizes at
/// every pattern boundary), streamed through the fault injector, with
/// detected corruptions re-streamed under the RetryPolicy.
SessionResult run_resilient(const circuit::Netlist& netlist,
                            const TestSet& cubes, const SessionConfig& config,
                            const std::optional<sim::Fault>& fault) {
  SessionResult result;
  const ResilienceConfig& res = *config.resilience;
  const codec::NineCoded coder(config.block_size);
  const SingleScanDecoder decoder(coder, config.p);
  ChannelModel channel(res.channel);
  ResponseComparator compare(netlist, cubes.pattern_length());

  for (std::size_t pat = 0; pat < cubes.pattern_count(); ++pat) {
    const TritVector cube = cubes.pattern(pat);
    const TritVector te = coder.encode(cube);

    // Shared transmit/decode/validate/re-stream loop (decomp/retry.h);
    // this path runs it unguarded (no watchdog), the paper model.
    StreamOutcome streamed = stream_pattern_with_retry(
        channel, decoder, te, cube, res.retry.max_retries + 1, result);

    if (!streamed.applied) {
      // Fail-safe: an unstreamable pattern is never reported as passing.
      ++result.patterns_unrecovered;
      result.pattern_failed.push_back(true);
      if (result.patterns_unrecovered >= res.retry.abort_after) {
        result.aborted = true;
        break;
      }
      continue;
    }

    const bool failed = compare.pattern_fails(streamed.scan_stream, fault);
    result.pattern_failed.push_back(failed);
    if (failed) ++result.failing_patterns;
    ++result.patterns_applied;
  }
  result.channel = channel.stats();
  return result;
}

}  // namespace

SessionResult run_test_session(const circuit::Netlist& netlist,
                               const TestSet& cubes,
                               const SessionConfig& config,
                               const std::optional<sim::Fault>& fault) {
  if (cubes.pattern_count() == 0) return SessionResult{};
  if (config.resilience.has_value())
    return run_resilient(netlist, cubes, config, fault);
  // The sharded path also serves jobs=1 with explicit sharding, so tests
  // can compare a parallel run against its serial twin shard-for-shard.
  if (config.jobs != 1 || config.shards > 1)
    return run_perfect_parallel(netlist, cubes, config, fault);
  return run_perfect(netlist, cubes, config, fault);
}

}  // namespace nc::decomp
