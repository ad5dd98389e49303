// End-to-end ATE test-session model: the tester streams the 9C-compressed
// stimulus through the on-chip decompressor into the scan chain, the
// circuit captures, and the responses are compared against the fault-free
// expectations -- per-pattern pass/fail plus the full cycle accounting the
// paper's TAT analysis abstracts (Section III-C ignores the one capture
// cycle per pattern; this model includes it, and treats scan-out as
// overlapped with the next scan-in, the standard ATE pipelining).
//
// Two operating modes:
//  * Perfect channel (default): the paper's model -- TD is compressed once
//    and streamed as one TE; nothing can go wrong.
//  * Resilient (config.resilience set): the link carries the configured
//    fault model (channel.h), each pattern is compressed and streamed as
//    its own TE so the decoder FSM resynchronizes at every pattern
//    boundary, and detected corruptions (typed DecodeError from the decode
//    path, or a decoded pattern that contradicts a specified stimulus bit)
//    trigger per-pattern re-streams under a RetryPolicy. One corrupted
//    block then costs one pattern retry, never the whole session.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "bits/test_set.h"
#include "circuit/netlist.h"
#include "codec/nine_coded.h"
#include "decomp/channel.h"
#include "sim/fault.h"

namespace nc::decomp {

/// How the tester reacts to detected corruptions.
struct RetryPolicy {
  /// Re-streams allowed per pattern after its first corrupted attempt.
  unsigned max_retries = 3;
  /// Abort the whole session once this many patterns exhaust their retries
  /// (the link is considered dead). Default: never abort, skip and go on.
  std::size_t abort_after = static_cast<std::size_t>(-1);
};

struct ResilienceConfig {
  ChannelConfig channel;
  RetryPolicy retry;
};

struct SessionConfig {
  std::size_t block_size = 8;  // K of the on-chip decoder
  unsigned p = 8;              // f_scan / f_ate
  /// Engages the faulty-channel model and the retry protocol.
  std::optional<ResilienceConfig> resilience;

  /// Worker threads for the pipelined perfect-channel path: the main thread
  /// compresses and "streams" shard k+1 while pool workers decode and
  /// compare shard k. jobs == 1 with default sharding is the paper's serial
  /// model (default, bit-for-bit unchanged); 0 = one worker per hardware
  /// thread. Ignored in resilient mode, whose channel fault sequence is
  /// inherently ordered.
  std::size_t jobs = 1;
  /// Pattern-aligned shards for the pipelined path, each streamed as its
  /// own TE (the decoder FSM resynchronizes at every shard boundary);
  /// 0 = one shard per job. With shards == 1 the session matches the
  /// serial model exactly -- same TE bits, same accounting, same verdicts.
  /// More shards re-pad each TE at its shard boundary, which adds per-shard
  /// padding to ate_bits and may pick different (equally legal) fills for
  /// don't-care stimulus positions than the single-TE stream. For any fixed
  /// shard count the results are a pure function of the input: jobs and
  /// scheduling never change them.
  std::size_t shards = 0;
};

struct SessionResult {
  std::size_t patterns_applied = 0;
  std::size_t failing_patterns = 0;  // response provably differs from good
  std::size_t ate_bits = 0;          // bits streamed from the tester (|TE|)
  std::size_t soc_cycles = 0;        // scan-in + capture cycles
  std::vector<bool> pattern_failed;  // per pattern

  // --- resilience accounting (all zero on the perfect-channel path) ---
  std::size_t patterns_retried = 0;   // patterns needing >= 1 re-stream
  std::size_t retries = 0;            // total re-streams issued
  std::size_t corruptions_detected = 0;    // decode error or stimulus check
  std::size_t corruptions_undetected = 0;  // decoded clean; provably X-masked
  std::size_t patterns_unrecovered = 0;    // retry budget exhausted
  std::size_t wasted_ate_bits = 0;  // bits of attempts that were re-streamed
  bool aborted = false;             // RetryPolicy::abort_after tripped
  ChannelStats channel;             // injector's own accounting

  bool device_passes() const noexcept {
    return failing_patterns == 0 && patterns_unrecovered == 0 && !aborted;
  }
};

/// Runs the session. `cubes` is the test set the ATE holds (X allowed: the
/// decoder reproduces them and comparison treats X as unknown). When
/// `fault` is set, the device under test carries that defect; expected
/// responses always come from the fault-free machine.
SessionResult run_test_session(const circuit::Netlist& netlist,
                               const bits::TestSet& cubes,
                               const SessionConfig& config,
                               const std::optional<sim::Fault>& fault = {});

}  // namespace nc::decomp
