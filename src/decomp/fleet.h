// Fleet session manager: one tester, N devices, hours of streaming.
//
// The paper's decompressor is TD-independent, which in production means a
// single dumb ATE stream drives many DUTs back to back. At that scale three
// failure modes dominate that the single-session model (ate_session.h)
// cannot absorb:
//
//  * a crafted/corrupt stream that makes a decode run away -- bounded by a
//    per-attempt core::Watchdog whose trip surfaces as the typed
//    codec::DecodeError(kWatchdogExpired) and is retried/quarantined like
//    any other detected corruption;
//  * a killed process losing the whole run -- a CRC-guarded journal (magic
//    "NC9J") written at pattern-batch boundaries checkpoints every device's
//    cursor and cumulative accounting, and a resumed run replays to a
//    bit-identical FleetResult versus the uninterrupted run;
//  * one pathologically bad device starving the fleet -- a per-device
//    circuit breaker (closed -> open -> half-open) quarantines a device
//    after `open_after` consecutive unrecovered patterns, sits out
//    `probe_after` batches, then probes with a single pattern; the rest of
//    the fleet degrades gracefully instead of aborting.
//
// Determinism: for a fixed (seed, devices, config) the entire FleetResult
// is a pure function of the inputs -- independent of `jobs`, of scheduling,
// and of where (or whether) the run was checkpointed and resumed. Each
// device's channel is reseeded at every batch boundary from
// (fleet seed, device index, batch index), so batch k's fault pattern never
// depends on how batches [0, k) were executed. Wall-clock deadlines and
// cancel tokens are deliberately NOT part of the replayed state: only the
// step-budget watchdog feeds verdicts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bits/test_set.h"
#include "circuit/netlist.h"
#include "core/cancel.h"
#include "decomp/ate_session.h"
#include "decomp/channel.h"
#include "sim/fault.h"

namespace nc::decomp {

/// One device under test: its link fault model and (optionally) the
/// physical defect it carries.
struct DeviceProfile {
  ChannelConfig channel;
  std::optional<sim::Fault> fault;
};

/// Circuit-breaker health state of one device.
enum class BreakerState : unsigned char { kClosed = 0, kOpen, kHalfOpen };

/// Final per-device outcome. kFailed covers both a provable response
/// mismatch and patterns whose retry budget ran out with the breaker still
/// closed (the device cannot be declared good either way); kQuarantined
/// means the breaker was open at the end or coverage was lost to skipped
/// batches; kAborted means RetryPolicy::abort_after tripped.
enum class DeviceVerdict : unsigned char {
  kPassed = 0,
  kFailed,
  kQuarantined,
  kAborted,
};

const char* to_string(BreakerState state) noexcept;
const char* to_string(DeviceVerdict verdict) noexcept;

struct BreakerPolicy {
  /// Consecutive unrecovered patterns (retry exhaustion, watchdog trips
  /// included) that open the breaker.
  unsigned open_after = 3;
  /// Whole batches an open breaker sits out before a half-open probe.
  std::size_t probe_after = 2;
};

struct FleetConfig {
  static constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

  std::size_t block_size = 8;  // K of the on-chip decoder
  unsigned p = 8;              // f_scan / f_ate
  RetryPolicy retry;           // per-pattern re-stream budget; abort_after
                               // aborts the *device*, never the fleet
  BreakerPolicy breaker;

  /// Watchdog step budget per decode attempt; 0 derives a generous budget
  /// from the attempt's stream size that a clean decode can never trip.
  std::size_t watchdog_steps = 0;

  /// Patterns per batch: the checkpoint, reseed and breaker-probe
  /// granularity. Part of the deterministic contract (changing it changes
  /// the fault streams), so it is folded into the journal's config hash.
  std::size_t batch_patterns = 8;

  /// Worker threads driving per-device batch jobs; 0 = one per hardware
  /// thread. Never changes any result, only wall-clock.
  std::size_t jobs = 1;

  std::uint64_t seed = 1;  // fleet seed; per-(device, batch) seeds derive

  /// Journal file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Continue from `checkpoint_path` if it holds a valid journal for this
  /// exact configuration; a fresh run otherwise. The journal is append-only
  /// with a CRC per record: a torn or corrupt newest record falls back to
  /// the one before it (the missing batch replays bit-identically), while a
  /// journal with no intact record, a bad header, or a different
  /// configuration is an error.
  bool resume = false;

  /// Test hook simulating a kill: stop (after checkpointing) once this many
  /// batches ran in this process. kNoLimit = run to completion.
  std::size_t stop_after_batches = kNoLimit;

  /// Operator stop (borrowed, may be null). Checked at batch boundaries;
  /// a cancelled run checkpoints and returns complete == false.
  const core::CancelToken* cancel = nullptr;
};

struct DeviceResult {
  DeviceVerdict verdict = DeviceVerdict::kPassed;
  BreakerState breaker = BreakerState::kClosed;
  SessionResult session;  // cumulative accounting, as in ate_session.h

  std::size_t watchdog_trips = 0;    // decode attempts stopped by the budget
  std::size_t patterns_skipped = 0;  // never applied: quarantine windows
  std::size_t breaker_opens = 0;     // times the breaker entered open
  std::size_t probes = 0;            // half-open single-pattern probes
  std::size_t probe_successes = 0;   // probes that re-closed the breaker
};

struct FleetResult {
  std::vector<DeviceResult> devices;

  std::size_t batches_run = 0;  // cumulative across resume segments
  bool complete = true;  // false: stopped by stop_after_batches or cancel

  // Provenance of this process's run segment -- excluded from
  // fleet_fingerprint(), since an interrupted-and-resumed run must produce
  // the identical deterministic outcome.
  std::size_t checkpoints_written = 0;
  bool resumed = false;

  // Aggregates over devices.
  std::size_t passed = 0;
  std::size_t failed = 0;
  std::size_t quarantined = 0;
  std::size_t aborted = 0;
  std::size_t ate_bits = 0;
  std::size_t wasted_ate_bits = 0;
  std::size_t retries = 0;
  std::size_t watchdog_trips = 0;
  std::size_t patterns_skipped = 0;
};

/// FNV-1a digest over every deterministic field of the result -- verdicts,
/// breaker states, all counters, channel stats and the per-pattern fail
/// bits -- excluding run-segment provenance (checkpoints_written, resumed).
/// Two runs with equal fingerprints made identical decisions; the
/// kill-and-resume differential test and the CLI both rely on it.
std::uint64_t fleet_fingerprint(const FleetResult& result) noexcept;

/// Runs the fleet: every device streams the same `cubes` through its own
/// faulty channel into its own decoder, with per-pattern retries, the
/// watchdog, the breaker, and (optionally) the checkpoint journal.
/// Throws std::invalid_argument on a bad configuration and
/// std::runtime_error on an unusable journal.
FleetResult run_fleet(const circuit::Netlist& netlist,
                      const bits::TestSet& cubes, const FleetConfig& config,
                      const std::vector<DeviceProfile>& devices);

}  // namespace nc::decomp
