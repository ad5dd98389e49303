// Load generator for the compression service.
//
// Drives N concurrent clients at one Server (in-process pipes) or a Unix
// socket, each replaying a deterministic mix of encode and decode requests
// drawn from a shared pool of distinct workloads (shared on purpose: the
// pool is what makes the artifact cache earn hits).
//
// Every request's reply bytes are precomputed SERIALLY with the exact code
// path the server runs, so verification is byte-identity, not plausibility:
// a success reply that differs by one byte is a `byte_mismatches` failure.
//
// Fault injection: on average one in `fault_period` transmits of each
// client is pushed through a decomp::ChannelModel (frame bytes mapped to 8
// binary trits each), so the server-side FrameReader sees flipped,
// burst-corrupted and truncated frames. Selection is a seeded Bernoulli
// draw per transmit -- a strict every-Nth counter would phase-lock with
// the retry loop and starve a single victim request.
//
// Recovery is serve::RetryingClient (client.h): jittered exponential
// backoff, an optional per-client retry budget, optional hedged requests,
// and reconnect-on-fault through the connect factory -- so a chaos
// schedule full of resets and stalls still converges. A core::Watchdog
// deadline bounds the whole client; a protocol bug shows up as
// `unresolved` counts, never a hang.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/clock.h"
#include "decomp/channel.h"
#include "serve/frame.h"
#include "serve/transport.h"

namespace nc::serve {

class Server;

struct LoadgenConfig {
  std::size_t clients = 8;
  std::size_t requests_per_client = 50;
  std::size_t pipeline = 4;  // per-client in-flight requests
  /// Workload pool: `distinct` test sets of `patterns` x `width` trits at
  /// `x_density` don't-care fraction; each yields one encode and one decode
  /// request.
  std::size_t distinct = 6;
  std::size_t patterns = 16;
  std::size_t width = 64;
  double x_density = 0.6;
  CodecSpec spec;
  /// On average one in `fault_period` transmits goes through the channel
  /// (seeded Bernoulli per transmit; 0 = never).
  std::size_t fault_period = 0;
  decomp::ChannelConfig channel;
  std::size_t max_retransmits = 8;
  /// Initial retransmit backoff; doubles (jittered) up to 8x per request.
  std::chrono::milliseconds retransmit_timeout{250};
  /// Hard wall-clock bound per client; expiry abandons outstanding
  /// requests as `unresolved` instead of hanging.
  std::chrono::milliseconds deadline{30000};
  /// Relative per-request deadline stamped into frames (v2); 0 = none.
  std::uint32_t request_deadline_ms = 0;
  /// Hedge a request (one duplicate transmit) after this long without a
  /// reply; 0 = no hedging.
  std::chrono::milliseconds hedge_after{0};
  /// Per-client cap on total retransmits across all requests; 0 =
  /// unlimited.
  std::size_t retry_budget = 0;
  /// Time source for the retry machinery; null = real steady clock.
  core::Clock* clock = nullptr;
  std::uint64_t seed = 1;
  /// Response-side signature workloads: when nonzero, the expected
  /// X-compacted response stream of a small scan circuit is published
  /// serially up front, then `signature_checks` check requests (device
  /// signatures of a fault-free machine and of sampled stuck-at faults)
  /// join the workload pool. Expected check replies are precomputed with
  /// the shared compact::check_signatures, so verification stays
  /// byte-identity -- the server must return exactly the verdict a local
  /// analyzer computes.
  std::size_t signature_checks = 0;
  /// Environment X-overlay density on the signature circuit's responses.
  double signature_x_density = 0.02;
};

struct LoadgenStats {
  std::uint64_t requests = 0;         // logical requests resolved ok
  std::uint64_t byte_mismatches = 0;  // success reply != serial reference
  std::uint64_t typed_rejections = 0;  // kOverloaded / kInflightLimit seen
  std::uint64_t decode_failures = 0;   // kDecodeFailed replies
  std::uint64_t frame_errors = 0;     // frame-layer kError received
  std::uint64_t corrupted_sends = 0;  // transmits the channel altered
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t duplicates = 0;   // reply for a seq never retransmitted
  std::uint64_t unresolved = 0;   // abandoned at deadline/retry exhaustion
  std::uint64_t hedges = 0;       // duplicate transmits fired
  std::uint64_t hedge_wins = 0;   // requests resolved after their hedge
  std::uint64_t reconnects = 0;   // transport faults survived via factory
  std::uint64_t deadline_rejections = 0;  // kDeadlineExceeded replies seen
  std::uint64_t signature_unknowns = 0;  // kUnknownSignature replies seen
  double seconds = 0.0;
  double throughput_rps() const noexcept {
    return seconds <= 0.0 ? 0.0 : static_cast<double>(requests) / seconds;
  }
  /// The soak acceptance gate: every request resolved, byte-identical. A
  /// kUnknownSignature reply means a check raced or outlived its publish
  /// -- a protocol ordering bug, so it fails the gate too.
  bool clean() const noexcept {
    return byte_mismatches == 0 && duplicates == 0 && unresolved == 0 &&
           signature_unknowns == 0;
  }
  void merge(const LoadgenStats& other) noexcept;
};

/// Runs the configured load against streams produced by `connect` (one call
/// per client). Blocks until all clients finish.
LoadgenStats run_loadgen(
    const LoadgenConfig& config,
    const std::function<std::unique_ptr<ByteStream>()>& connect);

/// Convenience: in-process run against `server` over pipes.
LoadgenStats run_loadgen_inprocess(const LoadgenConfig& config,
                                   Server& server);

/// Deterministic workload pool builder (exposed for tests/bench): returns
/// request payload + expected reply (type, payload) pairs, computed with
/// the same code path the server executes.
struct Workload {
  FrameType request_type = FrameType::kEncodeRequest;
  std::vector<std::uint8_t> request_payload;
  FrameType expected_type = FrameType::kEncodeReply;
  std::vector<std::uint8_t> expected_payload;
};
std::vector<Workload> build_workloads(const LoadgenConfig& config);

/// Signature workload builder (exposed for tests/bench): one publish of
/// the expected compacted stream of a deterministic generated scan
/// circuit, plus `config.signature_checks` check workloads whose expected
/// replies are serialized compact::check_signatures verdicts.
struct SignatureWorkloads {
  Workload publish;
  std::vector<Workload> checks;
};
SignatureWorkloads build_signature_workloads(const LoadgenConfig& config);

}  // namespace nc::serve
