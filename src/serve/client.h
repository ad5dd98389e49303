// Resilient request client for the compression service.
//
// The loadgen's original recovery story was a fixed-interval retransmit
// loop; this is its extraction into a reusable component with the three
// behaviors a client facing a faulty network actually needs:
//
//  * jittered exponential backoff -- each retransmit waits [b/2, b] with b
//    doubling up to a cap, seeded so runs are reproducible and clients that
//    timed out together do not retransmit in lockstep;
//  * a per-client retry budget -- a global cap on retransmits across all
//    requests, so a dead server fails a burst of requests fast instead of
//    every request independently grinding through max_attempts;
//  * hedged requests -- after `hedge_after` with no reply, send ONE
//    duplicate and take whichever reply lands first. Safe here by
//    construction: the server is idempotent (content-addressed replies are
//    byte-identical) and the protocol tolerates duplicate replies by seq.
//
// The client owns a connect factory, not a stream: a transport fault
// (reset, short bounded write) triggers a reconnect and re-arms every
// outstanding request for prompt retransmission, which is what lets a
// chaos schedule full of resets still converge to zero unresolved
// requests. Requests are stamped with a relative deadline (frame v2) when
// the policy sets one; a kDeadlineExceeded reply is retryable -- the
// retransmit carries a fresh budget and likely hits the server's cache.
//
// A frame-layer error the server echoes with the request's seq (it does so
// when the header CRC vouched for the seq) names its victim: a kBadCrc is
// retransmitted at once instead of waiting out the timer, and a kOversized
// resolves as a typed error. A seq-0 frame error is left to the timer.
//
// Threading: one owner thread per instance. submit() enqueues and
// transmits; poll() pumps I/O, fires due retransmits and hedges, and
// returns resolved requests. All waits are bounded; time is read through
// an injectable core::Clock so tests drive expiry explicitly.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/clock.h"
#include "serve/frame.h"
#include "serve/transport.h"

namespace nc::serve {

struct RetryPolicy {
  /// Transmits per request including the first; exhausting it resolves the
  /// request as kExhausted.
  std::size_t max_attempts = 8;
  /// First retransmit waits ~initial_backoff, doubling per attempt up to
  /// backoff_cap; each wait is jittered to [b/2, b].
  std::chrono::milliseconds initial_backoff{250};
  std::chrono::milliseconds backoff_cap{2000};
  /// Total retransmits the client may spend across all requests; 0 =
  /// unlimited. Once spent, requests fail at their next due retry.
  std::size_t retry_budget = 0;
  /// Send one duplicate transmit after this long without a reply; 0 = no
  /// hedging. Only safe against idempotent servers (this one is).
  std::chrono::milliseconds hedge_after{0};
  /// Relative deadline stamped into every request frame (v2); 0 = none.
  std::uint32_t request_deadline_ms = 0;
  std::uint64_t seed = 1;
  /// Per-transmit write budget; a short write is a transport fault and
  /// triggers a reconnect.
  std::chrono::milliseconds write_deadline{2000};
  core::Clock* clock = nullptr;  // null = real steady clock
};

class RetryingClient {
 public:
  using Connect = std::function<std::unique_ptr<ByteStream>()>;
  /// Applied to every encoded frame just before the wire -- the loadgen's
  /// channel-corruption hook. May return the bytes mangled.
  using TransmitHook =
      std::function<std::vector<std::uint8_t>(std::vector<std::uint8_t>)>;

  /// Connects eagerly via `connect`; throws what the factory throws.
  RetryingClient(Connect connect, RetryPolicy policy = {});

  void set_transmit_hook(TransmitHook hook) { hook_ = std::move(hook); }

  struct Outcome {
    enum class Status : std::uint8_t {
      kReply,       // `reply` holds the success frame
      kTypedError,  // terminal typed error (`error`/`detail`)
      kExhausted,   // attempts or the client-wide retry budget ran out
    };
    Status status = Status::kExhausted;
    Frame reply;
    ErrorCode error = ErrorCode::kBadPayload;
    std::string detail;
    std::size_t transmits = 0;
    bool hedged = false;
    bool hedge_won = false;  // resolved by the hedge, not a timer retry
  };

  /// Requests resolved by one poll(), as (seq, outcome) pairs.
  using Resolved = std::vector<std::pair<std::uint64_t, Outcome>>;

  /// Enqueues and transmits a request; returns its seq.
  std::uint64_t submit(FrameType type, std::vector<std::uint8_t> payload);

  /// Pumps I/O for up to `wait`: fires due retransmits and hedges, reads
  /// replies, reconnects on transport faults. Returns every request that
  /// resolved during the call.
  Resolved poll(std::chrono::milliseconds wait);

  /// Convenience: submit one request and poll until it resolves or
  /// `overall` elapses (nullopt = still unresolved, left outstanding).
  std::optional<Outcome> call(FrameType type, std::vector<std::uint8_t> payload,
                              std::chrono::milliseconds overall);

  std::size_t inflight() const noexcept { return pending_.size(); }

  struct Stats {
    std::uint64_t transmits = 0;
    std::uint64_t retransmits = 0;  // timer- and rejection-driven resends
    std::uint64_t timeouts = 0;     // retransmits fired by the timer alone
    std::uint64_t typed_rejections = 0;  // retryable typed errors received
    std::uint64_t deadline_rejections = 0;  // of those, kDeadlineExceeded
    std::uint64_t frame_errors = 0;      // frame-layer error frames
    std::uint64_t duplicates = 0;  // unexplained duplicate replies
    std::uint64_t hedges = 0;
    std::uint64_t hedge_wins = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t budget_denied = 0;  // retries refused: budget spent
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Closes the current stream; outstanding requests stay pending and
  /// would reconnect on the next poll (used by shutdown paths).
  void close();

 private:
  struct Pending {
    FrameType type = FrameType::kEncodeRequest;
    std::vector<std::uint8_t> payload;
    std::size_t transmits = 0;
    bool hedged = false;
    core::Clock::time_point first_sent{};
    core::Clock::time_point hedge_sent{};
    core::Clock::time_point next_retry{};
    std::chrono::milliseconds backoff{0};
  };

  void reconnect();
  /// Encodes, runs the hook, writes bounded; returns false on a transport
  /// fault (after arranging the reconnect).
  bool transmit(std::uint64_t seq, Pending& p, bool is_hedge);
  void arm(Pending& p);  // schedules next_retry with jittered backoff
  /// Transmits `seq` again (`timer`: fired by its retransmit timer), or
  /// resolves it kExhausted when its attempts or the client-wide retry
  /// budget are spent. Returns false on a transport fault, like transmit.
  bool retransmit(std::uint64_t seq, Pending& p, bool timer, Resolved& out);
  void resolve(std::uint64_t seq, Outcome outcome, Resolved& out);

  Connect connect_;
  RetryPolicy policy_;
  core::Clock& clock_;
  std::unique_ptr<ByteStream> stream_;
  std::unique_ptr<FrameReader> reader_;
  TransmitHook hook_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t rng_;
  std::size_t budget_spent_ = 0;
  std::map<std::uint64_t, Pending> pending_;
  /// Recently resolved seq -> transmit count, to tell a benign duplicate
  /// (we really did send it twice) from a server-side duplication bug.
  std::map<std::uint64_t, std::size_t> done_transmits_;
  Stats stats_;
};

}  // namespace nc::serve
