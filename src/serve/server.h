// The concurrent compression server.
//
// Threading model (per Server instance):
//
//   reader threads --------+                        +-- nc_core::ThreadPool
//   (one per connection)   |   bounded MPMC queue   |   (batch execution)
//     FrameReader ---------+-->  [ admission ] -----+--> coder per batch
//     parse + admit        |        scheduler       |    reply via conn
//     inline replies ------+     (grouping thread)  +--> write mutex
//
//  * Each accepted connection gets a reader thread running a FrameReader.
//    Protocol errors, session/stats/signature requests and admission
//    rejections are answered inline; encode, decode and tune requests
//    enter the shared queue.
//  * Admission control is two-layered and applied before enqueue: a bounded
//    queue depth (reject with kOverloaded) and a per-client in-flight cap
//    (reject with kInflightLimit). A rejected request costs one error
//    frame, never a stall.
//  * The scheduler thread groups queued requests by CodecSpec -- block size
//    K plus the codeword table -- and hands each group to the thread pool
//    as one batch, so the coder construction and the scan_half/
//    classify_halves hot path run against a single coder instance per
//    batch instead of per request. A tune request is always a batch of
//    its own, so a search never holds the encodes that share its spec.
//  * Every artifact goes through one tiered resolve: L1 (in-memory LRU),
//    then the persistent store (a hit is promoted to L1), else compute,
//    whose result is put in L1 and written through. A hit returns the
//    stored reply payload byte-identical to what a miss would compute.
//
// Every reply -- success or typed error -- echoes the request's seq, so
// clients correlate out-of-order replies. A frame-layer error echoes the
// header's seq when the header CRC vouched for it (kBadCrc, kOversized)
// and carries 0 otherwise. All waits are bounded; stop() always completes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/cancel.h"
#include "core/clock.h"
#include "core/thread_pool.h"
#include "serve/cache.h"
#include "serve/frame.h"
#include "serve/metrics.h"
#include "serve/transport.h"
#include "store/sharded_store.h"
#include "store/store.h"

namespace nc::serve {

struct ServerConfig {
  /// 9C hot-path implementation for every batch coder. Byte-identical
  /// output across choices, so cached/stored artifacts remain valid when
  /// the server restarts under a different impl.
  codec::CodecImpl codec_impl = codec::CodecImpl::kAuto;
  std::size_t worker_threads = 0;   // 0 = ThreadPool::hardware_threads()
  std::size_t queue_capacity = 64;  // admission bound on queued requests
  std::uint32_t inflight_cap = 8;   // per-client outstanding requests
  std::size_t cache_capacity = 8u << 20;  // artifact cache bytes; 0 = off
  std::size_t max_batch = 16;             // requests per scheduler batch
  /// How long the scheduler lingers for more spec-compatible requests
  /// after the first one arrives.
  std::chrono::milliseconds batch_window{2};
  /// Directory of the persistent artifact store (L2 tier). Empty = no
  /// store: every cache miss recomputes. Lookups go L1 (in-memory LRU) ->
  /// L2 (store, CRC-revalidated; a corrupt record degrades to a miss) ->
  /// compute, and computed artifacts are written through to both tiers, so
  /// a restarted server on the same directory answers warm.
  std::string store_dir;
  /// Passed through to StoreConfig when store_dir is set.
  std::size_t store_segment_bytes = 4u << 20;
  double store_garbage_ratio = 0.35;
  /// L2 tier shape. 0 or 1 = a single plain Store in store_dir (the
  /// pre-sharding layout); >= 2 = a store::ShardedStore with that many
  /// shards, `store_parity` of them parity, striping payloads at or above
  /// `store_stripe_threshold` bytes. Reads that lose up to store_parity
  /// shards still hit; the damage is visible only in the stats payload.
  unsigned store_shards = 0;
  unsigned store_parity = 1;
  std::size_t store_stripe_threshold = 4096;
  /// Background scrub period for the sharded tier; 0 = no scrub thread.
  std::uint32_t store_scrub_interval_ms = 0;
  /// Write-through durability: a transient store I/O failure is retried
  /// up to this many attempts (1 = no retry) with a capped backoff; after
  /// that -- or immediately on ENOSPC -- the store is benched and the
  /// server runs compute-only until the cooldown expires.
  unsigned store_put_attempts = 3;
  std::chrono::milliseconds store_cooldown{2000};
  /// Write-through retry backoff: doubles from `initial` up to `cap`, each
  /// sleep jittered (seeded, deterministic) so workers that failed together
  /// do not retry in lockstep against a recovering disk.
  std::chrono::milliseconds store_backoff_initial{1};
  std::chrono::milliseconds store_backoff_cap{64};
  std::uint64_t backoff_jitter_seed = 0x9e3779b97f4a7c15ull;

  // ---- timing robustness ------------------------------------------------
  /// Time source for deadlines, backoff sleeps and the progress watchdog.
  /// Null = the real steady clock; tests inject a core::VirtualClock so
  /// expiry is driven by the test, not the wall.
  core::Clock* clock = nullptr;
  /// Deadline applied to requests that carry none (0 = unlimited). A
  /// request whose deadline expires is shed -- before its batch computes,
  /// mid-decode and before its reply is written -- with a typed
  /// kDeadlineExceeded reply instead of burning compute nobody waits for.
  std::uint32_t default_deadline_ms = 0;
  /// Per-reply write budget: a reply that cannot be fully written within
  /// this (peer not draining its socket) abandons the write and drops the
  /// connection as a slow client. 0 = block forever (the old behavior).
  std::chrono::milliseconds write_deadline{5000};
  /// Minimum inbound progress once a partial frame is buffered, bytes/sec
  /// measured over ~1 s windows; a peer dribbling below it is disconnected
  /// (slowloris defense). 0 = off.
  std::uint64_t min_progress_bps = 0;
  /// Disconnect a connection with no inbound bytes and no in-flight work
  /// for this long. 0 = never.
  std::chrono::milliseconds idle_timeout{0};
  /// stop(): how long to wait for in-flight batches to drain before
  /// force-closing connections (which unwedges any writer stuck on a slow
  /// peer) and finishing the shutdown.
  std::chrono::milliseconds stop_drain{5000};
  FrameLimits limits;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Adopts a connected stream and serves it on a dedicated reader thread
  /// until EOF, transport fault, or stop().
  void serve(std::unique_ptr<ByteStream> stream);

  /// Stops accepting work, fails pending queued requests with
  /// kShuttingDown, closes every connection and joins all threads.
  /// Idempotent; called by the destructor.
  void stop();

  const Metrics& metrics() const noexcept { return metrics_; }
  Metrics::Snapshot metrics_snapshot() const { return metrics_.snapshot(); }
  CacheStats cache_stats() const { return cache_.stats(); }
  bool has_store() const noexcept { return tier_ != nullptr; }
  bool has_sharded_store() const noexcept { return sharded_store_ != nullptr; }
  /// Valid only when has_store() and the tier is a plain single store.
  store::StoreStats store_stats() const { return store_->stats(); }
  /// Valid only when has_sharded_store().
  store::ShardedStats sharded_store_stats() const {
    return sharded_store_->stats();
  }
  /// Test access to the plain single-store tier; null when absent or
  /// sharded. Maintenance (fsck/compact) may run through this while the
  /// server is serving -- the store serializes internally.
  store::Store* store() noexcept { return store_.get(); }
  /// Test/CLI access to the sharded tier; null when the tier is a plain
  /// store (or no store at all).
  store::ShardedStore* sharded_store() noexcept {
    return sharded_store_.get();
  }

  /// The Stats reply payload: metrics + cache stats as compact JSON bytes.
  std::vector<std::uint8_t> stats_payload() const;

 private:
  struct Connection {
    explicit Connection(std::unique_ptr<ByteStream> s)
        : stream(std::move(s)) {}
    std::unique_ptr<ByteStream> stream;
    std::mutex write_mutex;
    std::atomic<std::uint32_t> inflight{0};
    std::atomic<bool> dead{false};
    std::uint64_t client_id = 0;
  };

  struct Request {
    std::shared_ptr<Connection> conn;
    FrameType type = FrameType::kEncodeRequest;
    std::uint64_t seq = 0;
    CodecSpec spec;
    std::vector<std::uint8_t> payload;  // raw request payload (cache key)
    std::chrono::steady_clock::time_point accepted;
    core::Deadline deadline;  // unlimited when the frame carried none
  };

  void reader_loop(std::shared_ptr<Connection> conn);
  void handle_frame(const std::shared_ptr<Connection>& conn, Frame frame);
  void scheduler_loop();
  void run_batch(std::vector<Request> batch);
  /// Resolves the request's artifact with the batch's coder and writes the
  /// reply or typed error.
  void process_request(const codec::NineCoded& coder, const Request& req);
  /// The tiered lookup: L1, then the store tier (a hit is promoted to L1;
  /// a corrupt record or I/O error degrades to a miss), else `compute`,
  /// whose result is put in L1 and written through. With no compute step
  /// a miss returns nullopt. Hit/miss counters describe artifact
  /// resolution, so only calls with a compute step feed them.
  std::optional<std::vector<std::uint8_t>> resolve(
      const CacheKey& key,
      const std::function<std::vector<std::uint8_t>()>& compute);
  void send_frame(const std::shared_ptr<Connection>& conn,
                  const Frame& frame);
  void send_error(const std::shared_ptr<Connection>& conn, std::uint64_t seq,
                  ErrorCode code, const std::string& detail);
  void finish_request(const Request& req);
  /// Progress-watchdog disconnect: best-effort typed error frame (the peer
  /// is probably not reading it), then kill the connection.
  void drop_connection(const std::shared_ptr<Connection>& conn,
                       ErrorCode code, const std::string& detail);

  /// The L2 tier to use right now: null when no store is configured or the
  /// store is benched (cooling down after a failed write-through).
  store::ArtifactTier* store_tier();
  /// Write-through with bounded retries; failures bench the store for
  /// config_.store_cooldown instead of surfacing to the client.
  void store_write_through(const store::Key& key,
                           const std::vector<std::uint8_t>& payload);

  ServerConfig config_;
  Metrics metrics_;
  ArtifactCache cache_;
  core::ThreadPool pool_;
  // Declared after pool_: ~Store waits out its background compaction task,
  // which needs the pool still alive (members destroy in reverse order).
  // Exactly one of store_ / sharded_store_ is set when a store directory
  // is configured; tier_ points at it.
  std::unique_ptr<store::Store> store_;
  std::unique_ptr<store::ShardedStore> sharded_store_;
  store::ArtifactTier* tier_ = nullptr;
  // steady_clock ticks until which the store is benched; 0 = healthy.
  std::atomic<std::chrono::steady_clock::rep> store_resume_at_{0};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;

  std::mutex conn_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> reader_threads_;
  std::uint64_t next_client_id_ = 1;

  std::mutex batch_mutex_;  // serializes run_batch completions accounting
  std::atomic<std::size_t> batches_inflight_{0};
  std::condition_variable batches_done_cv_;

  std::atomic<bool> stopping_{false};
  std::thread scheduler_;

  // A second stop() caller waits here for the first to finish the joins
  // (its own mutex: the first caller needs conn_mutex_ during shutdown).
  std::mutex stop_mutex_;
  std::condition_variable stopped_cv_;
  bool stop_complete_ = false;
};

}  // namespace nc::serve
