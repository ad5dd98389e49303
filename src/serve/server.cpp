#include "serve/server.h"

#include <algorithm>
#include <stdexcept>

#include "bits/test_set.h"
#include "codec/decode_error.h"
#include "core/hash.h"
#include "tune/optimizer.h"

namespace nc::serve {

namespace {

constexpr std::chrono::milliseconds kReaderPoll{100};

/// Largest decode output the server will materialize. Geometry beyond this
/// is rejected as kBadPayload before any allocation.
constexpr std::size_t kMaxDecodeSymbols = std::size_t{1} << 28;

std::uint64_t micros_since(std::chrono::steady_clock::time_point t0) {
  const auto d = std::chrono::steady_clock::now() - t0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

/// Peeks the CodecSpec prefix shared by encode and decode payloads; the
/// scheduler batches on it without paying for a full parse.
CodecSpec peek_spec(const std::vector<std::uint8_t>& payload) {
  constexpr std::size_t kSpecBytes = 4 + codec::kNumClasses;
  if (payload.size() < kSpecBytes)
    throw std::runtime_error("payload shorter than its codec spec");
  CodecSpec spec;
  spec.k = 0;
  for (int i = 0; i < 4; ++i)
    spec.k |= static_cast<std::size_t>(payload[i]) << (8 * i);
  for (std::size_t i = 0; i < codec::kNumClasses; ++i)
    spec.lengths[i] = payload[4 + i];
  return spec;
}

std::vector<std::uint8_t> encode_artifact(
    const codec::NineCoded& coder, const std::vector<std::uint8_t>& payload) {
  const EncodeRequest er = parse_encode_request(payload);
  return trits_payload(coder.encode(er.tests.flatten()));
}

std::vector<std::uint8_t> decode_artifact(
    const codec::NineCoded& coder, const std::vector<std::uint8_t>& payload,
    const core::Deadline& deadline) {
  const DecodeRequest dr = parse_decode_request(payload);
  if (dr.width != 0 && dr.patterns > kMaxDecodeSymbols / dr.width)
    throw std::runtime_error("decode geometry too large");
  const std::size_t original = dr.patterns * dr.width;
  // Same budget shape as the decompression fleet: linear in the work a
  // well-formed stream needs, so only runaway streams trip it. The request
  // deadline rides along, cancelling an in-flight decode the moment its
  // client stops waiting.
  core::Watchdog watchdog(64 + 8 * (original + dr.te.size()), deadline);
  codec::DecodeOutcome outcome =
      coder.decode_checked(dr.te, original, &watchdog);
  return test_set_payload(bits::TestSet::unflatten(std::move(outcome.data),
                                                   dr.patterns, dr.width));
}

std::vector<std::uint8_t> tune_artifact(
    const std::vector<std::uint8_t>& payload) {
  const TuneRequest tr = parse_tune_request(payload);
  tune::TuneConfig cfg;
  cfg.seed = tr.seed;
  cfg.generations = tr.generations;
  cfg.population = tr.population;
  cfg.weights =
      tune::TuneWeights{tr.weight_cr, tr.weight_tat, tr.weight_gates, tr.p};
  // Serial fitness evaluation: this code already runs on a pool worker, and
  // nesting a blocking parallel_map onto the same pool would deadlock a
  // small pool (the task would wait on subtasks queued behind itself).
  // Results are jobs-invariant by contract, so the artifact is identical
  // either way.
  cfg.jobs = 1;
  const tune::TuneResult result = tune::run_tune(tr.tests, cfg);
  TuneReplyData reply;
  reply.genome = result.best;
  reply.score = result.best_report.score;
  reply.cr_percent = result.best_report.cr_percent;
  reply.tat_percent = result.best_report.tat_percent;
  reply.fsm_gates = result.best_report.fsm_gates;
  reply.datapath_gates = result.best_report.datapath_gates;
  reply.evaluations = result.evaluations;
  reply.invalid_genomes = result.invalid_genomes;
  return to_payload(reply);
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(config),
      cache_(config.cache_capacity),
      pool_(config.worker_threads == 0 ? core::ThreadPool::hardware_threads()
                                       : config.worker_threads) {
  if (!config_.store_dir.empty()) {
    if (config_.store_shards >= 2) {
      store::ShardedStoreConfig sc;
      sc.dir = config_.store_dir;
      sc.shards = config_.store_shards;
      sc.parity = config_.store_parity;
      sc.stripe_threshold_bytes = config_.store_stripe_threshold;
      sc.segment_target_bytes = config_.store_segment_bytes;
      sc.compact_garbage_ratio = config_.store_garbage_ratio;
      sc.pool = &pool_;
      sc.scrub_interval =
          std::chrono::milliseconds(config_.store_scrub_interval_ms);
      sharded_store_ = std::make_unique<store::ShardedStore>(sc);
      tier_ = sharded_store_.get();
    } else {
      store::StoreConfig sc;
      sc.dir = config_.store_dir;
      sc.segment_target_bytes = config_.store_segment_bytes;
      sc.compact_garbage_ratio = config_.store_garbage_ratio;
      sc.pool = &pool_;
      store_ = std::make_unique<store::Store>(sc);
      tier_ = store_.get();
    }
  }
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

Server::~Server() { stop(); }

void Server::serve(std::unique_ptr<ByteStream> stream) {
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    if (stopping_.load()) {
      stream->close();
      return;
    }
    conn = std::make_shared<Connection>(std::move(stream));
    conn->client_id = next_client_id_++;
    connections_.push_back(conn);
    reader_threads_.emplace_back([this, conn] { reader_loop(conn); });
  }
  metrics_.connections.fetch_add(1, std::memory_order_relaxed);
}

void Server::stop() {
  bool first;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    first = !stopping_.exchange(true);
  }
  if (!first) {
    // A concurrent/second stop: the first caller owns the joins; sleep on
    // the completion CV until it is done.
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stopped_cv_.wait(lock, [this] { return stop_complete_; });
    return;
  }
  queue_cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();

  // All batches that will ever run are submitted; wait for them to finish
  // so no pool task touches a connection after we start closing. The wait
  // is bounded by the drain deadline: a batch can be stuck writing a reply
  // to a peer that stopped draining, and force-closing the connections is
  // exactly what unwedges it.
  {
    std::unique_lock<std::mutex> lock(batch_mutex_);
    const bool drained = batches_done_cv_.wait_for(
        lock, config_.stop_drain,
        [this] { return batches_inflight_.load() == 0; });
    if (!drained) {
      lock.unlock();
      std::vector<std::shared_ptr<Connection>> conns;
      {
        std::lock_guard<std::mutex> clock_guard(conn_mutex_);
        conns = connections_;
      }
      for (const auto& conn : conns) {
        conn->dead.store(true);
        conn->stream->close();
      }
      lock.lock();
      batches_done_cv_.wait(lock,
                            [this] { return batches_inflight_.load() == 0; });
    }
  }

  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conns = connections_;
    readers.swap(reader_threads_);
  }
  for (const auto& conn : conns) {
    conn->dead.store(true);
    conn->stream->close();
  }
  for (auto& t : readers)
    if (t.joinable()) t.join();

  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_complete_ = true;
  }
  stopped_cv_.notify_all();
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  FrameReader reader(*conn->stream, config_.limits);
  const core::Clock& clock = core::Clock::or_steady(config_.clock);
  // Progress watchdog state. `last_progress` is the instant the last byte
  // arrived; the window pair measures the inbound rate over ~1 s spans.
  auto last_progress = clock.now();
  auto window_start = last_progress;
  std::uint64_t last_bytes = 0;
  std::uint64_t window_bytes = 0;
  constexpr std::chrono::milliseconds kProgressWindow{1000};
  try {
    while (!conn->dead.load()) {
      FrameReader::Result r = reader.read(kReaderPoll);
      switch (r.status) {
        case FrameReader::Status::kFrame:
          handle_frame(conn, std::move(r.frame));
          break;
        case FrameReader::Status::kProtocolError:
          // One typed error frame per corrupted frame. Its seq is the
          // header's when the header CRC vouched for it, else 0.
          metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          send_error(conn, r.frame.seq, r.error, r.detail);
          break;
        case FrameReader::Status::kTimeout:
          if (stopping_.load()) return;
          break;
        case FrameReader::Status::kEof:
          return;
      }
      const auto now = clock.now();
      const std::uint64_t consumed = reader.bytes_consumed();
      if (consumed != last_bytes) {
        last_bytes = consumed;
        last_progress = now;
      }
      // Idle defense: a peer holding the connection open with nothing
      // inbound and nothing in flight is paying for a reader thread it
      // does not use.
      if (config_.idle_timeout.count() > 0 &&
          conn->inflight.load(std::memory_order_relaxed) == 0 &&
          reader.buffered() == 0 &&
          now - last_progress >= config_.idle_timeout) {
        metrics_.idle_disconnects.fetch_add(1, std::memory_order_relaxed);
        drop_connection(conn, ErrorCode::kSlowClient,
                        "idle timeout: no request activity");
        return;
      }
      // Slowloris defense: once a partial frame is buffered the peer has
      // committed to delivering it; dribbling below the minimum rate keeps
      // this thread hostage byte by byte. Any byte counts as progress
      // (bytes_consumed, not whole frames), so a legitimately slow link
      // above the floor is never cut.
      if (config_.min_progress_bps > 0 && now - window_start >= kProgressWindow) {
        const auto elapsed = now - window_start;
        const std::uint64_t got = consumed - window_bytes;
        const double secs =
            std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
                .count();
        if (reader.buffered() > 0 &&
            static_cast<double>(got) <
                static_cast<double>(config_.min_progress_bps) * secs) {
          metrics_.slow_client_disconnects.fetch_add(
              1, std::memory_order_relaxed);
          drop_connection(conn, ErrorCode::kSlowClient,
                          "inbound progress below " +
                              std::to_string(config_.min_progress_bps) +
                              " bytes/sec");
          return;
        }
        window_start = now;
        window_bytes = consumed;
      }
    }
  } catch (const std::exception&) {
    // Transport fault: the connection is gone; nothing to reply to.
  }
  conn->dead.store(true);
  conn->stream->close();
}

void Server::drop_connection(const std::shared_ptr<Connection>& conn,
                             ErrorCode code, const std::string& detail) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.seq = 0;
  frame.payload = error_payload(code, detail);
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  {
    // Best-effort courtesy frame with a tiny budget: the peer we are
    // dropping is by definition not draining; never wait on it.
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    try {
      (void)conn->stream->write_some(bytes.data(), bytes.size(),
                                     std::chrono::milliseconds{10});
    } catch (const std::exception&) {
    }
  }
  conn->dead.store(true);
  conn->stream->close();
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          Frame frame) {
  metrics_.bytes_in.fetch_add(
      (frame.deadline_ms != 0 ? kFrameHeaderSizeV2 : kFrameHeaderSize) +
          frame.payload.size() + kFrameTrailerSize,
      std::memory_order_relaxed);
  switch (frame.type) {
    case FrameType::kSessionRequest: {
      try {
        (void)parse_session_payload(frame.payload);
      } catch (const std::exception& e) {
        metrics_.bad_payloads.fetch_add(1, std::memory_order_relaxed);
        send_error(conn, frame.seq, ErrorCode::kBadPayload, e.what());
        return;
      }
      Frame reply;
      reply.type = FrameType::kSessionReply;
      reply.seq = frame.seq;
      reply.payload = session_grant_payload(
          SessionGrant{conn->client_id, config_.inflight_cap});
      send_frame(conn, reply);
      return;
    }
    case FrameType::kStatsRequest: {
      Frame reply;
      reply.type = FrameType::kStatsReply;
      reply.seq = frame.seq;
      reply.payload = stats_payload();
      send_frame(conn, reply);
      return;
    }
    // Signature publish/check are handled inline on the reader thread like
    // Stats: the work is a linear scan of an already-size-bounded payload,
    // far below a 9C encode/decode -- batching would only add latency.
    case FrameType::kSignaturePublishRequest: {
      try {
        (void)parse_signature_publish(frame.payload);  // validate geometry
      } catch (const std::exception& e) {
        metrics_.bad_payloads.fetch_add(1, std::memory_order_relaxed);
        send_error(conn, frame.seq, ErrorCode::kBadPayload, e.what());
        return;
      }
      const CacheKey key =
          signature_ref_key(frame.payload.data(), frame.payload.size());
      cache_.put(key, frame.payload);
      if (store::ArtifactTier* tier = store_tier(); tier != nullptr)
        store_write_through(store::Key{key.lo, key.hi}, frame.payload);
      metrics_.signature_publishes.fetch_add(1, std::memory_order_relaxed);
      Frame reply;
      reply.type = FrameType::kSignaturePublishReply;
      reply.seq = frame.seq;
      reply.payload = signature_ref_payload(SignatureRef{key.lo, key.hi});
      send_frame(conn, reply);
      return;
    }
    case FrameType::kSignatureCheckRequest: {
      SignatureCheck chk;
      try {
        chk = parse_signature_check(frame.payload);
      } catch (const std::exception& e) {
        metrics_.bad_payloads.fetch_add(1, std::memory_order_relaxed);
        send_error(conn, frame.seq, ErrorCode::kBadPayload, e.what());
        return;
      }
      // Resolve the published stream through the same tiers as artifacts;
      // there is nothing to compute, so a miss everywhere is unknown.
      const CacheKey key{chk.ref.lo, chk.ref.hi};
      const std::optional<std::vector<std::uint8_t>> published =
          resolve(key, nullptr);
      if (!published) {
        metrics_.signature_unknown_refs.fetch_add(1,
                                                  std::memory_order_relaxed);
        send_error(conn, frame.seq, ErrorCode::kUnknownSignature,
                   "signature ref " + key.hex() + " not published");
        return;
      }
      try {
        const SignaturePublish pub = parse_signature_publish(*published);
        const compact::CheckVerdict verdict = compact::check_signatures(
            pub.expected, chk.observed, pub.outputs_per_cycle);
        metrics_.signature_checks.fetch_add(1, std::memory_order_relaxed);
        if (!verdict.pass)
          metrics_.signature_mismatches.fetch_add(1,
                                                  std::memory_order_relaxed);
        Frame reply;
        reply.type = FrameType::kSignatureCheckReply;
        reply.seq = frame.seq;
        reply.payload = check_verdict_payload(verdict);
        send_frame(conn, reply);
      } catch (const std::exception& e) {
        metrics_.bad_payloads.fetch_add(1, std::memory_order_relaxed);
        send_error(conn, frame.seq, ErrorCode::kBadPayload, e.what());
      }
      return;
    }
    case FrameType::kEncodeRequest:
    case FrameType::kDecodeRequest:
    case FrameType::kTuneRequest: {
      Request req;
      req.conn = conn;
      req.type = frame.type;
      req.seq = frame.seq;
      req.accepted = std::chrono::steady_clock::now();
      // The deadline budget starts counting at arrival (it is relative:
      // the two ends share no clock). A frame without one inherits the
      // server-wide default, which may be "unlimited".
      const std::uint32_t budget_ms = frame.deadline_ms != 0
                                          ? frame.deadline_ms
                                          : config_.default_deadline_ms;
      if (budget_ms != 0)
        req.deadline = core::Deadline::after(
            std::chrono::milliseconds(budget_ms), config_.clock);
      if (frame.type == FrameType::kTuneRequest) {
        // Tune requests keep the default spec, which only feeds the cache
        // key: the payload carries the whole configuration, and the
        // scheduler runs each one as a batch of its own. Payload
        // validation happens on the worker, like encode/decode bodies.
        metrics_.tune_requests.fetch_add(1, std::memory_order_relaxed);
      } else {
        try {
          req.spec = peek_spec(frame.payload);
        } catch (const std::exception& e) {
          metrics_.bad_payloads.fetch_add(1, std::memory_order_relaxed);
          send_error(conn, frame.seq, ErrorCode::kBadPayload, e.what());
          return;
        }
      }
      req.payload = std::move(frame.payload);

      // Admission, layer 1: per-client in-flight cap.
      const std::uint32_t inflight =
          conn->inflight.load(std::memory_order_relaxed);
      if (inflight >= config_.inflight_cap) {
        metrics_.requests_rejected_inflight.fetch_add(
            1, std::memory_order_relaxed);
        send_error(conn, req.seq, ErrorCode::kInflightLimit,
                   "client has " + std::to_string(inflight) +
                       " requests in flight (cap " +
                       std::to_string(config_.inflight_cap) + ")");
        return;
      }
      // Admission, layer 2: bounded queue depth.
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (stopping_.load()) {
          send_error(conn, req.seq, ErrorCode::kShuttingDown,
                     to_string(ErrorCode::kShuttingDown));
          return;
        }
        if (queue_.size() >= config_.queue_capacity) {
          metrics_.requests_rejected_queue.fetch_add(
              1, std::memory_order_relaxed);
          send_error(conn, req.seq, ErrorCode::kOverloaded,
                     "queue at capacity " +
                         std::to_string(config_.queue_capacity));
          return;
        }
        conn->inflight.fetch_add(1, std::memory_order_relaxed);
        metrics_.requests_accepted.fetch_add(1, std::memory_order_relaxed);
        queue_.push_back(std::move(req));
      }
      queue_cv_.notify_one();
      return;
    }
    default:
      send_error(conn, frame.seq, ErrorCode::kBadType,
                 "frame type " +
                     std::to_string(static_cast<unsigned>(frame.type)) +
                     " is not a request");
      return;
  }
}

void Server::scheduler_loop() {
  while (true) {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    queue_cv_.wait(lock,
                   [this] { return stopping_.load() || !queue_.empty(); });
    if (stopping_.load()) break;

    // A tune search is a batch of its own: grouped with the encodes that
    // share its default spec, it would hold them for the whole search.
    const bool solo = queue_.front().type == FrameType::kTuneRequest;

    // Linger briefly so compatible requests arriving just behind the first
    // one join its batch instead of forming singleton batches.
    if (!solo && queue_.size() < config_.max_batch &&
        config_.batch_window.count() > 0) {
      queue_cv_.wait_for(lock, config_.batch_window, [this] {
        return stopping_.load() || queue_.size() >= config_.max_batch;
      });
      if (stopping_.load()) break;
    }

    std::vector<Request> batch;
    if (solo) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    } else {
      const CodecSpec spec = queue_.front().spec;
      for (auto it = queue_.begin();
           it != queue_.end() && batch.size() < config_.max_batch;) {
        if (it->type != FrameType::kTuneRequest && it->spec == spec) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    lock.unlock();

    {
      std::lock_guard<std::mutex> block(batch_mutex_);
      batches_inflight_.fetch_add(1);
    }
    pool_.submit([this, b = std::move(batch)]() mutable {
      run_batch(std::move(b));
    });
  }

  // Shutdown drain: every queued request gets a typed reply.
  std::deque<Request> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    leftover.swap(queue_);
  }
  for (const Request& req : leftover) {
    send_error(req.conn, req.seq, ErrorCode::kShuttingDown,
               to_string(ErrorCode::kShuttingDown));
    req.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::run_batch(std::vector<Request> batch) {
  const auto t0 = std::chrono::steady_clock::now();
  metrics_.batches.fetch_add(1, std::memory_order_relaxed);
  metrics_.batched_requests.fetch_add(batch.size(),
                                      std::memory_order_relaxed);
  try {
    // One coder per batch: the whole group shares its table and K.
    const codec::NineCoded coder = batch.front().spec.make_coder();
    for (const Request& req : batch) {
      // Shed before compute: a request that expired while queued gets its
      // typed reply now instead of a result nobody is waiting for.
      if (req.deadline.expired()) {
        metrics_.deadline_shed_queue.fetch_add(1, std::memory_order_relaxed);
        send_error(req.conn, req.seq, ErrorCode::kDeadlineExceeded,
                   "deadline expired before compute");
        finish_request(req);
        continue;
      }
      process_request(coder, req);
    }
  } catch (const std::exception& e) {
    // The spec itself is illegal: fail the whole batch as bad payloads.
    for (const Request& req : batch) {
      metrics_.bad_payloads.fetch_add(1, std::memory_order_relaxed);
      send_error(req.conn, req.seq, ErrorCode::kBadPayload, e.what());
      finish_request(req);
    }
  }
  metrics_.batch_latency.record(micros_since(t0));
  // Notify under the lock: once stop() sees zero it may destroy the CV.
  std::lock_guard<std::mutex> lock(batch_mutex_);
  batches_inflight_.fetch_sub(1);
  batches_done_cv_.notify_all();
}

void Server::process_request(const codec::NineCoded& coder,
                             const Request& req) {
  try {
    // The whole payload is the content address, so "same input, same
    // spec" (for tune: same TestSet, weights and seed) is by construction
    // the same artifact -- in L1, in the store across restarts, everywhere.
    const CacheKey key =
        cache_key(req.type, req.spec, req.payload.data(), req.payload.size());
    FrameType reply_type = FrameType::kTuneReply;
    std::vector<std::uint8_t> out;
    if (req.type == FrameType::kTuneRequest) {
      out = *resolve(key, [&] {
        metrics_.tune_searches.fetch_add(1, std::memory_order_relaxed);
        return tune_artifact(req.payload);
      });
    } else if (req.type == FrameType::kEncodeRequest) {
      reply_type = FrameType::kEncodeReply;
      out = *resolve(key, [&] { return encode_artifact(coder, req.payload); });
    } else {
      reply_type = FrameType::kDecodeReply;
      out = *resolve(key, [&] {
        return decode_artifact(coder, req.payload, req.deadline);
      });
    }
    // Shed before reply-write: computing may have outlived the deadline
    // (the artifact still landed in the cache for the retry to hit).
    if (req.deadline.expired()) {
      metrics_.deadline_shed_write.fetch_add(1, std::memory_order_relaxed);
      send_error(req.conn, req.seq, ErrorCode::kDeadlineExceeded,
                 "deadline expired before reply write");
    } else {
      Frame reply;
      reply.type = reply_type;
      reply.seq = req.seq;
      reply.payload = std::move(out);
      send_frame(req.conn, reply);
    }
  } catch (const codec::DecodeError& e) {
    // A watchdog trip caused by the request's own deadline is not a codec
    // failure -- the stream may be perfectly well-formed.
    if (req.deadline.expired()) {
      metrics_.deadline_shed_decode.fetch_add(1, std::memory_order_relaxed);
      send_error(req.conn, req.seq, ErrorCode::kDeadlineExceeded,
                 "deadline expired mid-decode");
    } else {
      metrics_.decode_failures.fetch_add(1, std::memory_order_relaxed);
      send_error(req.conn, req.seq, ErrorCode::kDecodeFailed, e.what());
    }
  } catch (const std::exception& e) {
    metrics_.bad_payloads.fetch_add(1, std::memory_order_relaxed);
    send_error(req.conn, req.seq, ErrorCode::kBadPayload, e.what());
  }
  finish_request(req);
}

std::optional<std::vector<std::uint8_t>> Server::resolve(
    const CacheKey& key,
    const std::function<std::vector<std::uint8_t>()>& compute) {
  const bool counted = static_cast<bool>(compute);
  const auto from_l1 = [&] {
    std::optional<std::vector<std::uint8_t>> hit = cache_.get(key);
    if (hit && counted)
      metrics_.l1_hits.fetch_add(1, std::memory_order_relaxed);
    return hit;
  };
  if (auto hit = from_l1()) return hit;
  const store::Key skey{key.lo, key.hi};
  store::ArtifactTier* tier = store_tier();
  if (tier != nullptr) {
    // L2: the persistent store. Any failure here -- corrupt record, I/O
    // error -- degrades to a miss.
    try {
      store::GetResult r = tier->get(skey);
      if (r.status == store::GetStatus::kHit) {
        // A concurrent twin that computed this artifact put it in L1 before
        // writing it through, so recheck L1: l2_hits counts only what
        // memory did not hold.
        if (auto hit = from_l1()) return hit;
        if (counted) metrics_.l2_hits.fetch_add(1, std::memory_order_relaxed);
        cache_.put(key, r.payload);  // promote to L1
        return std::move(r.payload);
      }
      if (r.status == store::GetStatus::kCorrupt)
        metrics_.revalidation_failures.fetch_add(1,
                                                 std::memory_order_relaxed);
    } catch (const std::exception&) {
    }
  }
  if (!counted) return std::nullopt;
  metrics_.misses.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::uint8_t> out = compute();
  cache_.put(key, out);
  if (tier != nullptr) store_write_through(skey, out);
  return out;
}

void Server::send_frame(const std::shared_ptr<Connection>& conn,
                        const Frame& frame) {
  if (conn->dead.load()) return;
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->dead.load()) return;
  try {
    if (config_.write_deadline.count() > 0) {
      // Bounded write: a peer that stops draining its socket costs at most
      // the write budget, never a wedged worker thread holding the write
      // mutex hostage.
      const core::Deadline budget =
          core::Deadline::after(config_.write_deadline, config_.clock);
      const std::size_t n =
          write_all_within(*conn->stream, bytes.data(), bytes.size(), budget);
      if (n != bytes.size()) {
        metrics_.write_timeouts.fetch_add(1, std::memory_order_relaxed);
        metrics_.slow_client_disconnects.fetch_add(1,
                                                   std::memory_order_relaxed);
        conn->dead.store(true);
        conn->stream->close();
        return;
      }
    } else {
      conn->stream->write_all(bytes.data(), bytes.size());
    }
    metrics_.bytes_out.fetch_add(bytes.size(), std::memory_order_relaxed);
  } catch (const std::exception&) {
    conn->dead.store(true);
    conn->stream->close();
  }
}

void Server::send_error(const std::shared_ptr<Connection>& conn,
                        std::uint64_t seq, ErrorCode code,
                        const std::string& detail) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.seq = seq;
  frame.payload = error_payload(code, detail);
  send_frame(conn, frame);
}

store::ArtifactTier* Server::store_tier() {
  if (tier_ == nullptr) return nullptr;
  const auto bench = store_resume_at_.load(std::memory_order_relaxed);
  if (bench != 0) {
    if (std::chrono::steady_clock::now().time_since_epoch().count() < bench)
      return nullptr;  // compute-only: the cooldown has not expired
    store_resume_at_.store(0, std::memory_order_relaxed);
  }
  return tier_;
}

void Server::store_write_through(const store::Key& key,
                                 const std::vector<std::uint8_t>& payload) {
  const unsigned attempts = std::max(1u, config_.store_put_attempts);
  const std::chrono::milliseconds cap =
      std::max(config_.store_backoff_cap, config_.store_backoff_initial);
  std::chrono::milliseconds backoff =
      std::max(config_.store_backoff_initial, std::chrono::milliseconds{1});
  // Seeded per-key jitter: workers whose writes failed together (one disk
  // hiccup) spread their retries instead of hammering in lockstep.
  std::uint64_t rng = config_.backoff_jitter_seed ^ key.lo ^ (key.hi << 1);
  core::Clock& clock = core::Clock::or_steady(config_.clock);
  for (unsigned attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      metrics_.store_put_retries.fetch_add(1, std::memory_order_relaxed);
      clock.sleep_for(core::equal_jitter(rng, backoff));
      backoff = std::min(backoff * 2, cap);
    }
    try {
      tier_->put(key, payload.data(), payload.size());
      return;
    } catch (const store::StoreError& e) {
      // Out of space will not heal inside our backoff window; retrying
      // just burns latency. Bench immediately.
      if (e.code() == store::StoreErrc::kNoSpace) break;
    } catch (const std::exception&) {
      // Transient I/O (or anything else): worth another attempt.
    }
  }
  // Write-through failed for good: the reply still went out (the artifact
  // lives in L1), but durability is gone. Bench the store so the next
  // requests skip straight to compute instead of stalling in retries.
  metrics_.store_put_failures.fetch_add(1, std::memory_order_relaxed);
  const auto resume = std::chrono::steady_clock::now() + config_.store_cooldown;
  store_resume_at_.store(resume.time_since_epoch().count(),
                         std::memory_order_relaxed);
}

void Server::finish_request(const Request& req) {
  req.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
  metrics_.requests_completed.fetch_add(1, std::memory_order_relaxed);
  metrics_.request_latency.record(micros_since(req.accepted));
}

std::vector<std::uint8_t> Server::stats_payload() const {
  const CacheStats cs = cache_.stats();
  std::string json;
  if (sharded_store_ != nullptr) {
    const store::ShardedStats ss = sharded_store_->stats();
    json = metrics_json(metrics_.snapshot(), &cs, nullptr, &ss).dump(0);
  } else if (store_ != nullptr) {
    const store::StoreStats ss = store_->stats();
    json = metrics_json(metrics_.snapshot(), &cs, &ss).dump(0);
  } else {
    json = metrics_json(metrics_.snapshot(), &cs).dump(0);
  }
  return std::vector<std::uint8_t>(json.begin(), json.end());
}

}  // namespace nc::serve
