// End-to-end tests of the compression service: request/reply correctness,
// cache hit byte-identity, admission control under saturation, typed error
// replies for corrupt frames, and clean shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bits/test_set.h"
#include "gen/cube_gen.h"
#include "serve/frame.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "tune/optimizer.h"

namespace nc::serve {
namespace {

using std::chrono::milliseconds;

bits::TestSet small_test_set() {
  return bits::TestSet::from_strings({
      "01XX10X0",
      "XX01XX11",
      "1X0X0X0X",
      "0110XXXX",
  });
}

/// One synchronous test client over an in-process pipe.
class TestClient {
 public:
  explicit TestClient(Server& server)
      : stream_(), reader_(nullptr) {
    auto [client_end, server_end] = make_pipe();
    server.serve(std::move(server_end));
    stream_ = std::move(client_end);
    reader_ = std::make_unique<FrameReader>(*stream_);
  }

  void send(const Frame& frame) { write_frame(*stream_, frame); }

  void send_raw(const std::vector<std::uint8_t>& bytes) {
    stream_->write_all(bytes.data(), bytes.size());
  }

  /// Next frame from the server (fails the test on timeout/EOF).
  Frame next(milliseconds timeout = milliseconds(5000)) {
    FrameReader::Result r = reader_->read(timeout);
    EXPECT_EQ(r.status, FrameReader::Status::kFrame)
        << "status " << static_cast<int>(r.status) << " detail " << r.detail;
    return r.frame;
  }

  /// Sends a request and waits for the reply with the same seq, skipping
  /// unrelated frames (e.g. seq-0 protocol error reports).
  Frame round_trip(const Frame& request,
                   milliseconds timeout = milliseconds(5000)) {
    send(request);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      FrameReader::Result r = reader_->read(milliseconds(100));
      if (r.status == FrameReader::Status::kFrame &&
          r.frame.seq == request.seq)
        return r.frame;
      if (r.status == FrameReader::Status::kEof) break;
    }
    ADD_FAILURE() << "no reply for seq " << request.seq;
    return Frame{};
  }

  ByteStream& stream() { return *stream_; }

 private:
  std::unique_ptr<ByteStream> stream_;
  std::unique_ptr<FrameReader> reader_;
};

Frame encode_request(std::uint64_t seq, const bits::TestSet& ts) {
  Frame f;
  f.type = FrameType::kEncodeRequest;
  f.seq = seq;
  f.payload = to_payload(EncodeRequest{CodecSpec{}, ts});
  return f;
}

TEST(ServeServerTest, SessionGrantEchoesConfiguredCap) {
  ServerConfig config;
  config.worker_threads = 2;
  config.inflight_cap = 5;
  Server server(config);
  TestClient client(server);

  Frame req;
  req.type = FrameType::kSessionRequest;
  req.seq = 1;
  req.payload = session_payload("tester");
  const Frame reply = client.round_trip(req);
  ASSERT_EQ(reply.type, FrameType::kSessionReply);
  const SessionGrant grant = parse_session_grant(reply.payload);
  EXPECT_GT(grant.client_id, 0u);
  EXPECT_EQ(grant.inflight_cap, 5u);
  server.stop();
}

TEST(ServeServerTest, EncodeAndDecodeRoundTrip) {
  ServerConfig config;
  config.worker_threads = 2;
  Server server(config);
  TestClient client(server);
  const bits::TestSet ts = small_test_set();
  const CodecSpec spec;
  const codec::NineCoded coder = spec.make_coder();

  const Frame enc_reply = client.round_trip(encode_request(1, ts));
  ASSERT_EQ(enc_reply.type, FrameType::kEncodeReply);
  const bits::TritVector te = parse_trits_payload(enc_reply.payload);
  EXPECT_EQ(te, coder.encode(ts.flatten()));

  Frame dec;
  dec.type = FrameType::kDecodeRequest;
  dec.seq = 2;
  DecodeRequest dr;
  dr.spec = spec;
  dr.patterns = ts.pattern_count();
  dr.width = ts.pattern_length();
  dr.te = te;
  dec.payload = to_payload(dr);
  const Frame dec_reply = client.round_trip(dec);
  ASSERT_EQ(dec_reply.type, FrameType::kDecodeReply);
  const bits::TestSet decoded = parse_test_set_payload(dec_reply.payload);
  // The decode resolves don't-cares; every specified stimulus bit must
  // survive exactly.
  ASSERT_EQ(decoded.pattern_count(), ts.pattern_count());
  EXPECT_TRUE(ts.flatten().covered_by(decoded.flatten()));
  server.stop();
}

TEST(ServeServerTest, CacheHitIsByteIdenticalToMiss) {
  ServerConfig config;
  config.worker_threads = 2;
  Server server(config);
  TestClient client(server);
  const bits::TestSet ts = small_test_set();

  const Frame first = client.round_trip(encode_request(1, ts));
  const Frame second = client.round_trip(encode_request(2, ts));
  ASSERT_EQ(first.type, FrameType::kEncodeReply);
  ASSERT_EQ(second.type, FrameType::kEncodeReply);
  EXPECT_EQ(first.payload, second.payload)
      << "a cache hit must be byte-identical to the miss that filled it";
  const CacheStats cs = server.cache_stats();
  EXPECT_GE(cs.hits, 1u);
  EXPECT_GE(cs.insertions, 1u);
  server.stop();
}

TEST(ServeServerTest, QueueSaturationYieldsTypedOverloadedReply) {
  ServerConfig config;
  config.worker_threads = 1;
  config.queue_capacity = 1;
  config.inflight_cap = 100;
  // A long batch window keeps the first request parked in the queue while
  // the rest arrive, making the rejection deterministic.
  config.batch_window = milliseconds(300);
  Server server(config);
  TestClient client(server);
  const bits::TestSet ts = small_test_set();

  const int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) client.send(encode_request(1 + i, ts));

  int ok = 0;
  int overloaded = 0;
  std::map<std::uint64_t, int> replies;
  for (int i = 0; i < kRequests; ++i) {
    const Frame reply = client.next();
    ++replies[reply.seq];
    if (reply.type == FrameType::kEncodeReply) ++ok;
    if (reply.type == FrameType::kError) {
      const ParsedError e = parse_error_payload(reply.payload);
      EXPECT_EQ(e.code, ErrorCode::kOverloaded);
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kRequests) << "every request gets a reply";
  EXPECT_GE(ok, 1);
  EXPECT_GE(overloaded, 1) << "saturation must reject, not stall";
  for (const auto& [seq, count] : replies)
    EXPECT_EQ(count, 1) << "seq " << seq << " answered more than once";
  EXPECT_GE(server.metrics_snapshot().requests_rejected_queue, 1u);
  server.stop();
}

TEST(ServeServerTest, InflightCapYieldsTypedReply) {
  ServerConfig config;
  config.worker_threads = 1;
  config.queue_capacity = 100;
  config.inflight_cap = 1;
  config.batch_window = milliseconds(300);
  Server server(config);
  TestClient client(server);
  const bits::TestSet ts = small_test_set();

  const int kRequests = 4;
  for (int i = 0; i < kRequests; ++i) client.send(encode_request(1 + i, ts));
  int ok = 0;
  int capped = 0;
  for (int i = 0; i < kRequests; ++i) {
    const Frame reply = client.next();
    if (reply.type == FrameType::kEncodeReply) ++ok;
    if (reply.type == FrameType::kError) {
      const ParsedError e = parse_error_payload(reply.payload);
      EXPECT_EQ(e.code, ErrorCode::kInflightLimit);
      ++capped;
    }
  }
  EXPECT_EQ(ok + capped, kRequests);
  EXPECT_GE(capped, 1);
  EXPECT_GE(server.metrics_snapshot().requests_rejected_inflight, 1u);
  server.stop();
}

TEST(ServeServerTest, QueuedRequestGetsShuttingDownWhenStopBegins) {
  ServerConfig config;
  config.worker_threads = 1;
  // The window keeps the admitted request queued until stop() has begun.
  config.batch_window = milliseconds(300);
  Server server(config);
  TestClient client(server);

  client.send(encode_request(1, small_test_set()));
  const auto give_up = std::chrono::steady_clock::now() + milliseconds(2000);
  while (server.metrics_snapshot().requests_accepted < 1 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(milliseconds(1));
  ASSERT_EQ(server.metrics_snapshot().requests_accepted, 1u);
  std::thread stopper([&server] { server.stop(); });

  const Frame reply = client.next();
  stopper.join();
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.seq, 1u);
  EXPECT_EQ(parse_error_payload(reply.payload).code,
            ErrorCode::kShuttingDown);
  EXPECT_EQ(server.metrics_snapshot().misses, 0u) << "it must not compute";
}

TEST(ServeServerTest, CorruptFrameGetsTypedErrorAndConnectionSurvives) {
  ServerConfig config;
  config.worker_threads = 2;
  Server server(config);
  TestClient client(server);
  const bits::TestSet ts = small_test_set();

  // A frame with a flipped payload byte: the server must reply with one
  // typed protocol error and keep the connection usable. The header CRC
  // passed, so the error names the request's seq.
  std::vector<std::uint8_t> bad = encode_frame(encode_request(1, ts));
  bad[kFrameHeaderSize + 3] ^= 0x40;
  client.send_raw(bad);
  const Frame err = client.next();
  ASSERT_EQ(err.type, FrameType::kError);
  EXPECT_EQ(err.seq, 1u);
  const ParsedError e = parse_error_payload(err.payload);
  EXPECT_EQ(e.code, ErrorCode::kBadCrc);

  const Frame reply = client.round_trip(encode_request(2, ts));
  EXPECT_EQ(reply.type, FrameType::kEncodeReply)
      << "connection must resync after a corrupt frame";
  EXPECT_GE(server.metrics_snapshot().protocol_errors, 1u);
  server.stop();
}

TEST(ServeServerTest, MalformedPayloadAndBadTypeAreTypedErrors) {
  ServerConfig config;
  config.worker_threads = 2;
  Server server(config);
  TestClient client(server);

  Frame bad_payload;
  bad_payload.type = FrameType::kEncodeRequest;
  bad_payload.seq = 1;
  bad_payload.payload = {1, 2, 3};  // shorter than a codec spec
  Frame reply = client.round_trip(bad_payload);
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(parse_error_payload(reply.payload).code, ErrorCode::kBadPayload);

  Frame bad_type;
  bad_type.type = FrameType::kEncodeReply;  // a reply is not a request
  bad_type.seq = 2;
  reply = client.round_trip(bad_type);
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(parse_error_payload(reply.payload).code, ErrorCode::kBadType);
  server.stop();
}

TEST(ServeServerTest, StatsReplyIsJson) {
  ServerConfig config;
  config.worker_threads = 2;
  Server server(config);
  TestClient client(server);
  client.round_trip(encode_request(1, small_test_set()));

  Frame stats;
  stats.type = FrameType::kStatsRequest;
  stats.seq = 9;
  const Frame reply = client.round_trip(stats);
  ASSERT_EQ(reply.type, FrameType::kStatsReply);
  const std::string json(reply.payload.begin(), reply.payload.end());
  EXPECT_NE(json.find("\"requests_accepted\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  server.stop();
}

TEST(ServeServerTest, StopIsIdempotentAndDestructorClean) {
  auto server = std::make_unique<Server>(ServerConfig{});
  TestClient client(*server);
  client.round_trip(encode_request(1, small_test_set()));
  server->stop();
  server->stop();
  server.reset();  // destructor after explicit stop must not hang
}

TEST(ServeServerTest, LoadgenCleanChannelAllByteIdentical) {
  ServerConfig sconfig;
  sconfig.worker_threads = 2;
  sconfig.queue_capacity = 256;
  sconfig.inflight_cap = 16;
  Server server(sconfig);

  LoadgenConfig lconfig;
  lconfig.clients = 4;
  lconfig.requests_per_client = 20;
  lconfig.pipeline = 4;
  lconfig.distinct = 3;
  lconfig.patterns = 8;
  lconfig.width = 32;
  const LoadgenStats stats = run_loadgen_inprocess(lconfig, server);
  EXPECT_TRUE(stats.clean()) << "mismatches " << stats.byte_mismatches
                             << " dup " << stats.duplicates << " unresolved "
                             << stats.unresolved;
  EXPECT_EQ(stats.requests,
            lconfig.clients * lconfig.requests_per_client);
  EXPECT_EQ(stats.byte_mismatches, 0u);
  server.stop();
}

TEST(ServeServerTest, LoadgenFaultInjectedChannelStaysClean) {
  ServerConfig sconfig;
  sconfig.worker_threads = 2;
  sconfig.queue_capacity = 256;
  sconfig.inflight_cap = 16;
  Server server(sconfig);

  LoadgenConfig lconfig;
  lconfig.clients = 8;
  lconfig.requests_per_client = 12;
  lconfig.pipeline = 3;
  lconfig.distinct = 3;
  lconfig.patterns = 8;
  lconfig.width = 32;
  lconfig.fault_period = 3;  // every 3rd transmit rides the faulty channel
  lconfig.channel.flip_rate = 2e-3;
  lconfig.channel.burst_rate = 1e-4;
  lconfig.channel.truncate_rate = 0.05;
  lconfig.retransmit_timeout = milliseconds(200);
  lconfig.deadline = milliseconds(20000);
  const LoadgenStats stats = run_loadgen_inprocess(lconfig, server);

  // The acceptance gate: zero lost, duplicated or corrupted responses --
  // every response is byte-identical to the serial reference or a typed
  // error, even with corrupted frames on the wire.
  EXPECT_TRUE(stats.clean()) << "mismatches " << stats.byte_mismatches
                             << " dup " << stats.duplicates << " unresolved "
                             << stats.unresolved;
  EXPECT_EQ(stats.requests,
            lconfig.clients * lconfig.requests_per_client);
  EXPECT_GT(stats.corrupted_sends, 0u)
      << "the channel must actually corrupt something for this test to bite";
  server.stop();
}

// Deterministic distinct test sets for the warm-restart soak; i selects the
// content, so the same i always produces the same request bytes.
bits::TestSet varied_test_set(int i) {
  std::vector<std::string> rows;
  for (int r = 0; r < 4; ++r) {
    std::string row;
    for (int c = 0; c < 8; ++c) {
      const int v = (i * 31 + r * 7 + c) % 3;
      row += v == 0 ? '0' : (v == 1 ? '1' : 'X');
    }
    rows.push_back(row);
  }
  return bits::TestSet::from_strings(rows);
}

// Warm-restart soak: run load against a server backed by the persistent
// store, stop it, reopen a fresh server on the same store directory and
// replay the same work. The warm server must (a) actually serve from the L2
// store (l2_hits > 0 -- it never computed these artifacts) and (b) return
// every reply byte-identical to its cold counterpart.
TEST(ServeServerTest, WarmRestartServesFromStoreByteIdentical) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "nc_serve_warm_restart_test";
  fs::remove_all(dir);

  ServerConfig sconfig;
  sconfig.worker_threads = 2;
  sconfig.queue_capacity = 256;
  sconfig.inflight_cap = 16;
  sconfig.store_dir = dir.string();

  LoadgenConfig lconfig;
  lconfig.clients = 4;
  lconfig.requests_per_client = 15;
  lconfig.pipeline = 4;
  lconfig.distinct = 3;
  lconfig.patterns = 8;
  lconfig.width = 32;

  constexpr int kProbes = 6;
  std::vector<std::vector<std::uint8_t>> cold(kProbes);
  {
    Server server(sconfig);
    const LoadgenStats stats = run_loadgen_inprocess(lconfig, server);
    EXPECT_TRUE(stats.clean()) << "cold soak not clean";
    TestClient client(server);
    for (int i = 0; i < kProbes; ++i) {
      const Frame reply =
          client.round_trip(encode_request(100 + i, varied_test_set(i)));
      ASSERT_EQ(reply.type, FrameType::kEncodeReply) << "probe " << i;
      cold[i] = reply.payload;
    }
    // A cold store can't have served anything: every artifact was computed.
    EXPECT_EQ(server.metrics_snapshot().l2_hits, 0u);
    EXPECT_GT(server.metrics_snapshot().misses, 0u);
    server.stop();
  }
  {
    Server server(sconfig);  // same store directory: reopen warm
    ASSERT_TRUE(server.has_store());
    EXPECT_TRUE(server.store_stats().recovered);
    EXPECT_GT(server.store_stats().records, 0u);

    const LoadgenStats stats = run_loadgen_inprocess(lconfig, server);
    EXPECT_TRUE(stats.clean()) << "warm soak not clean";

    TestClient client(server);
    for (int i = 0; i < kProbes; ++i) {
      const Frame reply =
          client.round_trip(encode_request(200 + i, varied_test_set(i)));
      ASSERT_EQ(reply.type, FrameType::kEncodeReply) << "probe " << i;
      EXPECT_EQ(reply.payload, cold[i])
          << "warm reply " << i << " differs from its cold counterpart";
    }
    EXPECT_GT(server.metrics_snapshot().l2_hits, 0u)
        << "the warm server never touched the persistent store";

    // The Stats reply now carries the store tier.
    Frame stats_req;
    stats_req.type = FrameType::kStatsRequest;
    stats_req.seq = 999;
    const Frame stats_reply = client.round_trip(stats_req);
    ASSERT_EQ(stats_reply.type, FrameType::kStatsReply);
    const std::string json(stats_reply.payload.begin(),
                           stats_reply.payload.end());
    EXPECT_NE(json.find("\"store\""), std::string::npos);
    EXPECT_NE(json.find("\"l2_hits\""), std::string::npos);
    server.stop();
  }
  fs::remove_all(dir);
}

// Satellite gate: the tiered lookup path must coexist with store
// maintenance. Loadgen traffic (cache off, so every hit is an L2 read)
// races a thread hammering fsck(repair) and compaction on the SAME store;
// nothing may be lost, duplicated, or byte-mangled. Run under TSan this
// also proves the locking, not just the outcome.
TEST(ServeServerTest, TieredLookupSurvivesConcurrentFsckAndCompaction) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "nc_serve_fsck_race_test";
  fs::remove_all(dir);

  ServerConfig sconfig;
  sconfig.worker_threads = 2;
  sconfig.queue_capacity = 256;
  sconfig.inflight_cap = 16;
  sconfig.cache_capacity = 0;  // L1 off: every repeat goes to the store
  sconfig.store_dir = dir.string();
  sconfig.store_segment_bytes = 2048;  // many small segments to compact

  LoadgenConfig lconfig;
  lconfig.clients = 4;
  lconfig.requests_per_client = 25;
  lconfig.pipeline = 4;
  lconfig.distinct = 5;
  lconfig.patterns = 8;
  lconfig.width = 32;

  {
    Server server(sconfig);
    ASSERT_NE(server.store(), nullptr);
    std::atomic<bool> stop_maintenance{false};
    std::thread maintenance([&] {
      while (!stop_maintenance.load()) {
        server.store()->fsck(/*repair=*/true);
        server.store()->compact(0.0);
      }
    });
    const LoadgenStats stats = run_loadgen_inprocess(lconfig, server);
    stop_maintenance.store(true);
    maintenance.join();

    EXPECT_TRUE(stats.clean())
        << "mismatches " << stats.byte_mismatches << " dup "
        << stats.duplicates << " unresolved " << stats.unresolved;
    EXPECT_GT(server.metrics_snapshot().l2_hits, 0u)
        << "cache-off soak never read the store; the race went untested";
    // Maintenance must not have manufactured or lost state.
    EXPECT_TRUE(server.store()->fsck(/*repair=*/false).clean);
    server.stop();
  }
  fs::remove_all(dir);
}

// Big deterministic test sets so the encoded artifacts exceed the stripe
// threshold -- shard-loss recovery is only interesting for striped records.
bits::TestSet big_test_set(int i) {
  std::vector<std::string> rows;
  for (int r = 0; r < 24; ++r) {
    std::string row;
    for (int c = 0; c < 96; ++c) {
      const int v = (i * 131 + r * 17 + c * 5) % 4;
      row += v == 0 ? '0' : (v == 1 ? '1' : 'X');
    }
    rows.push_back(row);
  }
  return bits::TestSet::from_strings(rows);
}

// Kill-one-shard recovery, end to end through the server: cold soak on a
// 4-shard erasure-coded tier, delete a whole shard directory, reopen warm.
// Every probe must come back byte-identical (reconstructed from the
// surviving k strips), the damage must be visible in the sharded stats,
// and a scrub must restore full redundancy.
TEST(ServeServerTest, ShardedWarmRestartSurvivesShardLoss) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "nc_serve_shard_loss_test";
  fs::remove_all(dir);

  ServerConfig sconfig;
  sconfig.worker_threads = 2;
  sconfig.queue_capacity = 256;
  sconfig.inflight_cap = 16;
  sconfig.cache_capacity = 0;  // warm replies must come from the store
  sconfig.store_dir = dir.string();
  sconfig.store_shards = 4;
  sconfig.store_parity = 1;
  sconfig.store_stripe_threshold = 64;  // stripe these small artifacts

  constexpr int kProbes = 8;
  std::vector<std::vector<std::uint8_t>> cold(kProbes);
  {
    Server server(sconfig);
    ASSERT_TRUE(server.has_sharded_store());
    TestClient client(server);
    for (int i = 0; i < kProbes; ++i) {
      const Frame reply =
          client.round_trip(encode_request(100 + i, big_test_set(i)));
      ASSERT_EQ(reply.type, FrameType::kEncodeReply) << "probe " << i;
      cold[i] = reply.payload;
    }
    const store::ShardedStats ss = server.sharded_store_stats();
    EXPECT_GT(ss.striped_puts, 0u)
        << "nothing striped; shard loss would be trivially survivable";
    server.stop();
  }

  fs::remove_all(dir / store::ShardedStore::shard_dir_name(2));

  {
    Server server(sconfig);
    ASSERT_TRUE(server.has_sharded_store());
    TestClient client(server);
    for (int i = 0; i < kProbes; ++i) {
      const Frame reply =
          client.round_trip(encode_request(200 + i, big_test_set(i)));
      ASSERT_EQ(reply.type, FrameType::kEncodeReply) << "probe " << i;
      EXPECT_EQ(reply.payload, cold[i])
          << "degraded reply " << i << " differs from its cold counterpart";
    }
    store::ShardedStats ss = server.sharded_store_stats();
    EXPECT_GT(ss.degraded_reads, 0u)
        << "shard loss was invisible; the probes never exercised erasure";
    EXPECT_EQ(ss.unrecoverable_reads, 0u);

    // Scrub through the server's own tier: redundancy comes back without
    // a restart, and a rerun confirms there is nothing left to repair.
    const store::ScrubReport scrub = server.sharded_store()->scrub();
    EXPECT_TRUE(scrub.full_redundancy);
    EXPECT_GT(scrub.strips_repaired + scrub.heads_repaired +
                  scrub.copies_repaired,
              0u);
    const store::ScrubReport again = server.sharded_store()->scrub();
    EXPECT_EQ(again.strips_repaired + again.heads_repaired +
                  again.copies_repaired,
              0u);
    server.stop();
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------- signature checking

/// A small deterministic signature stream: `cycles` cycles of `m` trits
/// with a sprinkling of X (the positions the tester cannot predict).
bits::TritVector signature_stream(std::size_t m, std::size_t cycles,
                                  int salt) {
  bits::TritVector v(m * cycles, bits::Trit::Zero);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const int r = (static_cast<int>(i) * 13 + salt * 7) % 9;
    v.set(i, r == 0 ? bits::Trit::X
                    : r % 2 ? bits::Trit::One : bits::Trit::Zero);
  }
  return v;
}

Frame publish_request(std::uint64_t seq, const SignaturePublish& pub) {
  Frame f;
  f.type = FrameType::kSignaturePublishRequest;
  f.seq = seq;
  f.payload = to_payload(pub);
  return f;
}

Frame check_request(std::uint64_t seq, const SignatureCheck& chk) {
  Frame f;
  f.type = FrameType::kSignatureCheckRequest;
  f.seq = seq;
  f.payload = to_payload(chk);
  return f;
}

TEST(ServeServerTest, SignaturePublishCheckRoundTrip) {
  ServerConfig config;
  config.worker_threads = 2;
  Server server(config);
  TestClient client(server);

  SignaturePublish pub;
  pub.outputs_per_cycle = 5;
  pub.cycles = 8;
  pub.expected = signature_stream(5, 8, 1);

  // Publish returns the content address of the payload; republishing is
  // idempotent and returns the same ref.
  const Frame reply1 = client.round_trip(publish_request(1, pub));
  ASSERT_EQ(reply1.type, FrameType::kSignaturePublishReply);
  const SignatureRef ref = parse_signature_ref(reply1.payload);
  const std::vector<std::uint8_t> payload = to_payload(pub);
  const CacheKey key = signature_ref_key(payload.data(), payload.size());
  EXPECT_EQ(ref.lo, key.lo);
  EXPECT_EQ(ref.hi, key.hi);
  const Frame reply2 = client.round_trip(publish_request(2, pub));
  ASSERT_EQ(reply2.type, FrameType::kSignaturePublishReply);
  EXPECT_EQ(parse_signature_ref(reply2.payload), ref);

  // A matching device upload passes; the reply bytes are exactly what the
  // shared check routine computes locally.
  bits::TritVector observed = pub.expected;
  for (std::size_t i = 0; i < observed.size(); ++i)
    if (observed.get(i) == bits::Trit::X) observed.set(i, bits::Trit::One);
  const Frame ok = client.round_trip(check_request(3, {ref, observed}));
  ASSERT_EQ(ok.type, FrameType::kSignatureCheckReply);
  EXPECT_EQ(ok.payload,
            check_verdict_payload(compact::check_signatures(
                pub.expected, observed, pub.outputs_per_cycle)));
  EXPECT_TRUE(parse_check_verdict(ok.payload).pass);

  // Flip one care bit: the server must report the same failing verdict a
  // local analyzer computes, byte for byte.
  bits::TritVector bad = observed;
  for (std::size_t i = 0; i < bad.size(); ++i)
    if (pub.expected.get(i) != bits::Trit::X) {
      bad.set(i, pub.expected.get(i) == bits::Trit::One ? bits::Trit::Zero
                                                        : bits::Trit::One);
      break;
    }
  const Frame fail = client.round_trip(check_request(4, {ref, bad}));
  ASSERT_EQ(fail.type, FrameType::kSignatureCheckReply);
  EXPECT_EQ(fail.payload,
            check_verdict_payload(compact::check_signatures(
                pub.expected, bad, pub.outputs_per_cycle)));
  const compact::CheckVerdict verdict = parse_check_verdict(fail.payload);
  EXPECT_FALSE(verdict.pass);
  EXPECT_EQ(verdict.first_mismatch_cycle, 0u);

  const Metrics::Snapshot m = server.metrics_snapshot();
  EXPECT_EQ(m.signature_publishes, 2u);
  EXPECT_EQ(m.signature_checks, 2u);
  EXPECT_EQ(m.signature_mismatches, 1u);
  EXPECT_EQ(m.signature_unknown_refs, 0u);
  server.stop();
}

TEST(ServeServerTest, SignatureCheckUnknownRefIsTypedError) {
  ServerConfig config;
  config.worker_threads = 2;
  Server server(config);
  TestClient client(server);

  SignatureCheck chk;
  chk.ref = SignatureRef{0xDEAD, 0xBEEF};  // never published
  chk.observed = signature_stream(4, 4, 2);
  const Frame reply = client.round_trip(check_request(1, chk));
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(parse_error_payload(reply.payload).code,
            ErrorCode::kUnknownSignature);
  EXPECT_EQ(server.metrics_snapshot().signature_unknown_refs, 1u);

  // Malformed check payloads are kBadPayload, not a crash.
  Frame garbage;
  garbage.type = FrameType::kSignatureCheckRequest;
  garbage.seq = 2;
  garbage.payload = {1, 2, 3};
  const Frame bad = client.round_trip(garbage);
  ASSERT_EQ(bad.type, FrameType::kError);
  EXPECT_EQ(parse_error_payload(bad.payload).code, ErrorCode::kBadPayload);
  server.stop();
}

TEST(ServeServerTest, SignatureWarmRestartChecksFromStore) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "nc_serve_sig_warm_test";
  fs::remove_all(dir);

  ServerConfig sconfig;
  sconfig.worker_threads = 2;
  sconfig.store_dir = dir.string();

  SignaturePublish pub;
  pub.outputs_per_cycle = 6;
  pub.cycles = 10;
  pub.expected = signature_stream(6, 10, 3);
  bits::TritVector observed = pub.expected;
  for (std::size_t i = 0; i < observed.size(); ++i)
    if (observed.get(i) == bits::Trit::X) observed.set(i, bits::Trit::Zero);

  SignatureRef ref;
  std::vector<std::uint8_t> cold_reply;
  {
    Server server(sconfig);
    TestClient client(server);
    const Frame preply = client.round_trip(publish_request(1, pub));
    ASSERT_EQ(preply.type, FrameType::kSignaturePublishReply);
    ref = parse_signature_ref(preply.payload);
    const Frame creply = client.round_trip(check_request(2, {ref, observed}));
    ASSERT_EQ(creply.type, FrameType::kSignatureCheckReply);
    cold_reply = creply.payload;
    server.stop();
  }
  {
    // Fresh server, same store: the published stream must be resolvable
    // from the persistent tier alone, with a byte-identical verdict.
    Server server(sconfig);
    TestClient client(server);
    const Frame creply = client.round_trip(check_request(5, {ref, observed}));
    ASSERT_EQ(creply.type, FrameType::kSignatureCheckReply);
    EXPECT_EQ(creply.payload, cold_reply);
    server.stop();
  }
  fs::remove_all(dir);
}

TEST(ServeServerTest, LoadgenSignatureChecksFaultInjectedStaysClean) {
  ServerConfig sconfig;
  sconfig.worker_threads = 2;
  sconfig.queue_capacity = 256;
  sconfig.inflight_cap = 16;
  Server server(sconfig);

  LoadgenConfig lconfig;
  lconfig.clients = 4;
  lconfig.requests_per_client = 16;
  lconfig.pipeline = 3;
  lconfig.distinct = 2;
  lconfig.patterns = 8;
  lconfig.width = 32;
  lconfig.signature_checks = 6;  // fault-free device + 5 faulty devices
  lconfig.fault_period = 3;
  lconfig.channel.flip_rate = 2e-3;
  lconfig.channel.truncate_rate = 0.05;
  lconfig.retransmit_timeout = milliseconds(200);
  lconfig.deadline = milliseconds(30000);
  const LoadgenStats stats = run_loadgen_inprocess(lconfig, server);

  // The acceptance gate of the tentpole: under an injected-fault channel,
  // every signature-check reply the clients saw was byte-identical to the
  // locally computed compact::check_signatures verdict (a mismatch counts
  // as byte_mismatches), and no check outran its publish.
  EXPECT_TRUE(stats.clean())
      << "mismatches " << stats.byte_mismatches << " dup "
      << stats.duplicates << " unresolved " << stats.unresolved
      << " sig-unknown " << stats.signature_unknowns;
  EXPECT_EQ(stats.requests, lconfig.clients * lconfig.requests_per_client);
  EXPECT_GT(stats.corrupted_sends, 0u);

  const Metrics::Snapshot m = server.metrics_snapshot();
  EXPECT_GT(m.signature_publishes, 0u);
  EXPECT_GT(m.signature_checks, 0u);
  EXPECT_EQ(m.signature_unknown_refs, 0u);
  server.stop();
}

// ---- code tuning over the wire ------------------------------------------

Frame tune_frame(std::uint64_t seq, const TuneRequest& req) {
  Frame f;
  f.type = FrameType::kTuneRequest;
  f.seq = seq;
  f.payload = to_payload(req);
  return f;
}

TuneRequest small_tune_request() {
  TuneRequest req;
  req.seed = 42;
  req.generations = 2;
  req.population = 4;
  req.tests = small_test_set();
  return req;
}

TEST(ServeServerTest, TuneComputesOnceThenServesFromCache) {
  ServerConfig config;
  config.worker_threads = 2;
  Server server(config);
  TestClient client(server);
  const TuneRequest req = small_tune_request();

  const Frame first = client.round_trip(tune_frame(1, req));
  ASSERT_EQ(first.type, FrameType::kTuneReply);
  const TuneReplyData reply = parse_tune_reply(first.payload);
  EXPECT_EQ(reply.evaluations, std::size_t{req.generations} * req.population);
  EXPECT_GE(reply.cr_percent, 0.0);
  EXPECT_GT(reply.fsm_gates, 0u);

  const Frame second = client.round_trip(tune_frame(2, req));
  ASSERT_EQ(second.type, FrameType::kTuneReply);
  EXPECT_EQ(second.payload, first.payload)
      << "the repeated tune request must come back byte-identical";

  const Metrics::Snapshot m = server.metrics_snapshot();
  EXPECT_EQ(m.tune_requests, 2u);
  EXPECT_EQ(m.tune_searches, 1u) << "the second request must not re-search";
  EXPECT_GE(m.l1_hits, 1u);
  server.stop();
}

TEST(ServeServerTest, TuneReplyMatchesLocalSearchExactly) {
  // The server runs the same deterministic optimizer a local `ninec tune`
  // would, so its artifact must equal the local result bit for bit --
  // that is what makes the content-addressed caching sound.
  ServerConfig config;
  config.worker_threads = 2;
  Server server(config);
  TestClient client(server);
  const TuneRequest req = small_tune_request();

  const Frame frame = client.round_trip(tune_frame(1, req));
  ASSERT_EQ(frame.type, FrameType::kTuneReply);
  const TuneReplyData reply = parse_tune_reply(frame.payload);

  tune::TuneConfig cfg;
  cfg.seed = req.seed;
  cfg.generations = req.generations;
  cfg.population = req.population;
  cfg.weights =
      tune::TuneWeights{req.weight_cr, req.weight_tat, req.weight_gates,
                        req.p};
  const tune::TuneResult local = tune::run_tune(req.tests, cfg);
  EXPECT_EQ(reply.genome, local.best);
  EXPECT_EQ(reply.score, local.best_report.score);
  EXPECT_GE(reply.score, local.standard_report.score);
  EXPECT_GE(reply.score, local.frequency_directed_report.score);
  server.stop();
}

TEST(ServeServerTest, TuneWarmRestartServesFromStore) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "nc_serve_tune_warm_test";
  fs::remove_all(dir);

  ServerConfig sconfig;
  sconfig.worker_threads = 2;
  sconfig.store_dir = dir.string();
  const TuneRequest req = small_tune_request();

  std::vector<std::uint8_t> cold;
  {
    Server server(sconfig);
    TestClient client(server);
    const Frame reply = client.round_trip(tune_frame(1, req));
    ASSERT_EQ(reply.type, FrameType::kTuneReply);
    cold = reply.payload;
    EXPECT_EQ(server.metrics_snapshot().tune_searches, 1u);
    server.stop();
  }
  {
    Server server(sconfig);  // same store directory: reopen warm
    ASSERT_TRUE(server.has_store());
    TestClient client(server);
    const Frame reply = client.round_trip(tune_frame(2, req));
    ASSERT_EQ(reply.type, FrameType::kTuneReply);
    EXPECT_EQ(reply.payload, cold)
        << "the warm tune artifact differs from the cold search";
    const Metrics::Snapshot m = server.metrics_snapshot();
    EXPECT_EQ(m.tune_searches, 0u)
        << "a warm restart must answer from the store, not re-search";
    EXPECT_GE(m.l2_hits, 1u);
    server.stop();
  }
  fs::remove_all(dir);
}

TEST(ServeServerTest, TuneBadPayloadsAreTypedErrors) {
  ServerConfig config;
  config.worker_threads = 2;
  Server server(config);
  TestClient client(server);

  Frame junk;
  junk.type = FrameType::kTuneRequest;
  junk.seq = 1;
  junk.payload = {9, 9, 9};  // far too short
  Frame reply = client.round_trip(junk);
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(parse_error_payload(reply.payload).code, ErrorCode::kBadPayload);

  // Well-formed but over the search caps: same typed rejection.
  TuneRequest oversized = small_tune_request();
  oversized.generations = kMaxTuneGenerations + 1;
  reply = client.round_trip(tune_frame(2, oversized));
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(parse_error_payload(reply.payload).code, ErrorCode::kBadPayload);

  // The connection survives both and still serves good requests.
  const Frame good = client.round_trip(tune_frame(3, small_tune_request()));
  EXPECT_EQ(good.type, FrameType::kTuneReply);
  server.stop();
}

// Head-of-line probe: a tune search and a cheap encode share the paper's
// default spec. A tune is always a batch of its own, so with two workers
// the encode runs beside the search instead of waiting behind it.
TEST(ServeServerTest, CheapEncodeIsNotHeldBehindATuneSearch) {
  ServerConfig config;
  config.worker_threads = 2;
  Server server(config);
  TestClient tuner(server);
  TestClient encoder(server);

  TuneRequest tr;
  tr.generations = 20;
  tr.population = 24;
  tr.tests = gen::calibrated_cubes(gen::iscas89_profile("s38417"));
  tuner.send(tune_frame(1, tr));
  std::chrono::steady_clock::time_point tune_replied;
  Frame tune_reply;
  std::thread tune_reader([&] {
    tune_reply = tuner.next(milliseconds(60000));
    tune_replied = std::chrono::steady_clock::now();
  });
  std::this_thread::sleep_for(std::chrono::microseconds(200));

  const auto sent = std::chrono::steady_clock::now();
  const Frame reply = encoder.round_trip(encode_request(2, small_test_set()));
  const auto encode_replied = std::chrono::steady_clock::now();
  tune_reader.join();

  ASSERT_EQ(reply.type, FrameType::kEncodeReply);
  ASSERT_EQ(tune_reply.type, FrameType::kTuneReply);
  EXPECT_LT(encode_replied - sent, milliseconds(20));
  EXPECT_LT(encode_replied, tune_replied)
      << "the encode waited for the tune search";
  server.stop();
}

TEST(ServeServerTest, TuneAndEncodeRequestsCoexistInMixedTraffic) {
  ServerConfig config;
  config.worker_threads = 2;
  Server server(config);
  TestClient client(server);

  // Interleave: tune requests ride the default spec, the same as these
  // encodes; the scheduler keeps each tune in a batch of its own and
  // dispatch must still route each to its own handler.
  const Frame enc1 = client.round_trip(encode_request(1, small_test_set()));
  const Frame tun1 = client.round_trip(tune_frame(2, small_tune_request()));
  const Frame enc2 = client.round_trip(encode_request(3, small_test_set()));
  ASSERT_EQ(enc1.type, FrameType::kEncodeReply);
  ASSERT_EQ(tun1.type, FrameType::kTuneReply);
  ASSERT_EQ(enc2.type, FrameType::kEncodeReply);
  EXPECT_EQ(enc1.payload, enc2.payload);

  // Stats reply carries the tune counters.
  Frame stats;
  stats.type = FrameType::kStatsRequest;
  stats.seq = 9;
  const Frame sreply = client.round_trip(stats);
  ASSERT_EQ(sreply.type, FrameType::kStatsReply);
  const std::string json(sreply.payload.begin(), sreply.payload.end());
  EXPECT_NE(json.find("\"tune\""), std::string::npos);
  EXPECT_NE(json.find("\"searches\""), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace nc::serve
