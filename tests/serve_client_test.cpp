// RetryingClient behavior against a scripted fake peer: jittered backoff
// retransmits on a virtual clock, retry-budget exhaustion, one-shot hedges,
// reconnect-on-fault re-arming, duplicate accounting, the
// wait-out-the-backoff handling of retryable typed rejections, and the
// immediate resend of a frame the server reports mangled by seq.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bits/test_set.h"
#include "core/clock.h"
#include "serve/client.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace nc::serve {
namespace {

using std::chrono::milliseconds;

/// The server side of every connection the client's factory opened. Tests
/// script it synchronously: read what the client transmitted, reply (or
/// not, or kill the connection).
class FakePeer {
 public:
  RetryingClient::Connect factory() {
    return [this] {
      auto [client_end, server_end] = make_pipe();
      ends_.push_back(std::move(server_end));
      readers_.push_back(
          std::make_unique<FrameReader>(*ends_.back(), FrameLimits{}));
      return std::move(client_end);
    };
  }

  /// Next frame on the newest connection; nullopt on timeout or a
  /// non-frame result (EOF, protocol error).
  std::optional<Frame> read(milliseconds timeout = milliseconds(1000)) {
    FrameReader::Result r = readers_.back()->read(timeout);
    if (r.status == FrameReader::Status::kFrame) return r.frame;
    last_status_ = r.status;
    return std::nullopt;
  }

  FrameReader::Status last_status() const { return last_status_; }

  void reply(const Frame& f) { write_frame(*ends_.back(), f); }

  void reply_ok(std::uint64_t seq, std::vector<std::uint8_t> payload) {
    Frame f;
    f.type = FrameType::kEncodeReply;
    f.seq = seq;
    f.payload = std::move(payload);
    reply(f);
  }

  void reply_error(std::uint64_t seq, ErrorCode code) {
    Frame f;
    f.type = FrameType::kError;
    f.seq = seq;
    f.payload = error_payload(code, to_string(code));
    reply(f);
  }

  void kill() { ends_.back()->close(); }

  std::size_t connections() const { return ends_.size(); }

 private:
  std::vector<std::unique_ptr<ByteStream>> ends_;
  std::vector<std::unique_ptr<FrameReader>> readers_;
  FrameReader::Status last_status_ = FrameReader::Status::kTimeout;
};

TEST(RetryingClientTest, ReplyResolvesRequestAndStampsDeadline) {
  FakePeer peer;
  RetryPolicy policy;
  policy.request_deadline_ms = 750;
  RetryingClient client(peer.factory(), policy);

  const std::uint64_t seq =
      client.submit(FrameType::kEncodeRequest, {1, 2, 3});
  EXPECT_EQ(client.inflight(), 1u);
  const auto got = peer.read();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, seq);
  EXPECT_EQ(got->deadline_ms, 750u) << "policy deadline must ride the frame";
  EXPECT_EQ(got->payload, (std::vector<std::uint8_t>{1, 2, 3}));

  peer.reply_ok(seq, {9, 9});
  const auto resolved = client.poll(milliseconds(1000));
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].first, seq);
  EXPECT_EQ(resolved[0].second.status,
            RetryingClient::Outcome::Status::kReply);
  EXPECT_EQ(resolved[0].second.reply.payload,
            (std::vector<std::uint8_t>{9, 9}));
  EXPECT_EQ(resolved[0].second.transmits, 1u);
  EXPECT_EQ(client.inflight(), 0u);
  client.close();
}

TEST(RetryingClientTest, RetransmitWaitsOutJitteredBackoffOnVirtualClock) {
  core::VirtualClock clock;
  FakePeer peer;
  RetryPolicy policy;
  policy.initial_backoff = milliseconds(100);
  policy.backoff_cap = milliseconds(400);
  policy.clock = &clock;
  policy.seed = 5;
  RetryingClient client(peer.factory(), policy);

  const std::uint64_t seq = client.submit(FrameType::kEncodeRequest, {4});
  ASSERT_TRUE(peer.read().has_value());

  // Virtual time has not moved: the backoff (jittered within [50, 100] ms)
  // cannot be due, so polling must not retransmit.
  client.poll(milliseconds(5));
  EXPECT_EQ(client.stats().retransmits, 0u);

  clock.advance(milliseconds(101));  // past any jitter draw of backoff 1
  client.poll(milliseconds(5));
  EXPECT_EQ(client.stats().retransmits, 1u);
  EXPECT_EQ(client.stats().timeouts, 1u);
  ASSERT_TRUE(peer.read().has_value()) << "retransmit did not hit the wire";

  // Backoff doubled to 200 ms: an advance inside [0, 100) must stay quiet.
  clock.advance(milliseconds(90));
  client.poll(milliseconds(5));
  EXPECT_EQ(client.stats().retransmits, 1u);
  clock.advance(milliseconds(201));
  client.poll(milliseconds(5));
  EXPECT_EQ(client.stats().retransmits, 2u);
  ASSERT_TRUE(peer.read().has_value());

  peer.reply_ok(seq, {0});
  const auto resolved = client.poll(milliseconds(1000));
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].second.transmits, 3u);
  client.close();
}

TEST(RetryingClientTest, ExhaustsAfterMaxAttempts) {
  core::VirtualClock clock;
  FakePeer peer;
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = milliseconds(100);
  policy.clock = &clock;
  RetryingClient client(peer.factory(), policy);

  client.submit(FrameType::kEncodeRequest, {1});
  clock.advance(milliseconds(300));
  client.poll(milliseconds(5));  // second (final) transmit
  EXPECT_EQ(client.stats().retransmits, 1u);

  clock.advance(milliseconds(1000));
  const auto resolved = client.poll(milliseconds(5));
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].second.status,
            RetryingClient::Outcome::Status::kExhausted);
  EXPECT_EQ(resolved[0].second.detail, "retransmit attempts exhausted");
  EXPECT_EQ(resolved[0].second.transmits, 2u);
  EXPECT_EQ(client.inflight(), 0u);
  client.close();
}

TEST(RetryingClientTest, RetryBudgetIsSharedAcrossRequests) {
  core::VirtualClock clock;
  FakePeer peer;
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = milliseconds(100);
  policy.retry_budget = 1;  // ONE retransmit for the whole client
  policy.clock = &clock;
  RetryingClient client(peer.factory(), policy);

  client.submit(FrameType::kEncodeRequest, {1});
  client.submit(FrameType::kEncodeRequest, {2});
  clock.advance(milliseconds(300));
  // First due request spends the budget; the second fails fast instead of
  // independently grinding through its own attempts.
  auto resolved = client.poll(milliseconds(5));
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].second.status,
            RetryingClient::Outcome::Status::kExhausted);
  EXPECT_EQ(resolved[0].second.detail, "client retry budget spent");
  EXPECT_EQ(client.stats().retransmits, 1u);
  EXPECT_EQ(client.stats().budget_denied, 1u);

  clock.advance(milliseconds(1000));
  resolved = client.poll(milliseconds(5));
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].second.detail, "client retry budget spent");
  EXPECT_EQ(client.stats().budget_denied, 2u);
  EXPECT_EQ(client.inflight(), 0u);
  client.close();
}

TEST(RetryingClientTest, HedgeFiresOnceAndCountsAsWin) {
  core::VirtualClock clock;
  FakePeer peer;
  RetryPolicy policy;
  policy.initial_backoff = milliseconds(5000);  // timer stays out of the way
  policy.hedge_after = milliseconds(100);
  policy.clock = &clock;
  RetryingClient client(peer.factory(), policy);

  const std::uint64_t seq = client.submit(FrameType::kEncodeRequest, {7});
  ASSERT_TRUE(peer.read().has_value());

  clock.advance(milliseconds(150));
  client.poll(milliseconds(5));
  EXPECT_EQ(client.stats().hedges, 1u);
  const auto hedge = peer.read();
  ASSERT_TRUE(hedge.has_value()) << "hedge transmit did not hit the wire";
  EXPECT_EQ(hedge->seq, seq);

  // One duplicate per request, ever: more silence must not hedge again.
  clock.advance(milliseconds(500));
  client.poll(milliseconds(5));
  EXPECT_EQ(client.stats().hedges, 1u);

  peer.reply_ok(seq, {1});
  const auto resolved = client.poll(milliseconds(1000));
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_TRUE(resolved[0].second.hedged);
  EXPECT_TRUE(resolved[0].second.hedge_won);
  EXPECT_EQ(client.stats().hedge_wins, 1u);
  client.close();
}

TEST(RetryingClientTest, ReconnectsOnPeerCloseAndRecovers) {
  FakePeer peer;
  RetryPolicy policy;
  policy.initial_backoff = milliseconds(50);
  RetryingClient client(peer.factory(), policy);
  EXPECT_EQ(peer.connections(), 1u);

  const std::uint64_t seq = client.submit(FrameType::kEncodeRequest, {3});
  ASSERT_TRUE(peer.read().has_value());
  peer.kill();

  // EOF triggers the reconnect; the pending request is re-armed for prompt
  // retransmission on the fresh connection.
  client.poll(milliseconds(500));
  EXPECT_EQ(client.stats().reconnects, 1u);
  EXPECT_EQ(peer.connections(), 2u);
  client.poll(milliseconds(5));
  const auto retransmitted = peer.read();
  ASSERT_TRUE(retransmitted.has_value());
  EXPECT_EQ(retransmitted->seq, seq);

  peer.reply_ok(seq, {8});
  const auto resolved = client.poll(milliseconds(1000));
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].second.status,
            RetryingClient::Outcome::Status::kReply);
  client.close();
}

TEST(RetryingClientTest, UnexplainedDuplicateReplyIsCounted) {
  FakePeer peer;
  RetryingClient client(peer.factory(), RetryPolicy{});

  const std::uint64_t seq = client.submit(FrameType::kEncodeRequest, {5});
  ASSERT_TRUE(peer.read().has_value());
  peer.reply_ok(seq, {1});
  ASSERT_EQ(client.poll(milliseconds(1000)).size(), 1u);

  // The request was transmitted exactly once, so a second reply can only
  // be a server-side duplication bug.
  peer.reply_ok(seq, {1});
  client.poll(milliseconds(500));
  EXPECT_EQ(client.stats().duplicates, 1u);
  client.close();
}

TEST(RetryingClientTest, RetryableRejectionWaitsOutBackoffThenRetransmits) {
  core::VirtualClock clock;
  FakePeer peer;
  RetryPolicy policy;
  policy.initial_backoff = milliseconds(100);
  policy.clock = &clock;
  RetryingClient client(peer.factory(), policy);

  const std::uint64_t seq = client.submit(FrameType::kEncodeRequest, {6});
  ASSERT_TRUE(peer.read().has_value());
  peer.reply_error(seq, ErrorCode::kDeadlineExceeded);

  // The rejection is counted but must NOT trigger an inline retransmit --
  // hammering an overloaded server defeats the backoff.
  client.poll(milliseconds(500));
  EXPECT_EQ(client.stats().typed_rejections, 1u);
  EXPECT_EQ(client.stats().deadline_rejections, 1u);
  EXPECT_EQ(client.stats().retransmits, 0u);
  EXPECT_EQ(client.inflight(), 1u) << "retryable rejection must not resolve";

  clock.advance(milliseconds(201));
  client.poll(milliseconds(5));
  EXPECT_EQ(client.stats().retransmits, 1u);
  ASSERT_TRUE(peer.read().has_value());
  peer.reply_ok(seq, {2});
  const auto resolved = client.poll(milliseconds(1000));
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].second.status,
            RetryingClient::Outcome::Status::kReply);
  client.close();
}

TEST(RetryingClientTest, TerminalTypedErrorResolvesImmediately) {
  FakePeer peer;
  RetryingClient client(peer.factory(), RetryPolicy{});
  const std::uint64_t seq = client.submit(FrameType::kEncodeRequest, {1});
  ASSERT_TRUE(peer.read().has_value());
  peer.reply_error(seq, ErrorCode::kBadPayload);  // not retryable
  const auto resolved = client.poll(milliseconds(1000));
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].second.status,
            RetryingClient::Outcome::Status::kTypedError);
  EXPECT_EQ(resolved[0].second.error, ErrorCode::kBadPayload);
  client.close();
}

TEST(RetryingClientTest, TransmitHookCorruptionIsRecoveredByRetry) {
  core::VirtualClock clock;
  FakePeer peer;
  RetryPolicy policy;
  policy.initial_backoff = milliseconds(100);
  policy.clock = &clock;
  RetryingClient client(peer.factory(), policy);
  int transmit_no = 0;
  client.set_transmit_hook([&transmit_no](std::vector<std::uint8_t> bytes) {
    if (++transmit_no == 1) bytes[bytes.size() / 2] ^= 0x40;
    return bytes;
  });

  const std::uint64_t seq = client.submit(FrameType::kEncodeRequest,
                                          {1, 2, 3, 4, 5, 6, 7, 8});
  // The wire saw a mangled frame: the peer's reader reports a protocol
  // error, answers with a seq-0 frame-layer report...
  EXPECT_FALSE(peer.read(milliseconds(200)).has_value());
  Frame report;
  report.type = FrameType::kError;
  report.seq = 0;
  report.payload = error_payload(ErrorCode::kBadCrc, "crc mismatch");
  peer.reply(report);
  client.poll(milliseconds(500));
  EXPECT_EQ(client.stats().frame_errors, 1u);

  // ...and the retransmit timer recovers the request with clean bytes.
  clock.advance(milliseconds(201));
  client.poll(milliseconds(5));
  const auto retry = peer.read();
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->seq, seq);
  peer.reply_ok(seq, {1});
  ASSERT_EQ(client.poll(milliseconds(1000)).size(), 1u);
  client.close();
}

// The server echoes the seq of a frame whose header CRC passed but whose
// payload did not, so the client resends that request at once. The clock
// never advances: the retransmit timer cannot be what recovers it.
TEST(RetryingClientTest, EchoedBadCrcIsResentWithoutWaitingForTheTimer) {
  core::VirtualClock clock;
  ServerConfig config;
  config.worker_threads = 1;
  Server server(config);
  RetryPolicy policy;
  policy.clock = &clock;
  RetryingClient client(
      [&server] {
        auto [client_end, server_end] = make_pipe();
        server.serve(std::move(server_end));
        return std::move(client_end);
      },
      policy);
  int transmit_no = 0;
  client.set_transmit_hook([&transmit_no](std::vector<std::uint8_t> bytes) {
    if (++transmit_no == 1) bytes[kFrameHeaderSize + 3] ^= 0x40;
    return bytes;
  });

  const bits::TestSet ts =
      bits::TestSet::from_strings({"01XX10X0", "XX01XX11"});
  const std::uint64_t seq = client.submit(
      FrameType::kEncodeRequest, to_payload(EncodeRequest{CodecSpec{}, ts}));
  std::optional<RetryingClient::Outcome> outcome;
  for (int i = 0; i < 100 && !outcome; ++i)
    for (auto& [s, o] : client.poll(milliseconds(20)))
      if (s == seq) outcome = std::move(o);

  ASSERT_TRUE(outcome.has_value()) << "the mangled request never resolved";
  ASSERT_EQ(outcome->status, RetryingClient::Outcome::Status::kReply);
  EXPECT_EQ(outcome->reply.payload,
            trits_payload(CodecSpec{}.make_coder().encode(ts.flatten())));
  EXPECT_EQ(outcome->transmits, 2u);
  EXPECT_EQ(client.stats().frame_errors, 1u);
  EXPECT_EQ(client.stats().retransmits, 1u);
  EXPECT_EQ(client.stats().timeouts, 0u);
  client.close();
  server.stop();
}

TEST(RetryingClientTest, EchoedOversizedResolvesAsTypedError) {
  FakePeer peer;
  RetryingClient client(peer.factory());
  const std::uint64_t seq = client.submit(FrameType::kEncodeRequest, {1, 2});
  ASSERT_TRUE(peer.read().has_value());
  peer.reply_error(seq, ErrorCode::kOversized);
  const auto resolved = client.poll(milliseconds(1000));
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].second.status,
            RetryingClient::Outcome::Status::kTypedError);
  EXPECT_EQ(resolved[0].second.error, ErrorCode::kOversized);
  EXPECT_EQ(client.stats().frame_errors, 1u);
  EXPECT_EQ(client.stats().retransmits, 0u);
  client.close();
}

TEST(RetryingClientTest, CallResolvesAgainstLiveResponder) {
  FakePeer peer;
  RetryingClient client(peer.factory(), RetryPolicy{});
  std::thread responder([&peer] {
    const auto req = peer.read(milliseconds(3000));
    if (req.has_value()) peer.reply_ok(req->seq, req->payload);
  });
  const auto outcome = client.call(FrameType::kEncodeRequest, {42},
                                   milliseconds(3000));
  responder.join();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->status, RetryingClient::Outcome::Status::kReply);
  EXPECT_EQ(outcome->reply.payload, (std::vector<std::uint8_t>{42}));
  client.close();
}

}  // namespace
}  // namespace nc::serve
