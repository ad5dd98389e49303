#include "serve/client.h"

#include <algorithm>

#include "core/hash.h"

namespace nc::serve {

namespace {

bool retryable(ErrorCode code) noexcept {
  // Rejections that a later attempt can outlive: transient overload, a cap
  // the pipeline will free, a shutdown the factory may reconnect past, and
  // an expired deadline (the retransmit carries a fresh budget and likely
  // hits the server's cache).
  return code == ErrorCode::kOverloaded || code == ErrorCode::kInflightLimit ||
         code == ErrorCode::kShuttingDown ||
         code == ErrorCode::kDeadlineExceeded;
}

}  // namespace

RetryingClient::RetryingClient(Connect connect, RetryPolicy policy)
    : connect_(std::move(connect)),
      policy_(policy),
      clock_(core::Clock::or_steady(policy.clock)),
      rng_(policy.seed) {
  if (policy_.max_attempts == 0) policy_.max_attempts = 1;
  if (policy_.initial_backoff.count() <= 0)
    policy_.initial_backoff = std::chrono::milliseconds{1};
  policy_.backoff_cap = std::max(policy_.backoff_cap, policy_.initial_backoff);
  stream_ = connect_();
  reader_ = std::make_unique<FrameReader>(*stream_, FrameLimits{});
}

void RetryingClient::arm(Pending& p) {
  p.backoff = p.backoff.count() == 0
                  ? policy_.initial_backoff
                  : std::min(p.backoff * 2, policy_.backoff_cap);
  p.next_retry = clock_.now() + core::equal_jitter(rng_, p.backoff);
}

void RetryingClient::reconnect() {
  ++stats_.reconnects;
  try {
    stream_->close();
  } catch (const std::exception&) {
  }
  stream_ = connect_();
  reader_ = std::make_unique<FrameReader>(*stream_, FrameLimits{});
  // Everything outstanding was possibly lost with the old connection:
  // re-arm for prompt retransmission (the timer, budget and attempt
  // accounting still apply).
  const auto now = clock_.now();
  for (auto& [seq, p] : pending_) p.next_retry = now;
}

bool RetryingClient::transmit(std::uint64_t seq, Pending& p, bool is_hedge) {
  Frame frame;
  frame.type = p.type;
  frame.seq = seq;
  frame.deadline_ms = policy_.request_deadline_ms;
  frame.payload = p.payload;
  std::vector<std::uint8_t> bytes = encode_frame(frame);
  if (hook_) bytes = hook_(std::move(bytes));
  ++stats_.transmits;
  ++p.transmits;
  if (is_hedge) {
    p.hedged = true;
    p.hedge_sent = clock_.now();
  }
  try {
    const core::Deadline budget =
        core::Deadline::after(policy_.write_deadline, policy_.clock);
    const std::size_t n =
        write_all_within(*stream_, bytes.data(), bytes.size(), budget);
    if (n != bytes.size()) {
      reconnect();
      return false;
    }
  } catch (const std::exception&) {
    reconnect();
    return false;
  }
  return true;
}

std::uint64_t RetryingClient::submit(FrameType type,
                                     std::vector<std::uint8_t> payload) {
  const std::uint64_t seq = next_seq_++;
  Pending p;
  p.type = type;
  p.payload = std::move(payload);
  p.first_sent = clock_.now();
  auto [it, inserted] = pending_.emplace(seq, std::move(p));
  (void)inserted;
  transmit(seq, it->second, false);
  arm(it->second);
  return seq;
}

bool RetryingClient::retransmit(std::uint64_t seq, Pending& p, bool timer,
                                Resolved& out) {
  if (p.transmits >= policy_.max_attempts) {
    Outcome o;
    o.status = Outcome::Status::kExhausted;
    o.detail = "retransmit attempts exhausted";
    resolve(seq, std::move(o), out);
    return true;
  }
  if (policy_.retry_budget != 0 && budget_spent_ >= policy_.retry_budget) {
    ++stats_.budget_denied;
    Outcome o;
    o.status = Outcome::Status::kExhausted;
    o.detail = "client retry budget spent";
    resolve(seq, std::move(o), out);
    return true;
  }
  if (timer) ++stats_.timeouts;
  ++stats_.retransmits;
  ++budget_spent_;
  if (!transmit(seq, p, false)) return false;  // reconnected; re-armed
  arm(p);
  return true;
}

void RetryingClient::resolve(std::uint64_t seq, Outcome outcome,
                             Resolved& out) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  outcome.transmits = it->second.transmits;
  outcome.hedged = it->second.hedged;
  done_transmits_[seq] = it->second.transmits;
  if (done_transmits_.size() > 1024)
    done_transmits_.erase(done_transmits_.begin());
  pending_.erase(it);
  out.emplace_back(seq, std::move(outcome));
}

RetryingClient::Resolved RetryingClient::poll(std::chrono::milliseconds wait) {
  Resolved out;
  const auto now = clock_.now();

  // 1. Fire due retransmits (and give up on exhausted requests).
  for (auto it = pending_.begin(); it != pending_.end();) {
    const auto due = it++;  // retransmit() may resolve (erase) `due`
    if (now < due->second.next_retry) continue;
    if (!retransmit(due->first, due->second, true, out)) return out;
  }

  // 2. Fire due hedges: one duplicate per request, not counted against the
  // retry budget (it races the original, it does not replace it).
  if (policy_.hedge_after.count() > 0) {
    for (auto& [seq, p] : pending_) {
      if (p.hedged || now - p.first_sent < policy_.hedge_after) continue;
      ++stats_.hedges;
      if (!transmit(seq, p, true)) return out;
    }
  }

  // 3. Read replies.
  FrameReader::Result r;
  try {
    r = reader_->read(wait);
  } catch (const std::exception&) {
    reconnect();
    return out;
  }
  switch (r.status) {
    case FrameReader::Status::kTimeout:
      return out;
    case FrameReader::Status::kEof:
      reconnect();
      return out;
    case FrameReader::Status::kProtocolError:
      ++stats_.frame_errors;
      return out;
    case FrameReader::Status::kFrame:
      break;
  }
  Frame& frame = r.frame;
  ParsedError err;
  if (frame.type == FrameType::kError) {
    try {
      err = parse_error_payload(frame.payload);
    } catch (const std::exception&) {
      ++stats_.frame_errors;
      return out;
    }
    if (err.code < ErrorCode::kBadType) {
      // Frame-layer report: some transmit of ours was mangled in flight.
      // Seq 0 names no victim, so its retransmit timer recovers it. An
      // echoed seq was vouched for by the header CRC: a mangled payload
      // (kBadCrc) is resent at once, and kOversized resolves below as a
      // typed error -- resending the same frame cannot help.
      ++stats_.frame_errors;
      const auto victim = pending_.find(frame.seq);
      if (victim == pending_.end()) return out;
      if (err.code == ErrorCode::kBadCrc) {
        retransmit(victim->first, victim->second, false, out);
        return out;
      }
      if (err.code != ErrorCode::kOversized) return out;
    }
  }
  const auto it = pending_.find(frame.seq);
  if (it == pending_.end()) {
    // Reply for an already-resolved request: benign when we transmitted it
    // more than once (retry or hedge); otherwise the server duplicated.
    const auto done = done_transmits_.find(frame.seq);
    if (done != done_transmits_.end() && done->second < 2)
      ++stats_.duplicates;
    return out;
  }
  Pending& p = it->second;
  if (frame.type == FrameType::kError) {
    if (retryable(err.code)) {
      ++stats_.typed_rejections;
      if (err.code == ErrorCode::kDeadlineExceeded)
        ++stats_.deadline_rejections;
      // Do not retransmit inline: the request waits out its (already
      // armed) jittered backoff, which is the whole point under overload.
      return out;
    }
    Outcome o;
    o.status = Outcome::Status::kTypedError;
    o.error = err.code;
    o.detail = std::move(err.detail);
    resolve(frame.seq, std::move(o), out);
    return out;
  }
  Outcome o;
  o.status = Outcome::Status::kReply;
  o.hedge_won = p.hedged && clock_.now() >= p.hedge_sent;
  if (o.hedge_won) ++stats_.hedge_wins;
  o.reply = std::move(frame);
  resolve(r.frame.seq, std::move(o), out);
  return out;
}

std::optional<RetryingClient::Outcome> RetryingClient::call(
    FrameType type, std::vector<std::uint8_t> payload,
    std::chrono::milliseconds overall) {
  const std::uint64_t seq = submit(type, std::move(payload));
  const core::Deadline deadline = core::Deadline::after(overall, policy_.clock);
  while (!deadline.expired()) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline.remaining());
    auto resolved =
        poll(std::clamp(left, std::chrono::milliseconds{1},
                        std::chrono::milliseconds{50}));
    for (auto& [s, o] : resolved)
      if (s == seq) return std::move(o);
  }
  return std::nullopt;
}

void RetryingClient::close() {
  try {
    stream_->close();
  } catch (const std::exception&) {
  }
}

}  // namespace nc::serve
