#include "serve/chaos.h"

#include <algorithm>
#include <stdexcept>

#include "core/hash.h"

namespace nc::serve {

namespace {

bool matches(ChaosRule::Op rule, ChaosRule::Op op) noexcept {
  return rule == ChaosRule::Op::kAny || rule == op;
}

}  // namespace

// ------------------------------------------------------------ spec parsing

namespace {

[[noreturn]] void bad_spec(const std::string& rule, const char* why) {
  throw std::invalid_argument("bad chaos rule '" + rule + "': " + why);
}

ChaosRule parse_rule(const std::string& text) {
  ChaosRule rule;
  const auto colon = text.find(':');
  if (colon == std::string::npos) bad_spec(text, "missing ':' after op");
  const std::string op = text.substr(0, colon);
  if (op == "read") rule.op = ChaosRule::Op::kRead;
  else if (op == "write") rule.op = ChaosRule::Op::kWrite;
  else if (op == "any") rule.op = ChaosRule::Op::kAny;
  else bad_spec(text, "op must be read|write|any");

  std::string body = text.substr(colon + 1);
  // Split off the optional '@skip[xcount]' suffix first.
  std::string sched;
  if (const auto at = body.find('@'); at != std::string::npos) {
    sched = body.substr(at + 1);
    body = body.substr(0, at);
    if (sched.empty()) bad_spec(text, "'@' must be followed by a skip count");
  }
  std::string param;
  if (const auto eq = body.find('='); eq != std::string::npos) {
    param = body.substr(eq + 1);
    body = body.substr(0, eq);
  }
  if (body == "latency") rule.action = ChaosRule::Action::kLatency;
  else if (body == "stall") rule.action = ChaosRule::Action::kStall;
  else if (body == "dribble") rule.action = ChaosRule::Action::kDribble;
  else if (body == "partial") rule.action = ChaosRule::Action::kPartial;
  else if (body == "reset") rule.action = ChaosRule::Action::kReset;
  else bad_spec(text, "action must be latency|stall|dribble|partial|reset");

  try {
    if (!param.empty()) {
      const unsigned long long v = std::stoull(param);
      if (rule.action == ChaosRule::Action::kPartial)
        rule.limit = static_cast<std::size_t>(std::max(1ull, v));
      else
        rule.latency = std::chrono::milliseconds(v);
    }
    if (!sched.empty()) {
      const auto x = sched.find('x');
      rule.skip = static_cast<std::size_t>(
          std::stoull(x == std::string::npos ? sched : sched.substr(0, x)));
      if (x != std::string::npos) {
        const std::string cnt = sched.substr(x + 1);
        rule.count = cnt == "*" ? ChaosRule::kForever
                                : static_cast<std::size_t>(std::stoull(cnt));
        if (rule.count == 0) bad_spec(text, "count must be >= 1 or '*'");
      }
    }
  } catch (const std::invalid_argument&) {
    bad_spec(text, "malformed number");
  } catch (const std::out_of_range&) {
    bad_spec(text, "number out of range");
  }
  return rule;
}

}  // namespace

std::vector<ChaosRule> parse_chaos_spec(const std::string& spec) {
  std::vector<ChaosRule> rules;
  std::size_t start = 0;
  while (start <= spec.size()) {
    auto end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string piece = spec.substr(start, end - start);
    if (!piece.empty()) rules.push_back(parse_rule(piece));
    start = end + 1;
  }
  if (rules.empty())
    throw std::invalid_argument("chaos spec names no rules: '" + spec + "'");
  return rules;
}

// ------------------------------------------------------------- ChaosStream

ChaosStream::ChaosStream(std::unique_ptr<ByteStream> inner,
                         std::vector<ChaosRule> rules, std::uint64_t seed,
                         core::Clock* clock)
    : inner_(std::move(inner)),
      clock_(core::Clock::or_steady(clock)),
      rng_(seed) {
  rules_.reserve(rules.size());
  for (ChaosRule& r : rules) rules_.push_back(RuleState{r, 0, 0});
}

const ChaosRule* ChaosStream::claim(ChaosRule::Op op) {
  std::lock_guard<std::mutex> lock(mutex_);
  const ChaosRule* winner = nullptr;
  for (RuleState& rs : rules_) {
    if (!matches(rs.rule.op, op)) continue;
    if (rs.skipped < rs.rule.skip) {
      // Still in the skip phase: this op counts toward it regardless of
      // whether another rule claims the op.
      ++rs.skipped;
      continue;
    }
    if (rs.rule.count != ChaosRule::kForever && rs.applied >= rs.rule.count)
      continue;  // exhausted
    if (winner == nullptr) {
      ++rs.applied;
      winner = &rs.rule;
      switch (rs.rule.action) {
        case ChaosRule::Action::kLatency: ++counters_.latencies; break;
        case ChaosRule::Action::kStall: ++counters_.stalls; break;
        case ChaosRule::Action::kDribble: ++counters_.dribbles; break;
        case ChaosRule::Action::kPartial: ++counters_.partials; break;
        case ChaosRule::Action::kReset: ++counters_.resets; break;
      }
    }
  }
  return winner;
}

std::chrono::milliseconds ChaosStream::jittered(std::chrono::milliseconds d) {
  if (d.count() <= 1) return d;
  std::lock_guard<std::mutex> lock(mutex_);
  return core::equal_jitter(rng_, d);
}

std::optional<std::size_t> ChaosStream::read_some(
    std::uint8_t* buf, std::size_t max, std::chrono::milliseconds timeout) {
  const ChaosRule* rule = claim(ChaosRule::Op::kRead);
  if (rule == nullptr) return inner_->read_some(buf, max, timeout);
  switch (rule->action) {
    case ChaosRule::Action::kLatency:
      clock_.sleep_for(jittered(rule->latency));
      return inner_->read_some(buf, max, std::chrono::milliseconds{1});
    case ChaosRule::Action::kStall:
      // Deliver nothing: the caller experiences a timeout, exactly as if
      // the peer went quiet mid-frame.
      clock_.sleep_for(std::min(timeout, jittered(rule->latency)));
      return std::nullopt;
    case ChaosRule::Action::kDribble:
      return inner_->read_some(buf, 1, timeout);
    case ChaosRule::Action::kPartial:
      return inner_->read_some(buf, std::min(max, rule->limit), timeout);
    case ChaosRule::Action::kReset:
      inner_->close();
      throw std::runtime_error("chaos: connection reset");
  }
  return inner_->read_some(buf, max, timeout);
}

std::optional<std::size_t> ChaosStream::write_some(
    const std::uint8_t* data, std::size_t len,
    std::chrono::milliseconds timeout) {
  const ChaosRule* rule = claim(ChaosRule::Op::kWrite);
  if (rule == nullptr) return inner_->write_some(data, len, timeout);
  switch (rule->action) {
    case ChaosRule::Action::kLatency:
      clock_.sleep_for(jittered(rule->latency));
      return inner_->write_some(data, len, std::chrono::milliseconds{1});
    case ChaosRule::Action::kStall:
      clock_.sleep_for(std::min(timeout, jittered(rule->latency)));
      return std::nullopt;
    case ChaosRule::Action::kDribble:
      return inner_->write_some(data, 1, timeout);
    case ChaosRule::Action::kPartial:
      return inner_->write_some(data, std::min(len, rule->limit), timeout);
    case ChaosRule::Action::kReset:
      inner_->close();
      throw std::runtime_error("chaos: connection reset");
  }
  return inner_->write_some(data, len, timeout);
}

void ChaosStream::write_all(const std::uint8_t* data, std::size_t len) {
  // Built on write_some so every rule applies per slice. A stall costs its
  // latency and zero progress but still terminates (its count is spent),
  // so write_all stays total unless a rule stalls writes forever -- pair
  // such partition rules with deadline-bounded writers.
  std::size_t written = 0;
  while (written < len) {
    const auto n = write_some(data + written, len - written,
                              std::chrono::milliseconds{50});
    if (n.has_value()) written += *n;
  }
}

void ChaosStream::close() { inner_->close(); }

ChaosStream::Counters ChaosStream::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::pair<std::unique_ptr<ByteStream>, std::unique_ptr<ByteStream>>
make_chaos_pipe(std::vector<ChaosRule> client_rules,
                std::vector<ChaosRule> server_rules, std::uint64_t seed,
                core::Clock* clock, std::size_t capacity) {
  auto [client_end, server_end] = make_pipe(capacity);
  std::unique_ptr<ByteStream> client =
      client_rules.empty()
          ? std::move(client_end)
          : std::make_unique<ChaosStream>(std::move(client_end),
                                          std::move(client_rules), seed,
                                          clock);
  std::unique_ptr<ByteStream> server =
      server_rules.empty()
          ? std::move(server_end)
          : std::make_unique<ChaosStream>(std::move(server_end),
                                          std::move(server_rules), seed ^ 1,
                                          clock);
  return {std::move(client), std::move(server)};
}

}  // namespace nc::serve
