#include "serve/loadgen.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <random>
#include <thread>

#include "bits/test_set.h"
#include "circuit/generator.h"
#include "compact/analyzer.h"
#include "core/cancel.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/fault.h"

namespace nc::serve {

namespace {

/// Frame bytes ride the trit channel as 8 binary trits per byte (MSB
/// first). The channel never sees an X on input; a post-channel X (a flip
/// landing on a don't-care cannot happen here, but a stuck pin may emit
/// one) maps back to 0 -- any concrete corruption is equally good.
bits::TritVector trits_from_bytes(const std::vector<std::uint8_t>& bytes) {
  bits::TritVector v;
  v.resize(bytes.size() * 8, bits::Trit::Zero);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    for (int b = 0; b < 8; ++b)
      v.set(i * 8 + b, ((bytes[i] >> (7 - b)) & 1) != 0 ? bits::Trit::One
                                                        : bits::Trit::Zero);
  return v;
}

std::vector<std::uint8_t> trits_to_bytes(const bits::TritVector& v) {
  std::vector<std::uint8_t> bytes(v.size() / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    for (int b = 0; b < 8; ++b)
      if (v.get(i * 8 + b) == bits::Trit::One)
        bytes[i] |= static_cast<std::uint8_t>(1u << (7 - b));
  return bytes;
}

bits::TestSet random_test_set(std::size_t patterns, std::size_t width,
                              double x_density, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::bernoulli_distribution bit(0.5);
  bits::TestSet ts(patterns, width);
  for (std::size_t p = 0; p < patterns; ++p)
    for (std::size_t c = 0; c < width; ++c) {
      if (unit(rng) < x_density)
        ts.set(p, c, bits::Trit::X);
      else
        ts.set(p, c, bit(rng) ? bits::Trit::One : bits::Trit::Zero);
    }
  return ts;
}

/// Pool entries 2d (encode) and 2d + 1 (decode): the requests of distinct
/// test set d, with replies computed by the server's own code path.
std::array<Workload, 2> workload_pair(const LoadgenConfig& config,
                                      const codec::NineCoded& coder,
                                      std::size_t d) {
  const bits::TestSet ts = random_test_set(
      config.patterns, config.width, config.x_density,
      config.seed * 1000003 + d);
  const bits::TritVector te = coder.encode(ts.flatten());

  Workload enc;
  enc.request_type = FrameType::kEncodeRequest;
  enc.request_payload = to_payload(EncodeRequest{config.spec, ts});
  enc.expected_type = FrameType::kEncodeReply;
  enc.expected_payload = trits_payload(te);

  Workload dec;
  dec.request_type = FrameType::kDecodeRequest;
  DecodeRequest dr;
  dr.spec = config.spec;
  dr.patterns = config.patterns;
  dr.width = config.width;
  dr.te = te;
  dec.request_payload = to_payload(dr);
  dec.expected_type = FrameType::kDecodeReply;
  // Reference computed with the server's exact path (same watchdog
  // budget, same unflatten), so verification is byte-identity.
  const std::size_t original = config.patterns * config.width;
  core::Watchdog watchdog(64 + 8 * (original + te.size()));
  const codec::DecodeOutcome outcome =
      coder.decode_checked(te, original, &watchdog);
  dec.expected_payload = test_set_payload(
      bits::TestSet::unflatten(outcome.data, config.patterns, config.width));
  return {std::move(enc), std::move(dec)};
}

/// The pool entries some client sends, by their index into the whole pool
/// of `size` entries: build_workloads' pairs, then the signature publish
/// and checks.
struct SentPool {
  std::size_t size = 0;
  std::map<std::size_t, Workload> entries;
};

/// The pool index of a client's request number `issued`.
std::size_t workload_index(std::size_t client, std::size_t issued,
                           std::size_t pool_size) {
  return (client * 31 + issued) % pool_size;
}

class Client {
 public:
  Client(const LoadgenConfig& config, const SentPool& pool,
         RetryingClient::Connect connect, std::size_t index)
      : config_(config),
        pool_(pool),
        connect_(std::move(connect)),
        index_(index),
        channel_(with_seed(config.channel, config.seed * 7919 + index)),
        fault_rng_(config.seed * 31337 + index) {}

  LoadgenStats run() {
    RetryPolicy policy;
    policy.max_attempts = config_.max_retransmits + 1;
    policy.initial_backoff = config_.retransmit_timeout;
    policy.backoff_cap = config_.retransmit_timeout * 8;
    policy.retry_budget = config_.retry_budget;
    policy.hedge_after = config_.hedge_after;
    policy.request_deadline_ms = config_.request_deadline_ms;
    policy.seed = config_.seed * 104729 + index_;
    policy.clock = config_.clock;
    RetryingClient client(connect_, policy);
    client.set_transmit_hook([this](std::vector<std::uint8_t> bytes) {
      return maybe_corrupt(std::move(bytes));
    });

    core::Watchdog watchdog(
        0, core::Deadline::after(config_.deadline, config_.clock));
    std::size_t issued = 0;
    std::map<std::uint64_t, std::size_t> seq_to_workload;

    const auto t0 = std::chrono::steady_clock::now();
    while (true) {
      if (watchdog.check() != core::WatchdogTrip::kNone) break;
      // Keep the pipeline full.
      while (client.inflight() < config_.pipeline &&
             issued < config_.requests_per_client) {
        const std::size_t widx = workload_index(index_, issued, pool_.size);
        const Workload& w = pool_.entries.at(widx);
        const std::uint64_t seq =
            client.submit(w.request_type, w.request_payload);
        seq_to_workload[seq] = widx;
        ++issued;
      }
      if (client.inflight() == 0 && issued >= config_.requests_per_client)
        break;

      for (auto& [seq, outcome] :
           client.poll(std::chrono::milliseconds(50))) {
        const Workload& w = pool_.entries.at(seq_to_workload.at(seq));
        seq_to_workload.erase(seq);
        switch (outcome.status) {
          case RetryingClient::Outcome::Status::kReply:
            if (outcome.reply.type != w.expected_type ||
                outcome.reply.payload != w.expected_payload)
              ++stats_.byte_mismatches;
            else
              ++stats_.requests;
            break;
          case RetryingClient::Outcome::Status::kTypedError:
            if (outcome.error == ErrorCode::kDecodeFailed)
              ++stats_.decode_failures;
            if (outcome.error == ErrorCode::kUnknownSignature)
              ++stats_.signature_unknowns;
            // A terminal typed error still resolves the request.
            ++stats_.requests;
            break;
          case RetryingClient::Outcome::Status::kExhausted:
            ++stats_.unresolved;
            break;
        }
      }
    }
    stats_.unresolved += client.inflight();
    const RetryingClient::Stats& cs = client.stats();
    stats_.typed_rejections += cs.typed_rejections;
    stats_.deadline_rejections += cs.deadline_rejections;
    stats_.frame_errors += cs.frame_errors;
    stats_.retransmits += cs.retransmits;
    stats_.timeouts += cs.timeouts;
    stats_.duplicates += cs.duplicates;
    stats_.hedges += cs.hedges;
    stats_.hedge_wins += cs.hedge_wins;
    stats_.reconnects += cs.reconnects;
    stats_.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    client.close();
    return stats_;
  }

 private:
  static decomp::ChannelConfig with_seed(decomp::ChannelConfig c,
                                         std::uint64_t seed) {
    c.seed = seed;
    return c;
  }

  /// Seeded Bernoulli at rate 1/fault_period, NOT a strict every-Nth
  /// counter: a deterministic counter phase-locks with the retry loop
  /// (each stall interleaves a fixed number of fresh transmits between a
  /// victim's retransmits, so the victim lands on a faulted slot every
  /// time and exhausts its budget).
  std::vector<std::uint8_t> maybe_corrupt(std::vector<std::uint8_t> bytes) {
    if (config_.fault_period != 0 &&
        std::uniform_real_distribution<double>(0.0, 1.0)(fault_rng_) *
                static_cast<double>(config_.fault_period) <
            1.0) {
      bytes = trits_to_bytes(channel_.transmit(trits_from_bytes(bytes)));
      if (channel_.last_corrupted()) ++stats_.corrupted_sends;
    }
    return bytes;
  }

  const LoadgenConfig& config_;
  const SentPool& pool_;
  RetryingClient::Connect connect_;
  std::size_t index_;
  decomp::ChannelModel channel_;
  std::mt19937_64 fault_rng_;
  LoadgenStats stats_;
};

}  // namespace

void LoadgenStats::merge(const LoadgenStats& other) noexcept {
  requests += other.requests;
  byte_mismatches += other.byte_mismatches;
  typed_rejections += other.typed_rejections;
  decode_failures += other.decode_failures;
  frame_errors += other.frame_errors;
  corrupted_sends += other.corrupted_sends;
  retransmits += other.retransmits;
  timeouts += other.timeouts;
  duplicates += other.duplicates;
  unresolved += other.unresolved;
  hedges += other.hedges;
  hedge_wins += other.hedge_wins;
  reconnects += other.reconnects;
  deadline_rejections += other.deadline_rejections;
  signature_unknowns += other.signature_unknowns;
  seconds = std::max(seconds, other.seconds);
}

std::vector<Workload> build_workloads(const LoadgenConfig& config) {
  const codec::NineCoded coder = config.spec.make_coder();
  std::vector<Workload> pool;
  pool.reserve(config.distinct * 2);
  for (std::size_t d = 0; d < config.distinct; ++d)
    for (Workload& w : workload_pair(config, coder, d))
      pool.push_back(std::move(w));
  return pool;
}

SignatureWorkloads build_signature_workloads(const LoadgenConfig& config) {
  // A deterministic scan circuit wide enough that the Steiner code
  // actually compacts (32 response bits -> ~15 signature bits per cycle).
  circuit::GeneratorConfig gc;
  gc.num_inputs = 8;
  gc.num_flops = 24;
  gc.num_gates = 150;
  gc.num_outputs = 8;
  gc.seed = 17;
  const circuit::Netlist netlist = circuit::generate_circuit(gc);

  const bits::TestSet patterns =
      random_test_set(16, netlist.pattern_width(), 0.25,
                      config.seed * 52361 + 1);

  compact::XCodeSpec spec;
  spec.kind = compact::XCodeKind::kSteiner;
  spec.inputs = netlist.response_width();
  compact::AnalyzerConfig acfg;
  acfg.x_density = config.signature_x_density;
  acfg.x_seed = config.seed;
  acfg.with_misr = false;
  const compact::ResponseAnalyzer analyzer(netlist,
                                           compact::XCode::build(spec), acfg);

  SignaturePublish pub;
  pub.outputs_per_cycle =
      static_cast<std::uint32_t>(analyzer.compactor().code().outputs());
  pub.cycles = patterns.pattern_count();
  pub.expected = analyzer.expected_signatures(patterns);

  SignatureWorkloads out;
  out.publish.request_type = FrameType::kSignaturePublishRequest;
  out.publish.request_payload = to_payload(pub);
  out.publish.expected_type = FrameType::kSignaturePublishReply;
  const CacheKey key = signature_ref_key(out.publish.request_payload.data(),
                                         out.publish.request_payload.size());
  const SignatureRef ref{key.lo, key.hi};
  out.publish.expected_payload = signature_ref_payload(ref);

  const std::vector<sim::Fault> faults = sim::full_fault_list(netlist);
  out.checks.reserve(config.signature_checks);
  for (std::size_t i = 0; i < config.signature_checks; ++i) {
    // Device 0 is fault-free (its check must pass); the rest carry sampled
    // stuck-at faults whose verdicts the server must reproduce exactly.
    const sim::Fault* fault =
        i == 0 || faults.empty() ? nullptr : &faults[(i - 1) % faults.size()];
    SignatureCheck chk;
    chk.ref = ref;
    chk.observed =
        analyzer.observed_signatures(patterns, fault, config.seed * 77 + i);
    Workload w;
    w.request_type = FrameType::kSignatureCheckRequest;
    w.request_payload = to_payload(chk);
    w.expected_type = FrameType::kSignatureCheckReply;
    // The reference verdict runs the very routine the server runs; a reply
    // differing in one byte is a real divergence, not noise.
    w.expected_payload = check_verdict_payload(compact::check_signatures(
        pub.expected, chk.observed, pub.outputs_per_cycle));
    out.checks.push_back(std::move(w));
  }
  return out;
}

namespace {

/// Publishes the signature stream before any client starts, through the
/// same retrying machinery the clients use (the transport may be faulty).
/// A failed publish is not fatal here: the resulting kUnknownSignature
/// replies fail the clean() gate, which is the honest outcome.
void publish_signatures(const LoadgenConfig& config, const Workload& publish,
                        const RetryingClient::Connect& connect) {
  RetryPolicy policy;
  policy.max_attempts = config.max_retransmits + 1;
  policy.initial_backoff = config.retransmit_timeout;
  policy.backoff_cap = config.retransmit_timeout * 8;
  policy.seed = config.seed * 912367;
  policy.clock = config.clock;
  RetryingClient client(connect, policy);
  (void)client.call(publish.request_type, publish.request_payload,
                    config.deadline);
  client.close();
}

}  // namespace

LoadgenStats run_loadgen(
    const LoadgenConfig& config,
    const std::function<std::unique_ptr<ByteStream>()>& connect) {
  // Only the entries some client sends are built, so set-up grows with the
  // requests sent, not with the pool: a client's indices repeat after
  // `size` requests.
  SentPool pool;
  const std::size_t pairs_end = 2 * config.distinct;
  pool.size = pairs_end +
              (config.signature_checks > 0 ? 1 + config.signature_checks : 0);
  std::vector<std::size_t> sent;
  for (std::size_t i = 0; i < config.clients; ++i)
    for (std::size_t j = 0; j < std::min(config.requests_per_client, pool.size);
         ++j)
      sent.push_back(workload_index(i, j, pool.size));
  std::sort(sent.begin(), sent.end());
  sent.erase(std::unique(sent.begin(), sent.end()), sent.end());

  const codec::NineCoded coder = config.spec.make_coder();
  std::array<Workload, 2> pair;
  std::size_t pair_of = config.distinct;  // none yet: every d < distinct
  for (std::size_t index : sent) {
    if (index >= pairs_end) break;
    if (index / 2 != pair_of) {
      pair = workload_pair(config, coder, index / 2);
      pair_of = index / 2;
    }
    pool.entries.emplace(index, std::move(pair[index % 2]));
  }
  if (config.signature_checks > 0) {
    SignatureWorkloads sig = build_signature_workloads(config);
    publish_signatures(config, sig.publish, connect);
    // Republishing from the pool is idempotent (content-addressed), so the
    // publish itself stays under load too.
    for (std::size_t index : sent) {
      if (index == pairs_end)
        pool.entries.emplace(index, std::move(sig.publish));
      else if (index > pairs_end)
        pool.entries.emplace(index,
                             std::move(sig.checks[index - pairs_end - 1]));
    }
  }
  std::vector<LoadgenStats> results(config.clients);
  std::vector<std::thread> threads;
  threads.reserve(config.clients);
  for (std::size_t i = 0; i < config.clients; ++i) {
    threads.emplace_back([&, i] {
      // Each client owns the factory, not a stream: a transport fault
      // mid-run reconnects and retransmits instead of abandoning.
      Client client(config, pool, connect, i);
      results[i] = client.run();
    });
  }
  for (auto& t : threads) t.join();
  LoadgenStats total;
  for (const LoadgenStats& r : results) total.merge(r);
  return total;
}

LoadgenStats run_loadgen_inprocess(const LoadgenConfig& config,
                                   Server& server) {
  return run_loadgen(config, [&server] {
    auto [client_end, server_end] = make_pipe();
    server.serve(std::move(server_end));
    return std::move(client_end);
  });
}

}  // namespace nc::serve
