#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bits/serialize.h"
#include "gen/cube_gen.h"
#include "gen/profiles.h"
#include "probes.h"
#include "serve/server.h"
#include "tune/genome.h"

namespace perfbench {

namespace {

using nc::report::Json;

// Closed-loop shape of both serve workloads: one client process, `kConns`
// connections (one thread each, never more than the 4 hardware threads the
// benchmark is sized for), `kDepth` requests in flight per connection.
constexpr std::size_t kConns = 4;
constexpr std::size_t kDepth = 2;
// `ninec serve --workers`: explicit, so results do not depend on the host.
constexpr std::size_t kWorkers = 2;

// cli_bulk: the CKT1 profile (Table VIII stand-in) at K = 32.
constexpr const char* kCliProfile = "CKT1";
constexpr std::size_t kCliK = 32;
// Bytes of the NC9C header ahead of the NCT1 trit stream in a .9c file:
// magic, K, nine codeword lengths, u64 patterns, u64 width.
constexpr std::size_t kNc9cHeader = 4 + 1 + 9 + 8 + 8;

// serve_miss: mid-size, X-heavy sets; every request distinct.
constexpr std::size_t kMissPatterns = 64;
constexpr std::size_t kMissWidth = 1024;
constexpr double kMissX = 0.9;

// serve_warm: small payloads, Zipf-skewed keys, L1 far below the working
// set so the tail reads L2.
constexpr std::size_t kWarmPatterns = 16;
constexpr std::size_t kWarmWidth = 256;
constexpr double kWarmX = 0.9;
constexpr std::size_t kWarmDistinct = 2048;  // pairs -> 4096 keys
constexpr std::size_t kWarmL1Bytes = 256 << 10;
constexpr double kWarmZipf = 1.1;
constexpr double kWarmupSeconds = 0.5;

// tune_iscas: s38417 with the tuner's own seed, generations and population
// fixed; only the test set follows --seed.
constexpr const char* kTuneProfile = "s38417";
constexpr const char* kTuneSeed = "1";
constexpr const char* kTuneGenerations = "10";
constexpr const char* kTunePopulation = "24";

Json to_json(const std::vector<double>& v) {
  Json a = Json::array();
  for (const double x : v) a.push_back(x);
  return a;
}

std::string path_in(const Run& run, const std::string& name) {
  return run.opt.work + "/" + name;
}

const nc::gen::BenchmarkProfile& profile_named(const std::string& name) {
  for (const auto& p : nc::gen::iscas89_profiles())
    if (p.name == name) return p;
  for (const auto& p : nc::gen::ibm_profiles())
    if (p.name == name) return p;
  throw std::invalid_argument("unknown profile " + name);
}

bool past(std::int64_t deadline) { return now_ns() >= deadline; }

std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

std::size_t setup_reps(const Run& run, std::size_t full) {
  return run.opt.smoke ? 1 : full;
}

Json serve_facts(const nc::serve::LoadgenConfig& cfg) {
  Json f = Json::object();
  f["patterns"] = static_cast<std::uint64_t>(cfg.patterns);
  f["width"] = static_cast<std::uint64_t>(cfg.width);
  f["td_bits_per_request"] =
      static_cast<std::uint64_t>(cfg.patterns * cfg.width);
  f["x_density"] = cfg.x_density;
  f["k"] = static_cast<std::uint64_t>(cfg.spec.k);
  f["connections"] = static_cast<std::uint64_t>(kConns);
  f["pipeline_depth"] = static_cast<std::uint64_t>(kDepth);
  f["workers"] = static_cast<std::uint64_t>(kWorkers);
  f["loop"] = "closed";
  return f;
}

nc::serve::LoadgenConfig serve_config(std::size_t patterns, std::size_t width,
                                      double x, std::uint64_t seed) {
  nc::serve::LoadgenConfig cfg;
  cfg.patterns = patterns;
  cfg.width = width;
  cfg.x_density = x;
  cfg.seed = seed;
  return cfg;
}

/// `pairs` distinct encode/decode pairs from build_workloads, built on 4
/// threads with disjoint seeds (seed_base + thread).
std::vector<Item> build_pool(nc::serve::LoadgenConfig base, std::size_t pairs,
                             std::uint64_t seed_base) {
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<Item>> parts(kThreads);
  std::vector<std::exception_ptr> errors(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::size_t n = pairs / kThreads + (t < pairs % kThreads ? 1 : 0);
    if (n == 0) continue;
    threads.emplace_back([&parts, &errors, base, n, t, seed_base] {
      try {
        nc::serve::LoadgenConfig cfg = base;
        cfg.distinct = n;
        cfg.seed = seed_base + t;
        parts[t] = to_items(nc::serve::build_workloads(cfg), cfg);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  std::vector<Item> items;
  items.reserve(pairs * 2);
  for (auto& part : parts)
    for (Item& it : part) items.push_back(std::move(it));
  return items;
}

Connect unix_connect(const std::string& sock) {
  return [sock] { return nc::serve::connect_unix(sock); };
}

/// `ninec serve` on `sock`; returns once it answers a Stats request, with
/// the seconds that took in `ready_s`.
std::unique_ptr<Child> start_server(const Run& run, const std::string& sock,
                                    const std::string& store,
                                    std::size_t cache_bytes, double& ready_s) {
  std::filesystem::remove(sock);
  // The server's own time limit only matters if this process dies first.
  const auto bound_ms =
      static_cast<std::uint64_t>((run.opt.seconds + 300.0) * 1000.0);
  std::vector<std::string> argv = {run.opt.ninec,   "serve",
                                   "--socket",      sock,
                                   "--workers",     std::to_string(kWorkers),
                                   "--store",       store,
                                   "--duration-ms", std::to_string(bound_ms)};
  if (cache_bytes > 0) {
    argv.push_back("--cache-bytes");
    argv.push_back(std::to_string(cache_bytes));
  }
  const std::int64_t t0 = now_ns();
  auto child = std::make_unique<Child>(argv, path_in(run, "serve.log"));
  const std::int64_t give_up = deadline_after(60.0);
  for (;;) {
    try {
      fetch_stats(unix_connect(sock));
      break;
    } catch (const std::exception&) {
      if (child->exited() || past(give_up))
        throw std::runtime_error("ninec serve did not come up; see " +
                                 path_in(run, "serve.log"));
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  ready_s = static_cast<double>(now_ns() - t0) / 1e9;
  return child;
}

Json serve_block(const std::string& source, const std::string& before,
                 const std::string& after, const LoadResult& load) {
  Json s = Json::object();
  s["source"] = source;
  s["stats_before"] = before;
  s["stats_after"] = after;
  s["retransmits"] = load.retransmits;
  return s;
}

/// [TD bits resolved, wall seconds, untraced latency samples] of one
/// closed-loop segment; its samples follow the previous segment's in
/// samples.op_ms.
Json segment(const LoadResult& r) {
  Json s = Json::array();
  s.push_back(r.td_bits);
  s.push_back(r.wall_s);
  s.push_back(static_cast<std::uint64_t>(r.lat_ms.size()));
  return s;
}

Picker counter_picker(std::atomic<std::size_t>& next, std::size_t n) {
  return [&next, n](std::size_t, std::size_t& index) {
    index = next.fetch_add(1);
    return index < n;
  };
}

/// Zipf-skewed picks over `items` until `deadline`; ranks map to items
/// through a seeded permutation so hot keys mix encode and decode.
class ZipfPicker {
 public:
  ZipfPicker(std::size_t n, double s, std::uint64_t seed, std::size_t conns)
      : zipf_(n, s), order_(n), states_(conns) {
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
    std::uint64_t st = seed;
    for (std::size_t i = n; i > 1; --i)
      std::swap(order_[i - 1], order_[next_random(st) % i]);
    for (std::size_t c = 0; c < conns; ++c)
      states_[c] = seed * 0x100000001B3ull + c + 1;
  }

  Picker until(std::int64_t deadline) {
    return [this, deadline](std::size_t conn, std::size_t& index) {
      if (past(deadline)) return false;
      index = order_[zipf_(states_[conn])];
      return true;
    };
  }

 private:
  Zipf zipf_;
  std::vector<std::size_t> order_;
  std::vector<std::uint64_t> states_;
};

/// The serve-layer numbers a non-serve workload's traced run still
/// reports: the same request path driven through an in-process Server over
/// pipes, every request a miss against a fresh store.
void inprocess_serve_probe(Run& run, const std::vector<Item>& items) {
  nc::serve::ServerConfig cfg;
  cfg.worker_threads = kWorkers;
  cfg.store_dir = path_in(run, "probe-serve-store");
  remove_tree(cfg.store_dir);
  nc::serve::Server server(cfg);
  const Connect connect = [&server] {
    auto [client_end, server_end] = nc::serve::make_pipe();
    server.serve(std::move(server_end));
    return std::move(client_end);
  };
  const std::string before = fetch_stats(connect);
  std::atomic<std::size_t> next{0};
  const LoadResult load =
      run_closed_loop(connect, items, kConns, kDepth,
                      counter_picker(next, items.size()), nullptr, 0);
  const std::string after = fetch_stats(connect);
  server.stop();
  if (load.failed > 0)
    throw std::runtime_error("in-process serve probe: " +
                             (load.failures.empty() ? std::string("failure")
                                                    : load.failures[0]));
  run.doc["serve"] =
      serve_block("in-process Server over pipes", before, after, load);
  run.doc["serve"]["client_lat_ms"] = to_json(load.lat_ms);
}

/// Serve requests for the probes of a workload that sends none: the
/// serve_miss request shape under this run's seed.
std::vector<Item> probe_pool(const Run& run) {
  return build_pool(
      serve_config(kMissPatterns, kMissWidth, kMissX, run.opt.seed),
      run.opt.smoke ? 4 : 64, run.opt.seed << 20);
}

/// The traced run's per-layer probes on this workload's inputs; every pool
/// here uses the default codec spec.
void run_layer_probes(Run& run, const nc::bits::TestSet& big_td,
                      std::size_t big_k, const std::vector<Item>& items,
                      std::size_t l1_bytes,
                      const std::string& populated_store = {}) {
  const nc::bits::TestSet tune_td =
      nc::gen::calibrated_cubes(profile_named(kTuneProfile), run.opt.seed);
  ProbeInputs in;
  in.big_td = &big_td;
  in.big_k = big_k;
  in.items = &items;
  in.l1_bytes = l1_bytes;
  in.zipf_s = kWarmZipf;
  in.tune_td = &tune_td;
  in.dir = run.opt.work;
  in.populated_store = populated_store;
  in.smoke = run.opt.smoke;
  in.seed = run.opt.seed;
  run.doc["probes"] = run_probes(in, run.tracer);
}

void record_latencies(Run& run, const std::vector<double>& untraced,
                      const std::vector<double>& traced) {
  run.doc["samples"]["op_ms"] = to_json(untraced);
  run.doc["samples"]["op_traced_ms"] = to_json(traced);
}

}  // namespace

void Run::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Run::absorb(const LoadResult& r) {
  attempted += r.attempted;
  failed += r.failed;
  for (const std::string& f : r.failures)
    if (failures.size() < 8) failures.push_back(f);
}

// ---------------------------------------------------------------- cli_bulk

void run_cli_bulk(Run& run) {
  const nc::gen::BenchmarkProfile& profile = profile_named(kCliProfile);
  const nc::bits::TestSet td = nc::gen::calibrated_cubes(profile, run.opt.seed);
  const std::uint64_t td_bits = td.bit_count();
  Json facts = Json::object();
  facts["profile"] = kCliProfile;
  facts["patterns"] = static_cast<std::uint64_t>(td.pattern_count());
  facts["width"] = static_cast<std::uint64_t>(td.pattern_length());
  facts["td_bits"] = td_bits;
  facts["x_density"] = td.x_fraction();
  facts["k"] = static_cast<std::uint64_t>(kCliK);
  facts["file_format"] = "NCT1 binary";
  facts["processes"] = "one at a time";
  run.doc["facts"] = std::move(facts);

  const std::string td_path = path_in(run, "td.nct");
  const std::string te_path = path_in(run, "te.9c");
  const std::string back_path = path_in(run, "back.nct");
  const std::string log = path_in(run, "ninec.log");
  const std::vector<std::string> compress = {
      run.opt.ninec, "compress", "--in", td_path, "--out", te_path,
      "--k",         std::to_string(kCliK)};
  const std::vector<std::string> decompress = {
      run.opt.ninec, "decompress", "--in", te_path, "--out", back_path};

  // Set-up: write the input file and run one untimed round, whose outputs
  // become the references every measured round must reproduce.
  std::vector<double> setup;
  std::vector<std::uint8_t> ref_te, ref_back;
  for (std::size_t rep = 0; rep < setup_reps(run, 3); ++rep) {
    const std::int64_t t0 = now_ns();
    nc::bits::save_test_set_file(td_path, td);
    const ChildExit c = run.launcher.run(compress, log);
    const ChildExit d = run.launcher.run(decompress, log);
    setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!c.ok || !d.ok)
      throw std::runtime_error("set-up round of ninec compress/decompress "
                               "failed; see " + log);
    if (rep == 0) {
      ref_te = read_file(te_path);
      ref_back = read_file(back_path);
      const nc::bits::TestSet back = nc::bits::load_test_set_file(back_path);
      if (back.pattern_count() != td.pattern_count() ||
          back.pattern_length() != td.pattern_length() ||
          !td.flatten().covered_by(back.flatten()))
        throw std::runtime_error(
            "decompress lost specified trits of the input");
    }
  }
  run.doc["setup_s"] = to_json(setup);
  if (ref_te.size() < kNc9cHeader)
    throw std::runtime_error("compressed stream shorter than its header");
  const std::uint64_t te_trits = nct1_trit_count(
      ref_te.data() + kNc9cHeader, ref_te.size() - kNc9cHeader);

  // Process times are CPU times (see ChildExit); wall times are kept for
  // the report.
  std::vector<double> compress_ms, decompress_ms, wall_ms, untraced, traced;
  long rss_kb = 0;
  std::uint64_t rounds = 0;
  const std::int64_t deadline = deadline_after(run.opt.seconds);
  do {
    const bool trace_this = run.tracer.enabled() && rounds % 2 == 1;
    Tracer* tr = trace_this ? &run.tracer : nullptr;
    ChildExit c, d;
    {
      Span round(tr, "e2e.round", rounds);
      {
        Span s(tr, "e2e.compress", rounds);
        c = run.launcher.run(compress, log);
      }
      {
        Span s(tr, "e2e.decompress", rounds);
        d = run.launcher.run(decompress, log);
      }
    }
    run.attempted += 2;
    if (!c.ok) run.fail("ninec compress exited with status " +
                        std::to_string(c.status));
    else if (read_file(te_path) != ref_te)
      run.fail("TE stream differs from the first repetition");
    if (!d.ok) run.fail("ninec decompress exited with status " +
                        std::to_string(d.status));
    else if (read_file(back_path) != ref_back)
      run.fail("decompressed test set differs from the verified one");
    compress_ms.push_back(c.cpu_ms);
    decompress_ms.push_back(d.cpu_ms);
    wall_ms.push_back(c.wall_ms + d.wall_ms);
    (trace_this ? traced : untraced).push_back(c.cpu_ms + d.cpu_ms);
    rss_kb = std::max({rss_kb, c.maxrss_kb, d.maxrss_kb});
    ++rounds;
  } while (!past(deadline) && !run.opt.smoke);

  record_latencies(run, untraced, traced);
  run.doc["samples"]["compress_ms"] = to_json(compress_ms);
  run.doc["samples"]["decompress_ms"] = to_json(decompress_ms);
  run.doc["samples"]["op_wall_ms"] = to_json(wall_ms);
  run.doc["op_bits"] = td_bits;
  run.doc["cr"]["td_bits"] = td_bits;
  run.doc["cr"]["te_trits"] = te_trits;
  run.doc["peak_rss_kb"] = static_cast<long long>(rss_kb);

  if (run.opt.trace) {
    const std::vector<Item> items = probe_pool(run);
    inprocess_serve_probe(run, items);
    run_layer_probes(run, td, kCliK, items, kWarmL1Bytes);
  }
}

// -------------------------------------------------------------- serve_miss

void run_serve_miss(Run& run) {
  const nc::serve::LoadgenConfig cfg =
      serve_config(kMissPatterns, kMissWidth, kMissX, run.opt.seed);
  Json facts = serve_facts(cfg);
  facts["store"] = "fresh per start";
  facts["cache_bytes"] = static_cast<std::uint64_t>(
      nc::serve::ServerConfig{}.cache_capacity);
  facts["keys"] = "every request distinct";
  run.doc["facts"] = std::move(facts);

  const std::string sock = path_in(run, "s.sock");
  const std::string store = path_in(run, "store");
  std::vector<double> setup;
  std::unique_ptr<Child> server;
  for (std::size_t rep = 0; rep < setup_reps(run, 5); ++rep) {
    if (server) server->terminate();
    remove_tree(store);
    double ready = 0.0;
    server = start_server(run, sock, store, 0, ready);
    setup.push_back(ready);
  }
  run.doc["setup_s"] = to_json(setup);

  const Connect connect = unix_connect(sock);
  const std::string before = fetch_stats(connect);
  // The pool is built in chunks of about a second of traffic, between
  // which the loop pauses, so memory stays bounded while every request of
  // the run stays distinct. Only time inside a chunk is measured.
  LoadResult total;
  std::vector<Item> items;
  double measured_s = 0.0;
  std::size_t chunk_items = run.opt.smoke ? 32 : 512;
  std::uint64_t chunk = 0;
  Json segments = Json::array();
  while (measured_s < run.opt.seconds) {
    items = build_pool(cfg, chunk_items / 2,
                       (run.opt.seed << 20) + 1 + chunk * 4);
    std::atomic<std::size_t> next{0};
    LoadResult r = run_closed_loop(
        connect, items, kConns, kDepth, counter_picker(next, items.size()),
        run.opt.trace ? &run.tracer : nullptr, chunk << 40);
    measured_s += r.wall_s;
    const double rate = static_cast<double>(r.attempted) / r.wall_s;
    segments.push_back(segment(r));
    total.merge(std::move(r));
    ++chunk;
    const double remaining = run.opt.seconds - measured_s;
    if (run.opt.smoke || remaining <= 0.0) break;
    chunk_items = static_cast<std::size_t>(
        std::clamp(rate * std::min(1.0, remaining), 64.0, 4096.0)) &
        ~std::size_t{1};
  }
  total.wall_s = measured_s;
  const std::string after = fetch_stats(connect);
  const ChildExit exit = server->terminate();
  run.absorb(total);

  record_latencies(run, total.lat_ms, total.lat_traced_ms);
  run.doc["busy_s"] = measured_s;
  run.doc["segments"] = std::move(segments);
  run.doc["cr"]["td_bits"] = total.encode_td_bits;
  run.doc["cr"]["te_trits"] = total.encode_te_trits;
  run.doc["peak_rss_kb"] = static_cast<long long>(exit.maxrss_kb);
  run.doc["serve"] = serve_block("ninec serve", before, after, total);

  if (run.opt.trace)
    run_layer_probes(
        run, nc::serve::parse_encode_request(items.front().payload).tests,
        cfg.spec.k, items, nc::serve::ServerConfig{}.cache_capacity);
}

// -------------------------------------------------------------- serve_warm

void run_serve_warm(Run& run) {
  const nc::serve::LoadgenConfig cfg =
      serve_config(kWarmPatterns, kWarmWidth, kWarmX, run.opt.seed);
  const std::size_t pairs = run.opt.smoke ? 128 : kWarmDistinct;
  const std::vector<Item> items = build_pool(cfg, pairs, run.opt.seed << 20);
  std::uint64_t working_set = 0;
  for (const Item& it : items) working_set += 16 + it.expected.size();
  Json facts = serve_facts(cfg);
  facts["distinct_keys"] = static_cast<std::uint64_t>(items.size());
  facts["working_set_bytes"] = working_set;
  facts["cache_bytes"] = static_cast<std::uint64_t>(kWarmL1Bytes);
  facts["zipf_s"] = kWarmZipf;
  facts["store"] = "populated in set-up, then restarted";
  run.doc["facts"] = std::move(facts);

  const std::string sock = path_in(run, "s.sock");
  const std::string store = path_in(run, "store");
  const Connect connect = unix_connect(sock);

  // Populate the store through a first server: every key computed once
  // and written through.
  remove_tree(store);
  {
    double ready = 0.0;
    std::unique_ptr<Child> server =
        start_server(run, sock, store, kWarmL1Bytes, ready);
    std::atomic<std::size_t> next{0};
    const LoadResult fill =
        run_closed_loop(connect, items, kConns, kDepth,
                        counter_picker(next, items.size()), nullptr, 0);
    server->terminate();
    if (fill.failed > 0)
      throw std::runtime_error("populating the store failed: " +
                               fill.failures.front());
  }

  // Set-up: restart on the populated store until the server answers.
  std::vector<double> setup;
  std::unique_ptr<Child> server;
  for (std::size_t rep = 0; rep < setup_reps(run, 5); ++rep) {
    if (server) server->terminate();
    double ready = 0.0;
    server = start_server(run, sock, store, kWarmL1Bytes, ready);
    setup.push_back(ready);
  }
  run.doc["setup_s"] = to_json(setup);

  ZipfPicker picker(items.size(), kWarmZipf, run.opt.seed, kConns);
  const LoadResult warm = run_closed_loop(
      connect, items, kConns, kDepth,
      picker.until(deadline_after(run.opt.smoke ? 0.05 : kWarmupSeconds)),
      nullptr, 0);
  if (warm.failed > 0)
    throw std::runtime_error("warm-up traffic failed: " +
                             warm.failures.front());

  // Measured in back-to-back segments of about a second, whose throughputs
  // give a median that one descheduled stretch cannot move.
  const std::string before = fetch_stats(connect);
  LoadResult load;
  Json segments = Json::array();
  const std::int64_t deadline = deadline_after(run.opt.seconds);
  for (std::uint64_t seg = 0; !past(deadline); ++seg) {
    LoadResult r = run_closed_loop(
        connect, items, kConns, kDepth,
        picker.until(std::min(deadline, deadline_after(1.0))),
        run.opt.trace ? &run.tracer : nullptr, (seg + 1) << 40);
    const double wall = load.wall_s + r.wall_s;
    segments.push_back(segment(r));
    load.merge(std::move(r));
    load.wall_s = wall;
  }
  run.doc["segments"] = std::move(segments);
  const std::string after = fetch_stats(connect);
  const ChildExit exit = server->terminate();
  run.absorb(load);

  record_latencies(run, load.lat_ms, load.lat_traced_ms);
  run.doc["busy_s"] = load.wall_s;
  run.doc["cr"]["td_bits"] = load.encode_td_bits;
  run.doc["cr"]["te_trits"] = load.encode_te_trits;
  run.doc["peak_rss_kb"] = static_cast<long long>(exit.maxrss_kb);
  run.doc["serve"] = serve_block("ninec serve", before, after, load);

  if (run.opt.trace)
    run_layer_probes(
        run, nc::serve::parse_encode_request(items.front().payload).tests,
        cfg.spec.k, items, kWarmL1Bytes, store);
}

// -------------------------------------------------------------- tune_iscas

namespace {

std::uint64_t evaluations_in(const std::vector<std::uint8_t>& json) {
  const std::string text(json.begin(), json.end());
  const std::string key = "\"evaluations\":";
  const std::size_t at = text.find(key);
  if (at == std::string::npos)
    throw std::runtime_error("tune JSON has no evaluations count");
  return std::stoull(text.substr(at + key.size()));
}

}  // namespace

void run_tune_iscas(Run& run) {
  const nc::bits::TestSet td =
      nc::gen::calibrated_cubes(profile_named(kTuneProfile), run.opt.seed);
  const std::uint64_t td_bits = td.bit_count();
  Json facts = Json::object();
  facts["profile"] = kTuneProfile;
  facts["patterns"] = static_cast<std::uint64_t>(td.pattern_count());
  facts["width"] = static_cast<std::uint64_t>(td.pattern_length());
  facts["td_bits"] = td_bits;
  facts["x_density"] = td.x_fraction();
  facts["tune_seed"] = kTuneSeed;
  facts["generations"] = kTuneGenerations;
  facts["population"] = kTunePopulation;
  facts["jobs"] = "1";
  run.doc["facts"] = std::move(facts);

  const std::string td_path = path_in(run, "td.nct");
  const std::string json_path = path_in(run, "tune.json");
  const std::string log = path_in(run, "ninec.log");
  const std::vector<std::string> tune = {
      run.opt.ninec,  "tune",          "--in",         td_path,
      "--jobs",       "1",             "--seed",       kTuneSeed,
      "--generations", kTuneGenerations, "--population", kTunePopulation,
      "--json",       json_path};

  std::vector<double> setup;
  std::vector<std::uint8_t> ref;
  for (std::size_t rep = 0; rep < setup_reps(run, 3); ++rep) {
    const std::int64_t t0 = now_ns();
    nc::bits::save_test_set_file(td_path, td);
    const ChildExit e = run.launcher.run(tune, log);
    setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!e.ok) throw std::runtime_error("set-up ninec tune failed; see " + log);
    if (rep == 0) ref = read_file(json_path);
  }
  run.doc["setup_s"] = to_json(setup);
  const std::uint64_t evals = evaluations_in(ref);

  std::vector<double> untraced, traced, wall_ms;  // CPU times, as in cli_bulk
  long rss_kb = 0;
  std::uint64_t runs = 0;
  double busy_s = 0.0;
  const std::int64_t deadline = deadline_after(run.opt.seconds);
  do {
    const bool trace_this = run.tracer.enabled() && runs % 2 == 1;
    ChildExit e;
    {
      Span s(trace_this ? &run.tracer : nullptr, "e2e.tune", runs);
      e = run.launcher.run(tune, log);
    }
    ++run.attempted;
    if (!e.ok)
      run.fail("ninec tune exited with status " + std::to_string(e.status));
    else if (read_file(json_path) != ref)
      run.fail("tune result differs from the first repetition");
    (trace_this ? traced : untraced).push_back(e.cpu_ms);
    wall_ms.push_back(e.wall_ms);
    rss_kb = std::max(rss_kb, e.maxrss_kb);
    busy_s += e.cpu_ms / 1e3;
    ++runs;
  } while (!past(deadline) && !run.opt.smoke);

  record_latencies(run, untraced, traced);
  run.doc["samples"]["op_wall_ms"] = to_json(wall_ms);
  run.doc["op_bits"] = td_bits * evals;
  run.doc["busy_s"] = busy_s;
  run.doc["evaluations_per_run"] = evals;
  run.doc["tune_json"] = std::string(ref.begin(), ref.end());
  run.doc["peak_rss_kb"] = static_cast<long long>(rss_kb);

  if (run.opt.trace) {
    const std::vector<Item> items = probe_pool(run);
    inprocess_serve_probe(run, items);
    run_layer_probes(run, td, nc::tune::TuneGenome{}.k, items, kWarmL1Bytes);
  }
}

}  // namespace perfbench
