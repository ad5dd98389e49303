// ninec -- command-line driver for the 9C tool chain.
//
//   ninec gen       --profile s5378 --out td.tests [--seed N]
//   ninec circuit   --gates 500 --inputs 16 --flops 32 --out c.bench [--seed N]
//   ninec atpg      --bench c.bench --out td.tests [--no-compact]
//   ninec roundtrip --bench c.bench [--tests td.tests] [--xcode steiner]
//                   [--compact-outputs M] [--x-density R] [--json FILE]
//   ninec compress  --in td.tests --out te.9c [--k 8] [--freq-directed]
//                   [--shards N] [--jobs N]
//   ninec decompress --in te.9c --out back.tests [--jobs N]
//   ninec stats     --in td.tests [--k-min 4] [--k-max 32]
//   ninec fleet     --bench c.bench --tests td.tests --devices N
//                   [--inject SPECS] [--checkpoint FILE] [--resume] ...
//   ninec serve     --socket /tmp/nc9.sock [--workers N] [--duration-ms N]
//   ninec loadgen   --socket /tmp/nc9.sock [--clients N] [--inject SPEC]
//
// Test sets travel as text (one pattern per line, 0/1/X; '#' comments) when
// the file ends in .tests/.txt and as the packed binary format of
// bits/serialize.h otherwise. Compressed streams (.9c) embed K, the
// codeword lengths and the original geometry, so decompress needs no flags.
// With --shards/--jobs, compress writes the sharded container of
// codec/sharded.h (magic NC9S on disk): pattern-aligned shards encoded
// concurrently behind a per-shard offset/length/CRC index, which decompress
// decodes with --jobs workers. --jobs 0 means one per hardware thread.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "atpg/atpg.h"
#include "bits/serialize.h"
#include "decomp/ate_session.h"
#include "decomp/fleet.h"
#include "circuit/bench_io.h"
#include "circuit/generator.h"
#include "codec/nine_coded.h"
#include "codec/sharded.h"
#include "compact/roundtrip.h"
#include "compact/xcode.h"
#include "core/thread_pool.h"
#include "gen/cube_gen.h"
#include "report/json.h"
#include "report/table.h"
#include "rtl/verilog.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/loadgen.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "store/sharded_store.h"
#include "store/store.h"
#include "tune/genome.h"
#include "tune/optimizer.h"

namespace {

using nc::bits::TestSet;
using nc::bits::TritVector;

/// Prints the help and exits: to stdout with 0 without an error, else to
/// stderr, after the error, with 2.
[[noreturn]] void usage(const std::string& error = "");

/// Strict non-negative integer: the whole text must be digits and fit in
/// size_t. Anything else -- sign, trailing junk, empty, overflow -- is a
/// usage error (exit 2), never a silent 0 or a stoul crash.
std::size_t parse_size(const std::string& key, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos)
    usage("--" + key + " expects a non-negative integer, got '" + text + "'");
  try {
    const unsigned long long v = std::stoull(text);
    if (v > std::numeric_limits<std::size_t>::max())
      throw std::out_of_range(text);
    return static_cast<std::size_t>(v);
  } catch (const std::out_of_range&) {
    usage("--" + key + " value '" + text + "' is out of range");
  }
}

/// Strict ratio: a decimal in [0,1], fully consumed. Sign, trailing junk,
/// nan/inf, out-of-range -- usage error (exit 2), same contract as
/// parse_size.
double parse_ratio(const std::string& key, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size() || !(v >= 0.0 && v <= 1.0))
      throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    usage("--" + key + " expects a ratio in [0,1], got '" + text + "'");
  }
}

/// True if `synopsis` names the flag --`key` as a whole word.
bool names_flag(std::string_view synopsis, std::string_view key) {
  if (key.empty()) return false;
  const std::string token = "--" + std::string(key);
  for (std::size_t at = synopsis.find(token); at != std::string_view::npos;
       at = synopsis.find(token, at + 1)) {
    const std::size_t end = at + token.size();
    if (end == synopsis.size() ||
        std::string_view(" ]\n").find(synopsis[end]) != std::string_view::npos)
      return true;
  }
  return false;
}

/// Tiny flag parser: --name value pairs plus boolean switches. A flag the
/// command's synopsis does not name (the flags it reads) is a usage error
/// (exit 2).
class Args {
 public:
  Args(int argc, char** argv, int first, std::string_view synopsis) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) usage("unexpected argument: " + key);
      key = key.substr(2);
      if (!names_flag(synopsis, key))
        usage("unknown flag --" + key + " for " + argv[first - 1]);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
        values_[key] = argv[++i];
      else
        values_[key] = "";
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::string require(const std::string& key) const {
    if (!has(key) || values_.at(key).empty()) usage("missing --" + key);
    return values_.at(key);
  }
  std::size_t get_size(const std::string& key, std::size_t fallback) const {
    return has(key) ? parse_size(key, values_.at(key)) : fallback;
  }
  double get_ratio(const std::string& key, double fallback) const {
    return has(key) ? parse_ratio(key, values_.at(key)) : fallback;
  }

  /// Count flag: a positive integer. When `auto_value` is set, the literal
  /// "auto" is also accepted and maps to it (the library's 0-means-auto
  /// convention, which the CLI spells out instead of accepting a bare 0).
  std::size_t get_count(const std::string& key, std::size_t fallback,
                        std::optional<std::size_t> auto_value = {}) const {
    if (!has(key)) return fallback;
    const std::string& text = values_.at(key);
    if (auto_value.has_value() && text == "auto") return *auto_value;
    const std::size_t v = parse_size(key, text);
    if (v == 0)
      usage("--" + key + " must be >= 1" +
            std::string(auto_value.has_value() ? " (or 'auto')" : ""));
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
};

bool is_text_path(const std::string& path) {
  return path.ends_with(".tests") || path.ends_with(".txt");
}

TestSet load_tests(const std::string& path) {
  return is_text_path(path) ? TestSet::load_file(path)
                            : nc::bits::load_test_set_file(path);
}

void save_tests(const std::string& path, const TestSet& ts) {
  if (is_text_path(path))
    ts.save_file(path);
  else
    nc::bits::save_test_set_file(path, ts);
}

// ---------------------------------------------------------------- .9c I/O
// magic "NC9C" | u8 k | 9 x u8 codeword lengths | u64 patterns | u64 width |
// serialized TE trits.
//
// Sharded files share the same layout under magic "NC9S"; their trit payload
// is the self-describing container of codec/sharded.h (pattern-aligned
// shards behind an offset/length/CRC index).
//
// Tuned streams (compress --table with a genome outside the paper's default
// shape) use the extended header "NC9T": magic | u8 k | u8 split | u8 fill |
// u64 fill_seed | 9 x u8 lengths | u64 patterns | u64 width | trits. The
// split reaches the decoder (asymmetric halves change the stream layout);
// fill/fill_seed are provenance only -- the encoded payload is the filled
// TD, so decoding needs neither.

/// The headers store K in one byte: compress refuses a larger K up front
/// instead of writing a stream that decompress cannot read.
void check_header_k(std::size_t k, const std::string& source) {
  if (k > 255)
    usage(source + " must be at most 255 (stream headers store K in one "
          "byte), got " + std::to_string(k));
}

void save_stream(const std::string& path, const nc::codec::NineCoded& coder,
                 const TestSet& td, const TritVector& te,
                 bool sharded = false,
                 const nc::tune::TuneGenome* genome = nullptr) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  const bool tuned = genome != nullptr && !genome->is_standard_shape();
  out.write(tuned ? "NC9T" : (sharded ? "NC9S" : "NC9C"), 4);
  out.put(static_cast<char>(coder.block_size()));
  auto put_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.put(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  if (tuned) {
    out.put(static_cast<char>(genome->split));
    out.put(static_cast<char>(genome->fill));
    put_u64(genome->fill_seed);
  }
  for (std::size_t c = 0; c < nc::codec::kNumClasses; ++c)
    out.put(static_cast<char>(
        coder.table().length(static_cast<nc::codec::BlockClass>(c))));
  put_u64(td.pattern_count());
  put_u64(td.pattern_length());
  nc::bits::save_trits(out, te);
  if (!out) throw std::runtime_error("write failed: " + path);
}

struct LoadedStream {
  nc::codec::NineCoded coder;
  std::size_t patterns;
  std::size_t width;
  TritVector te;
  bool sharded = false;
};

LoadedStream load_stream(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  char magic[4];
  in.read(magic, 4);
  const bool sharded = in && std::strncmp(magic, "NC9S", 4) == 0;
  const bool tuned = in && std::strncmp(magic, "NC9T", 4) == 0;
  if (!in || (!sharded && !tuned && std::strncmp(magic, "NC9C", 4) != 0))
    throw std::runtime_error(path + " is not a ninec stream");
  const std::size_t k = static_cast<unsigned char>(in.get());
  auto get_u64 = [&] {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in.get()))
           << (8 * i);
    return v;
  };
  std::size_t split = 0;
  if (tuned) {
    split = static_cast<unsigned char>(in.get());
    in.get();   // fill policy: provenance only, the payload is already filled
    get_u64();  // fill seed, likewise
  }
  std::array<unsigned, nc::codec::kNumClasses> lengths{};
  for (auto& len : lengths) len = static_cast<unsigned char>(in.get());
  const std::size_t patterns = static_cast<std::size_t>(get_u64());
  const std::size_t width = static_cast<std::size_t>(get_u64());
  if (!in) throw std::runtime_error(path + " is truncated");
  TritVector te = nc::bits::load_trits(in);
  return LoadedStream{
      nc::codec::NineCoded(k, nc::codec::CodewordTable::from_lengths(lengths),
                           split),
      patterns, width, std::move(te), sharded};
}

// ---------------------------------------------------------------- commands

int cmd_gen(const Args& args) {
  const std::string name = args.require("profile");
  const nc::gen::BenchmarkProfile* profile = nullptr;
  for (const auto& p : nc::gen::iscas89_profiles())
    if (p.name == name) profile = &p;
  for (const auto& p : nc::gen::ibm_profiles())
    if (p.name == name) profile = &p;
  if (profile == nullptr) usage("unknown profile " + name);
  const TestSet ts =
      nc::gen::calibrated_cubes(*profile, args.get_size("seed", 1));
  save_tests(args.require("out"), ts);
  std::cout << profile->name << ": " << ts.pattern_count() << " x "
            << ts.pattern_length() << " cubes, "
            << 100.0 * ts.x_fraction() << "% X -> " << args.get("out")
            << '\n';
  return 0;
}

int cmd_circuit(const Args& args) {
  nc::circuit::GeneratorConfig cfg;
  cfg.num_gates = args.get_size("gates", 500);
  cfg.num_inputs = args.get_size("inputs", 16);
  cfg.num_flops = args.get_size("flops", 32);
  cfg.num_outputs = args.get_size("outputs", 8);
  cfg.seed = args.get_size("seed", 1);
  const nc::circuit::Netlist nl = nc::circuit::generate_circuit(cfg);
  std::ofstream out(args.require("out"));
  if (!out) throw std::runtime_error("cannot write " + args.get("out"));
  nc::circuit::write_bench(out, nl);
  std::cout << "wrote " << nl.logic_gate_count() << "-gate netlist ("
            << nl.inputs().size() << " PIs, " << nl.flops().size()
            << " flops) -> " << args.get("out") << '\n';
  return 0;
}

int cmd_atpg(const Args& args) {
  const nc::circuit::Netlist nl =
      nc::circuit::load_bench_file(args.require("bench"));
  nc::atpg::AtpgConfig cfg;
  cfg.compact = !args.has("no-compact");
  const nc::atpg::AtpgResult result = nc::atpg::generate_tests(nl, cfg);
  save_tests(args.require("out"), result.tests);
  std::cout << "ATPG: " << result.tests.pattern_count() << " cubes, "
            << 100.0 * result.tests.x_fraction() << "% X, efficiency "
            << result.efficiency_percent() << "% ("
            << result.detected << " detected, " << result.untestable
            << " untestable, " << result.aborted << " aborted)\n";
  return 0;
}

/// --xcode identity|steiner|greedy (default steiner). Anything else exits 2.
nc::compact::XCodeKind parse_xcode_kind(const Args& args) {
  const std::string text = args.get("xcode", "steiner");
  if (text == "identity") return nc::compact::XCodeKind::kIdentity;
  if (text == "steiner") return nc::compact::XCodeKind::kSteiner;
  if (text == "greedy") return nc::compact::XCodeKind::kGreedy;
  usage("--xcode expects identity, steiner or greedy, got '" + text + "'");
}

int cmd_roundtrip(const Args& args) {
  const nc::circuit::Netlist nl =
      nc::circuit::load_bench_file(args.require("bench"));

  TestSet td;
  if (args.has("tests")) {
    td = load_tests(args.require("tests"));
  } else {
    nc::atpg::AtpgConfig acfg;
    acfg.compact = !args.has("no-compact");
    td = nc::atpg::generate_tests(nl, acfg).tests;
  }

  nc::compact::RoundtripConfig cfg;
  cfg.block_size = args.get_count("k", cfg.block_size);
  cfg.xcode.kind = parse_xcode_kind(args);
  // get_count rejects 0: m = 0 (auto) is spelled by omitting the flag.
  cfg.xcode.outputs = args.get_count("compact-outputs", 0);
  cfg.xcode.seed = args.get_size("seed", cfg.xcode.seed);
  cfg.analyzer.x_density = args.get_ratio("x-density", 0.0);
  cfg.analyzer.x_seed = cfg.xcode.seed;
  cfg.analyzer.jobs = args.get_count("jobs", 1, std::size_t{0});

  const std::vector<nc::sim::Fault> faults = nc::sim::full_fault_list(nl);
  const nc::compact::RoundtripResult r =
      nc::compact::run_roundtrip(nl, td, faults, cfg);
  const nc::compact::AnalyzerReport& rep = r.report;

  std::cout << "stimulus: " << r.patterns << " patterns x "
            << r.pattern_width << " bits, " << r.td_bits << " -> "
            << r.te_bits << " TE bits (CR " << r.compression_percent
            << "%)\n"
            << "response: " << nc::compact::to_string(r.xcode_kind)
            << " X-code " << rep.compact_outputs << " x "
            << rep.response_width << " (t = " << rep.tolerance
            << "), compaction " << rep.compaction_ratio() << "x\n"
            << "unknowns: " << rep.total_x << " X total, max "
            << rep.max_cycle_x << " per cycle, "
            << rep.cycles_over_tolerance << " cycles over tolerance\n"
            << "coverage: " << rep.coverage_uncompacted_percent()
            << "% uncompacted, " << rep.coverage_compacted_percent()
            << "% compacted (" << rep.masked_by_compaction << " masked, "
            << rep.coverage_loss_percent() << "% loss)\n";
  if (rep.misr_enabled)
    std::cout << "misr: " << rep.misr_coverage_percent() << "% coverage, "
              << rep.misr_no_verdict << " faults with no verdict"
              << (rep.misr_good_poisoned ? " (reference signature poisoned)"
                                         : "")
              << '\n';
  if (rep.tolerance_violations > 0)
    std::cout << "TOLERANCE VIOLATIONS: " << rep.tolerance_violations
              << " masked faults inside the code's claimed t\n";

  if (args.has("json")) {
    nc::report::Json doc = nc::report::Json::object();
    doc["patterns"] = r.patterns;
    doc["pattern_width"] = r.pattern_width;
    doc["td_bits"] = r.td_bits;
    doc["te_bits"] = r.te_bits;
    doc["compression_percent"] = r.compression_percent;
    doc["xcode"] = std::string(nc::compact::to_string(r.xcode_kind));
    doc["response_width"] = rep.response_width;
    doc["compact_outputs"] = rep.compact_outputs;
    doc["tolerance"] = std::uint64_t{rep.tolerance};
    doc["compaction_ratio"] = rep.compaction_ratio();
    doc["faults"] = rep.faults;
    doc["detected_uncompacted"] = rep.detected_uncompacted;
    doc["detected_compacted"] = rep.detected_compacted;
    doc["masked_by_compaction"] = rep.masked_by_compaction;
    doc["tolerance_violations"] = rep.tolerance_violations;
    doc["coverage_uncompacted_percent"] = rep.coverage_uncompacted_percent();
    doc["coverage_compacted_percent"] = rep.coverage_compacted_percent();
    doc["coverage_loss_percent"] = rep.coverage_loss_percent();
    doc["total_x"] = rep.total_x;
    doc["max_cycle_x"] = rep.max_cycle_x;
    doc["cycles_over_tolerance"] = rep.cycles_over_tolerance;
    doc["misr_enabled"] = rep.misr_enabled;
    doc["misr_coverage_percent"] = rep.misr_coverage_percent();
    doc["misr_no_verdict"] = rep.misr_no_verdict;
    doc["misr_good_poisoned"] = rep.misr_good_poisoned;
    nc::report::write_json_file(args.require("json"), doc);
  }
  return rep.masked_by_compaction == 0 && rep.tolerance_violations == 0 ? 0
                                                                        : 1;
}

/// Reads a whole file into a string (genome JSON tables are tiny).
std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

int cmd_compress(const Args& args) {
  const TestSet td = load_tests(args.require("in"));
  if (args.has("table")) {
    // A tuned genome pins K, the lengths, the split and the fill policy;
    // combining it with the knobs it replaces is a contradiction, and the
    // sharded container does not carry the extended header.
    if (args.has("k") || args.has("freq-directed") || args.has("shards") ||
        args.has("jobs"))
      usage("--table excludes --k/--freq-directed/--shards/--jobs");
    const nc::tune::TuneGenome genome =
        nc::tune::TuneGenome::from_json(slurp_file(args.require("table")));
    check_header_k(genome.k, "the --table genome's k");
    const TestSet filled = genome.apply_fill(td);
    const nc::codec::NineCoded coder = genome.make_coder();
    TritVector te;
    const auto stats = coder.analyze(filled.flatten(), &te);
    save_stream(args.require("out"), coder, filled, te, /*sharded=*/false,
                &genome);
    std::cout << coder.name() << " (tuned, fill "
              << nc::tune::fill_policy_name(genome.fill) << "): "
              << stats.original_bits << " -> " << stats.encoded_bits
              << " bits, CR " << stats.compression_ratio()
              << "%, leftover X " << stats.leftover_x_percent() << "%\n";
    return 0;
  }
  const std::size_t k = args.get_count("k", 8);
  check_header_k(k, "--k");
  const TritVector& stream = td.flatten();
  const nc::codec::NineCoded coder =
      args.has("freq-directed") ? nc::codec::NineCoded::tuned_for(stream, k)
                                : nc::codec::NineCoded(k);
  if (args.has("shards") || args.has("jobs")) {
    // Sharded container: --shards 0 (or absent) means one shard per job.
    nc::codec::ShardedStats sstats;
    const TritVector container = nc::codec::encode_sharded(
        coder, td, args.get_count("shards", 0, std::size_t{0}),
        args.get_count("jobs", 1, std::size_t{0}), &sstats);
    save_stream(args.require("out"), coder, td, container, /*sharded=*/true);
    std::cout << coder.name() << ": " << td.bit_count() << " -> "
              << sstats.total_bits << " bits in " << sstats.shard_count
              << " shards, CR "
              << nc::codec::compression_ratio_percent(td.bit_count(),
                                                      sstats.total_bits)
              << "%, shard index " << sstats.index_overhead_percent()
              << "% of container\n";
    return 0;
  }
  TritVector te;
  const auto stats = coder.analyze(stream, &te);
  save_stream(args.require("out"), coder, td, te);
  std::cout << coder.name() << ": " << stats.original_bits << " -> "
            << stats.encoded_bits << " bits, CR "
            << stats.compression_ratio() << "%, leftover X "
            << stats.leftover_x_percent() << "%\n";
  return 0;
}

int cmd_decompress(const Args& args) {
  // Validate up front: a bad --jobs must exit 2 even when the input turns
  // out to be a plain (unsharded) stream that decodes serially.
  const std::size_t jobs = args.get_count("jobs", 1, std::size_t{0});
  const LoadedStream s = load_stream(args.require("in"));
  if (s.sharded) {
    const TestSet back = nc::codec::decode_sharded(s.coder, s.te, jobs);
    save_tests(args.require("out"), back);
    std::cout << "decoded " << back.pattern_count() << " x "
              << back.pattern_length() << " patterns (sharded) -> "
              << args.get("out") << '\n';
    return 0;
  }
  TritVector decoded = s.coder.decode(s.te, s.patterns * s.width);
  save_tests(args.require("out"),
             TestSet::unflatten(std::move(decoded), s.patterns, s.width));
  std::cout << "decoded " << s.patterns << " x " << s.width
            << " patterns -> " << args.get("out") << '\n';
  return 0;
}

int cmd_stats(const Args& args) {
  // The sweep steps K by 4 from --k-min, so an odd start would reach no
  // even K, and --k-max takes compress's bound, which also keeps the step
  // from wrapping.
  const std::size_t k_min = args.get_count("k-min", 4);
  const std::size_t k_max = args.get_count("k-max", 32);
  if (k_min % 2 != 0)
    usage("--k-min must be even, got " + std::to_string(k_min));
  if (k_min > k_max)
    usage("--k-min " + std::to_string(k_min) + " exceeds --k-max " +
          std::to_string(k_max));
  check_header_k(k_max, "--k-max");
  const TestSet td = load_tests(args.require("in"));
  const TritVector& stream = td.flatten();
  nc::report::Table table("9C sweep of " + args.get("in") + " (" +
                          std::to_string(stream.size()) + " bits, " +
                          std::to_string(100.0 * stream.x_fraction()) +
                          "% X)");
  table.set_header({"K", "CR%", "LX%", "|TE|"});
  for (std::size_t k = k_min; k <= k_max; k += 4) {
    const auto stats = nc::codec::NineCoded(k).analyze(stream);
    table.row()
        .add(k)
        .add(stats.compression_ratio(), 2)
        .add(stats.leftover_x_percent(), 2)
        .add(stats.encoded_bits);
  }
  table.print(std::cout);
  return 0;
}

/// --weights CR:TAT:GATES plus --p; defaults are TuneWeights' own. Each
/// field must be a finite non-negative decimal; anything else exits 2.
nc::tune::TuneWeights parse_weights(const Args& args) {
  nc::tune::TuneWeights w;
  w.p = static_cast<unsigned>(args.get_count("p", w.p));
  if (!args.has("weights")) return w;
  const std::string text = args.require("weights");
  std::array<double, 3> v{};
  std::size_t start = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t colon = i == 2 ? text.size() : text.find(':', start);
    const std::string part =
        text.substr(start, (colon == std::string::npos ? text.size() : colon) -
                               start);
    try {
      if (colon == std::string::npos) throw std::invalid_argument(part);
      std::size_t pos = 0;
      v[i] = std::stod(part, &pos);
      if (pos != part.size() || !(v[i] >= 0.0) || v[i] - v[i] != 0.0)
        throw std::invalid_argument(part);
    } catch (const std::exception&) {
      usage("--weights expects three finite non-negative numbers "
            "CR:TAT:GATES, got '" + text + "'");
    }
    start = colon + 1;
  }
  w.cr = v[0];
  w.tat = v[1];
  w.gates = v[2];
  return w;
}

std::string genome_summary(const nc::tune::TuneGenome& g) {
  std::string s = "K=" + std::to_string(g.k) +
                  " split=" + std::to_string(g.resolved_split()) + "/" +
                  std::to_string(g.k - g.resolved_split()) + " lengths=";
  for (std::size_t i = 0; i < g.lengths.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(g.lengths[i]);
  }
  s += std::string(" fill=") + nc::tune::fill_policy_name(g.fill);
  if (g.fill == nc::tune::FillPolicy::kRandom)
    s += "(seed " + std::to_string(g.fill_seed) + ")";
  return s;
}

nc::report::Json genome_json(const nc::tune::TuneGenome& g) {
  nc::report::Json j = nc::report::Json::object();
  j["k"] = std::uint64_t{g.k};
  j["split"] = std::uint64_t{g.split};
  nc::report::Json lens = nc::report::Json::array();
  for (const unsigned len : g.lengths)
    lens.push_back(nc::report::Json(std::uint64_t{len}));
  j["lengths"] = std::move(lens);
  j["fill"] = std::string(nc::tune::fill_policy_name(g.fill));
  j["fill_seed"] = g.fill_seed;
  return j;
}

nc::report::Json fitness_json(const nc::tune::FitnessReport& r) {
  nc::report::Json j = nc::report::Json::object();
  j["valid"] = r.valid;
  // An invalid report's score is -infinity, which JSON cannot carry.
  j["score"] = r.valid ? r.score : 0.0;
  j["cr_percent"] = r.cr_percent;
  j["tat_percent"] = r.tat_percent;
  j["fsm_gates"] = std::uint64_t{r.fsm_gates};
  j["datapath_gates"] = std::uint64_t{r.datapath_gates};
  j["encoded_bits"] = std::uint64_t{r.encoded_bits};
  return j;
}

void print_fitness(const std::string& label, const nc::tune::TuneGenome& g,
                   const nc::tune::FitnessReport& r) {
  std::cout << label << ": score " << r.score << " (CR " << r.cr_percent
            << "%, TAT " << r.tat_percent << "%, FSM " << r.fsm_gates
            << " GE, datapath " << r.datapath_gates << " GE)\n  "
            << genome_summary(g) << '\n';
}

/// Remote mode: the search runs on a ninec serve instance and comes back as
/// a content-addressed artifact. --repeat resends the byte-identical
/// request; every reply must match the first byte for byte (the server
/// either computed once or answered from a tier).
int cmd_tune_remote(const Args& args) {
  const std::string socket = args.require("socket");
  nc::serve::TuneRequest req;
  req.seed = args.get_size("seed", 1);
  req.generations =
      static_cast<std::uint32_t>(args.get_count("generations", 10));
  req.population =
      static_cast<std::uint32_t>(args.get_count("population", 24));
  const nc::tune::TuneWeights w = parse_weights(args);
  req.weight_cr = w.cr;
  req.weight_tat = w.tat;
  req.weight_gates = w.gates;
  req.p = w.p;
  req.tests = load_tests(args.require("in"));
  const std::vector<std::uint8_t> payload = nc::serve::to_payload(req);

  nc::serve::RetryingClient client(
      [socket] { return nc::serve::connect_unix(socket); });
  const std::size_t repeat = args.get_count("repeat", 1);
  const auto overall =
      std::chrono::milliseconds(args.get_size("deadline-ms", 300000));
  std::vector<std::uint8_t> first_reply;
  for (std::size_t i = 0; i < repeat; ++i) {
    const auto outcome = client.call(nc::serve::FrameType::kTuneRequest,
                                     payload, overall);
    using Status = nc::serve::RetryingClient::Outcome::Status;
    if (!outcome.has_value()) {
      std::cerr << "error: tune request " << i + 1 << " timed out\n";
      return 1;
    }
    if (outcome->status != Status::kReply) {
      std::cerr << "error: tune request " << i + 1 << " failed: "
                << (outcome->status == Status::kTypedError
                        ? nc::serve::to_string(outcome->error) +
                              (": " + outcome->detail)
                        : std::string("retries exhausted"))
                << '\n';
      return 1;
    }
    const nc::serve::TuneReplyData reply =
        nc::serve::parse_tune_reply(outcome->reply.payload);
    if (i == 0) {
      first_reply = outcome->reply.payload;
      std::cout << "winner: score " << reply.score << " (CR "
                << reply.cr_percent << "%, TAT " << reply.tat_percent
                << "%, FSM " << reply.fsm_gates << " GE) after "
                << reply.evaluations << " evaluations\n  "
                << genome_summary(reply.genome) << '\n';
      if (args.has("out")) {
        std::ofstream out(args.require("out"));
        if (!out) throw std::runtime_error("cannot write " + args.get("out"));
        out << reply.genome.to_json();
      }
    } else if (outcome->reply.payload != first_reply) {
      std::cerr << "error: repeat " << i + 1
                << " returned a different artifact\n";
      return 1;
    }
  }
  if (repeat > 1)
    std::cout << repeat << " identical requests, " << repeat
              << " byte-identical replies\n";
  const auto stats = client.call(nc::serve::FrameType::kStatsRequest, {},
                                 std::chrono::milliseconds(10000));
  if (stats.has_value() &&
      stats->status == nc::serve::RetryingClient::Outcome::Status::kReply)
    std::cout << std::string(stats->reply.payload.begin(),
                             stats->reply.payload.end())
              << '\n';
  return 0;
}

int cmd_tune(const Args& args) {
  if (args.has("socket")) return cmd_tune_remote(args);
  const TestSet td = load_tests(args.require("in"));
  nc::tune::TuneConfig cfg;
  cfg.seed = args.get_size("seed", cfg.seed);
  cfg.generations = args.get_count("generations", cfg.generations);
  cfg.population = args.get_count("population", cfg.population);
  cfg.jobs = args.get_count("jobs", 1,
                            nc::core::ThreadPool::hardware_threads());
  cfg.weights = parse_weights(args);
  cfg.k_min = args.get_count("k-min", cfg.k_min);
  cfg.k_max = args.get_count("k-max", cfg.k_max);
  cfg.baseline_k = args.get_count("baseline-k", cfg.baseline_k);
  cfg.tune_split = !args.has("no-split");
  cfg.tune_fill = !args.has("no-fill");

  const nc::tune::TuneResult r = nc::tune::run_tune(td, cfg);

  std::cout << "tune: " << td.pattern_count() << " x "
            << td.pattern_length() << " cubes, " << cfg.generations
            << " generations x " << cfg.population << " candidates, seed "
            << cfg.seed << " (" << r.evaluations << " evaluations, "
            << r.invalid_genomes << " invalid)\n";
  print_fitness("standard", nc::tune::TuneGenome::standard(cfg.baseline_k),
                r.standard_report);
  print_fitness("freq-directed", r.frequency_directed,
                r.frequency_directed_report);
  print_fitness("winner", r.best, r.best_report);
  for (const nc::tune::GenerationTrace& t : r.trace)
    std::cout << "  gen " << t.generation << ": best " << t.best_score
              << ", mean " << t.mean_valid_score << ", invalid "
              << t.invalid << '\n';

  if (args.has("out")) {
    std::ofstream out(args.require("out"));
    if (!out) throw std::runtime_error("cannot write " + args.get("out"));
    out << r.best.to_json();
    std::cout << "genome -> " << args.get("out") << '\n';
  }
  if (args.has("json")) {
    nc::report::Json doc = nc::report::Json::object();
    doc["seed"] = cfg.seed;
    doc["generations"] = std::uint64_t{cfg.generations};
    doc["population"] = std::uint64_t{cfg.population};
    doc["weights_cr"] = cfg.weights.cr;
    doc["weights_tat"] = cfg.weights.tat;
    doc["weights_gates"] = cfg.weights.gates;
    doc["p"] = std::uint64_t{cfg.weights.p};
    doc["evaluations"] = std::uint64_t{r.evaluations};
    doc["invalid_genomes"] = std::uint64_t{r.invalid_genomes};
    doc["winner"] = genome_json(r.best);
    doc["winner_fitness"] = fitness_json(r.best_report);
    doc["standard_fitness"] = fitness_json(r.standard_report);
    doc["freq_directed_fitness"] = fitness_json(r.frequency_directed_report);
    nc::report::Json trace = nc::report::Json::array();
    for (const nc::tune::GenerationTrace& t : r.trace) {
      nc::report::Json g = nc::report::Json::object();
      g["generation"] = std::uint64_t{t.generation};
      g["best_score"] = t.best_score;
      g["mean_valid_score"] = t.mean_valid_score;
      g["invalid"] = std::uint64_t{t.invalid};
      trace.push_back(std::move(g));
    }
    doc["trace"] = std::move(trace);
    nc::report::write_json_file(args.require("json"), doc);
  }
  return 0;
}

int cmd_rtl(const Args& args) {
  const std::size_t k = args.get_count("k", 8);
  nc::codec::CodewordTable table = nc::codec::CodewordTable::standard();
  if (args.has("freq-directed")) {
    // Tune the codeword tree to a training test set.
    const TestSet td = load_tests(args.require("in"));
    table = nc::codec::NineCoded::tuned_for(td.flatten(), k).table();
  }
  nc::rtl::VerilogOptions options;
  options.module_name = args.get("module", "ninec_decoder");
  const std::string source =
      nc::rtl::generate_decoder_verilog(table, k, options);
  std::ofstream out(args.require("out"));
  if (!out) throw std::runtime_error("cannot write " + args.get("out"));
  out << source;
  std::cout << "wrote " << options.module_name << " (K=" << k << ") -> "
            << args.get("out") << '\n';
  if (args.has("testbench")) {
    std::ofstream tb(args.get("testbench"));
    if (!tb) throw std::runtime_error("cannot write " + args.get("testbench"));
    tb << nc::rtl::generate_decoder_testbench(k, options.module_name);
    std::cout << "wrote testbench -> " << args.get("testbench") << '\n';
  }
  return 0;
}

int cmd_session(const Args& args) {
  const nc::circuit::Netlist nl =
      nc::circuit::load_bench_file(args.require("bench"));
  const TestSet tests = load_tests(args.require("tests"));
  nc::decomp::SessionConfig cfg;
  cfg.block_size = args.get_count("k", 8);
  cfg.p = static_cast<unsigned>(args.get_count("p", 8));
  cfg.jobs = args.get_count("jobs", 1, std::size_t{0});
  cfg.shards = args.get_count("shards", 0, std::size_t{0});
  if (args.has("inject") || args.has("retry") || args.has("abort-after")) {
    nc::decomp::ResilienceConfig res;
    if (args.has("inject"))
      res.channel = nc::decomp::ChannelConfig::parse(args.get("inject"));
    res.retry.max_retries = static_cast<unsigned>(args.get_size("retry", 3));
    if (args.has("abort-after"))
      res.retry.abort_after = args.get_size("abort-after", 0);
    cfg.resilience = res;
  }
  const nc::decomp::SessionResult r =
      nc::decomp::run_test_session(nl, tests, cfg);
  std::cout << "ATE session: " << r.patterns_applied << " patterns, "
            << r.ate_bits << " compressed bits streamed, " << r.soc_cycles
            << " SoC cycles (scan-in + capture)\n";
  if (cfg.resilience.has_value()) {
    std::cout << "channel: " << cfg.resilience->channel.to_string() << '\n'
              << "  corrupted transmissions: "
              << r.channel.corrupted_transmissions << " of "
              << r.channel.transmissions << " (detected "
              << r.corruptions_detected << ", X-masked "
              << r.corruptions_undetected << ")\n"
              << "  retries: " << r.retries << " across "
              << r.patterns_retried << " patterns, wasted ATE bits "
              << r.wasted_ate_bits << '\n';
    if (r.patterns_unrecovered > 0)
      std::cout << "  UNRECOVERED patterns (retry budget exhausted): "
                << r.patterns_unrecovered << (r.aborted ? ", session ABORTED"
                                                        : "")
                << '\n';
  }
  const char* verdict =
      r.device_passes()
          ? "PASS"
          : (r.failing_patterns > 0 ? "FAIL (response mismatch!)"
                                    : "NO VERDICT (channel failure)");
  std::cout << "fault-free device: " << verdict << '\n';
  return r.device_passes() ? 0 : 1;
}

int cmd_fleet(const Args& args) {
  const nc::circuit::Netlist nl =
      nc::circuit::load_bench_file(args.require("bench"));
  const TestSet tests = load_tests(args.require("tests"));

  nc::decomp::FleetConfig cfg;
  cfg.block_size = args.get_count("k", 8);
  cfg.p = static_cast<unsigned>(args.get_count("p", 8));
  cfg.retry.max_retries = static_cast<unsigned>(args.get_size("retry", 3));
  if (args.has("abort-after"))
    cfg.retry.abort_after = args.get_count("abort-after", 1);
  cfg.breaker.open_after =
      static_cast<unsigned>(args.get_count("breaker-threshold", 3));
  cfg.breaker.probe_after = args.get_size("breaker-probe", 2);
  cfg.watchdog_steps = args.get_size("watchdog-steps", 0);  // 0 = auto
  cfg.batch_patterns = args.get_count("batch", 8);
  cfg.jobs = args.get_count("jobs", 1, std::size_t{0});
  cfg.seed = args.get_size("seed", 1);
  cfg.checkpoint_path = args.get("checkpoint");
  cfg.resume = args.has("resume");
  if (args.has("stop-after"))
    cfg.stop_after_batches = args.get_count("stop-after", 1);
  if (cfg.resume && cfg.checkpoint_path.empty())
    usage("--resume needs --checkpoint");

  // One profile per device; a ';'-separated --inject list is assigned
  // round-robin, so heterogeneous fleets are one flag away.
  const std::size_t devices = args.get_count("devices", 4);
  std::vector<nc::decomp::DeviceProfile> profiles(devices);
  if (args.has("inject")) {
    std::vector<nc::decomp::ChannelConfig> specs;
    const std::string& list = args.get("inject");
    std::size_t start = 0;
    while (start <= list.size()) {
      const std::size_t split = std::min(list.find(';', start), list.size());
      specs.push_back(
          nc::decomp::ChannelConfig::parse(list.substr(start, split - start)));
      start = split + 1;
    }
    for (std::size_t i = 0; i < devices; ++i)
      profiles[i].channel = specs[i % specs.size()];
  }

  const nc::decomp::FleetResult r =
      nc::decomp::run_fleet(nl, tests, cfg, profiles);

  std::cout << "fleet: " << devices << " devices x "
            << tests.pattern_count() << " patterns, " << r.batches_run
            << " batches (" << cfg.batch_patterns << " patterns each)"
            << (r.resumed ? ", resumed" : "")
            << (r.complete ? "" : ", STOPPED EARLY") << '\n';
  for (std::size_t i = 0; i < r.devices.size(); ++i) {
    const nc::decomp::DeviceResult& d = r.devices[i];
    std::cout << "  device " << i << ": "
              << nc::decomp::to_string(d.verdict) << " (breaker "
              << nc::decomp::to_string(d.breaker) << ", "
              << d.session.failing_patterns << " failing, "
              << d.session.retries << " retries, " << d.watchdog_trips
              << " watchdog trips, " << d.patterns_skipped << " skipped)\n";
  }
  std::cout << "verdicts: " << r.passed << " passed, " << r.failed
            << " failed, " << r.quarantined << " quarantined, " << r.aborted
            << " aborted\n"
            << "channel: " << r.ate_bits << " ATE bits applied, "
            << r.wasted_ate_bits << " wasted, " << r.retries << " retries, "
            << r.watchdog_trips << " watchdog trips, " << r.patterns_skipped
            << " patterns skipped\n";
  if (!cfg.checkpoint_path.empty())
    std::cout << "journal: " << cfg.checkpoint_path << " ("
              << r.checkpoints_written << " checkpoints written)\n";
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(nc::decomp::fleet_fingerprint(r)));
  std::cout << "fingerprint: " << fp << '\n';
  return r.complete && r.passed == devices ? 0 : 1;
}

int cmd_serve(const Args& args) {
  nc::serve::ServerConfig cfg;
  cfg.worker_threads =
      args.get_count("workers", cfg.worker_threads, std::size_t{0});
  cfg.queue_capacity = args.get_count("queue", cfg.queue_capacity);
  cfg.inflight_cap = args.get_count("inflight", cfg.inflight_cap);
  cfg.cache_capacity = args.get_size("cache-bytes", cfg.cache_capacity);
  cfg.store_dir = args.get("store");
  cfg.store_segment_bytes =
      args.get_size("store-segment-bytes", cfg.store_segment_bytes);
  cfg.store_shards =
      static_cast<unsigned>(args.get_size("store-shards", cfg.store_shards));
  cfg.store_parity =
      static_cast<unsigned>(args.get_size("store-parity", cfg.store_parity));
  cfg.store_stripe_threshold =
      args.get_size("store-stripe-bytes", cfg.store_stripe_threshold);
  cfg.store_scrub_interval_ms = static_cast<std::uint32_t>(
      args.get_size("store-scrub-ms", cfg.store_scrub_interval_ms));
  cfg.default_deadline_ms = static_cast<std::uint32_t>(
      args.get_size("request-deadline-ms", cfg.default_deadline_ms));
  cfg.write_deadline = std::chrono::milliseconds(args.get_size(
      "write-deadline-ms",
      static_cast<std::size_t>(cfg.write_deadline.count())));
  cfg.min_progress_bps = args.get_size("min-progress-bps", cfg.min_progress_bps);
  cfg.idle_timeout = std::chrono::milliseconds(args.get_size(
      "idle-timeout-ms", static_cast<std::size_t>(cfg.idle_timeout.count())));
  const std::size_t duration_ms = args.get_size("duration-ms", 0);

  nc::serve::UnixListener listener(args.require("socket"));
  nc::serve::Server server(cfg);
  std::cout << "serving on " << listener.path()
            << (duration_ms > 0
                    ? " for " + std::to_string(duration_ms) + " ms"
                    : std::string(" until killed"))
            << '\n';
  const auto start = std::chrono::steady_clock::now();
  while (duration_ms == 0 ||
         std::chrono::steady_clock::now() - start <
             std::chrono::milliseconds(duration_ms)) {
    auto conn = listener.accept(std::chrono::milliseconds(200));
    if (conn) server.serve(std::move(conn));
  }
  server.stop();
  const nc::serve::CacheStats cache = server.cache_stats();
  if (server.has_sharded_store()) {
    const nc::store::ShardedStats ss = server.sharded_store_stats();
    std::cout << nc::serve::metrics_json(server.metrics_snapshot(), &cache,
                                         nullptr, &ss)
                     .dump(2)
              << '\n';
  } else if (server.has_store()) {
    const nc::store::StoreStats ss = server.store_stats();
    std::cout << nc::serve::metrics_json(server.metrics_snapshot(), &cache,
                                         &ss)
                     .dump(2)
              << '\n';
  } else {
    std::cout << nc::serve::metrics_json(server.metrics_snapshot(), &cache)
                     .dump(2)
              << '\n';
  }
  return 0;
}

nc::report::Json store_stats_json(const nc::store::StoreStats& s) {
  nc::report::Json j = nc::report::Json::object();
  j["records"] = s.records;
  j["segments"] = s.segments;
  j["live_bytes"] = s.live_bytes;
  j["dead_bytes"] = s.dead_bytes;
  j["garbage_ratio"] = s.garbage_ratio();
  j["manifest_bytes"] = s.manifest_bytes;
  j["tombstones"] = s.tombstones;
  j["recovered"] = s.recovered;
  j["replayed_records"] = s.replayed_records;
  j["torn_bytes_discarded"] = s.torn_bytes_discarded;
  j["dropped_at_open"] = s.dropped_at_open;
  j["compactions"] = s.compactions;
  j["records_moved"] = s.records_moved;
  j["bytes_reclaimed"] = s.bytes_reclaimed;
  return j;
}

nc::report::Json fsck_report_json(const nc::store::FsckReport& r) {
  nc::report::Json j = nc::report::Json::object();
  j["clean"] = r.clean;
  j["repaired"] = r.repaired;
  j["segments_scanned"] = r.segments_scanned;
  j["records_scanned"] = r.records_scanned;
  j["corrupt_records"] = r.corrupt_records;
  j["torn_segment_bytes"] = r.torn_segment_bytes;
  j["dangling_entries"] = r.dangling_entries;
  j["orphan_records"] = r.orphan_records;
  j["orphans_recovered"] = r.orphans_recovered;
  j["duplicate_records"] = r.duplicate_records;
  j["stray_segments"] = r.stray_segments;
  j["stray_segments_removed"] = r.stray_segments_removed;
  return j;
}

double parse_min_garbage(const Args& args) {
  return args.has("min-garbage")
             ? parse_ratio("min-garbage", args.require("min-garbage"))
             : 0.0;
}

nc::report::Json scrub_report_json(const nc::store::ScrubReport& r) {
  nc::report::Json j = nc::report::Json::object();
  j["full_redundancy"] = r.full_redundancy;
  j["artifacts"] = r.artifacts;
  j["strips_checked"] = r.strips_checked;
  j["heads_missing"] = r.heads_missing;
  j["heads_repaired"] = r.heads_repaired;
  j["strips_missing"] = r.strips_missing;
  j["strips_repaired"] = r.strips_repaired;
  j["copies_missing"] = r.copies_missing;
  j["copies_repaired"] = r.copies_repaired;
  j["unrecoverable"] = r.unrecoverable;
  j["orphan_strips"] = r.orphan_strips;
  j["shards_down"] = r.shards_down;
  return j;
}

int cmd_store_sharded(const std::string& action, const Args& args,
                      const std::string& dir) {
  nc::store::ShardedStoreConfig cfg;
  cfg.dir = dir;
  cfg.shards = 0;  // adopt the geometry recorded in the marker
  cfg.auto_compact = false;  // the CLI acts only when told to
  nc::store::ShardedStore store(cfg);

  if (action == "stats") {
    nc::report::Json j = nc::report::Json::object();
    j["shards"] = std::uint64_t{store.shards()};
    j["parity"] = std::uint64_t{store.parity()};
    nc::report::Json per_shard = nc::report::Json::object();
    for (unsigned s = 0; s < store.shards(); ++s) {
      try {
        per_shard[nc::store::ShardedStore::shard_dir_name(s)] =
            store_stats_json(store.shard_stats(s));
      } catch (const std::exception& e) {
        nc::report::Json down = nc::report::Json::object();
        down["unreachable"] = std::string(e.what());
        per_shard[nc::store::ShardedStore::shard_dir_name(s)] =
            std::move(down);
      }
    }
    j["per_shard"] = std::move(per_shard);
    std::cout << j.dump(2) << '\n';
    return 0;
  }
  if (action == "fsck") {
    const bool repair = !args.has("scan-only");
    nc::report::Json per_shard = nc::report::Json::object();
    bool all_clean = true;
    for (unsigned s = 0; s < store.shards(); ++s) {
      const std::string name = nc::store::ShardedStore::shard_dir_name(s);
      try {
        nc::store::FsckReport report = store.fsck_shard(s, repair);
        if (repair && report.repaired) {
          const nc::store::FsckReport after = store.fsck_shard(s, false);
          nc::report::Json j = nc::report::Json::object();
          j["repair_pass"] = fsck_report_json(report);
          j["verify_pass"] = fsck_report_json(after);
          per_shard[name] = std::move(j);
          all_clean = all_clean && after.clean;
        } else {
          per_shard[name] = fsck_report_json(report);
          all_clean = all_clean && report.clean;
        }
      } catch (const std::exception& e) {
        nc::report::Json down = nc::report::Json::object();
        down["unreachable"] = std::string(e.what());
        per_shard[name] = std::move(down);
        all_clean = false;
      }
    }
    nc::report::Json j = nc::report::Json::object();
    j["clean"] = all_clean;
    j["per_shard"] = std::move(per_shard);
    std::cout << j.dump(2) << '\n';
    return all_clean ? 0 : 1;
  }
  if (action == "compact") {
    const std::uint64_t reclaimed = store.compact(parse_min_garbage(args));
    nc::report::Json j = nc::report::Json::object();
    j["bytes_reclaimed"] = reclaimed;
    std::cout << j.dump(2) << '\n';
    return 0;
  }
  if (action == "scrub") {
    const nc::store::ScrubReport report = store.scrub();
    std::cout << scrub_report_json(report).dump(2) << '\n';
    return report.full_redundancy && report.unrecoverable == 0 ? 0 : 1;
  }
  usage("unknown store action '" + action +
        "' (fsck|stats|compact|scrub)");
}

int cmd_store(const std::string& action, const Args& args) {
  // Opening a store creates its directory and manifest, so everything that
  // can be refused is refused first: a misspelled action, a missing DIR.
  // An existing DIR without a manifest still opens -- fsck rebuilds a lost
  // manifest from the orphan segments.
  if (action != "fsck" && action != "stats" && action != "compact" &&
      action != "scrub")
    usage("unknown store action '" + action + "' (fsck|stats|compact|scrub)");
  const std::string dir = args.require("dir");
  if (!std::filesystem::is_directory(dir))
    throw std::runtime_error("no store directory " + dir);
  if (nc::store::ShardedStore::is_sharded_dir(dir))
    return cmd_store_sharded(action, args, dir);
  if (action == "scrub")
    usage("scrub needs a sharded store (no sharded.nc9x marker in " + dir +
          ")");
  nc::store::StoreConfig cfg;
  cfg.dir = dir;
  cfg.auto_compact = false;  // the CLI acts only when told to
  nc::store::Store store(cfg);

  if (action == "stats") {
    std::cout << store_stats_json(store.stats()).dump(2) << '\n';
    return 0;
  }
  if (action == "fsck") {
    const bool repair = !args.has("scan-only");
    nc::store::FsckReport report = store.fsck(repair);
    if (repair && report.repaired) {
      // Rescan so the verdict (and the exit code) reflects the repaired
      // state, not the damage that was just fixed.
      const nc::store::FsckReport after = store.fsck(false);
      nc::report::Json j = nc::report::Json::object();
      j["repair_pass"] = fsck_report_json(report);
      j["verify_pass"] = fsck_report_json(after);
      std::cout << j.dump(2) << '\n';
      return after.clean ? 0 : 1;
    }
    std::cout << fsck_report_json(report).dump(2) << '\n';
    return report.clean ? 0 : 1;
  }
  if (action == "compact") {
    const std::uint64_t reclaimed = store.compact(parse_min_garbage(args));
    nc::report::Json j = nc::report::Json::object();
    j["bytes_reclaimed"] = reclaimed;
    j["stats"] = store_stats_json(store.stats());
    std::cout << j.dump(2) << '\n';
    return 0;
  }
  usage("unknown store action '" + action + "' (fsck|stats|compact|scrub)");
}

int cmd_loadgen(const Args& args) {
  const std::string socket = args.require("socket");
  nc::serve::LoadgenConfig cfg;
  cfg.clients = args.get_count("clients", cfg.clients);
  cfg.requests_per_client =
      args.get_count("requests", cfg.requests_per_client);
  cfg.pipeline = args.get_count("pipeline", cfg.pipeline);
  cfg.distinct = args.get_count("distinct", cfg.distinct);
  cfg.patterns = args.get_count("patterns", cfg.patterns);
  cfg.width = args.get_count("width", cfg.width);
  cfg.seed = args.get_size("seed", cfg.seed);
  cfg.fault_period = args.get_size("fault-period", cfg.fault_period);
  if (args.has("inject"))
    cfg.channel = nc::decomp::ChannelConfig::parse(args.require("inject"));
  cfg.deadline = std::chrono::milliseconds(
      args.get_count("deadline-ms", 30000));
  cfg.request_deadline_ms = static_cast<std::uint32_t>(
      args.get_size("request-deadline-ms", cfg.request_deadline_ms));
  cfg.hedge_after = std::chrono::milliseconds(args.get_size(
      "hedge-after-ms", static_cast<std::size_t>(cfg.hedge_after.count())));
  cfg.retry_budget = args.get_size("retry-budget", cfg.retry_budget);
  cfg.signature_checks = args.get_size("signatures", cfg.signature_checks);
  cfg.signature_x_density =
      args.get_ratio("signature-x", cfg.signature_x_density);

  std::function<std::unique_ptr<nc::serve::ByteStream>()> connect =
      [&socket] { return nc::serve::connect_unix(socket); };
  if (args.has("chaos")) {
    const std::vector<nc::serve::ChaosRule> rules =
        nc::serve::parse_chaos_spec(args.require("chaos"));
    // Each connection (including reconnects) gets its own seed so chaos
    // schedules differ per connection but the run stays reproducible.
    auto chaos_seq = std::make_shared<std::atomic<std::uint64_t>>(0);
    const std::uint64_t base_seed = cfg.seed;
    connect = [&socket, rules, chaos_seq, base_seed] {
      return std::make_unique<nc::serve::ChaosStream>(
          nc::serve::connect_unix(socket), rules,
          base_seed * 48271 + chaos_seq->fetch_add(1));
    };
  }

  const nc::serve::LoadgenStats stats = nc::serve::run_loadgen(cfg, connect);

  std::cout << stats.requests << " requests resolved in " << stats.seconds
            << " s (" << stats.throughput_rps() << " req/s)\n"
            << "rejections " << stats.typed_rejections << " ("
            << stats.deadline_rejections << " deadline), retransmits "
            << stats.retransmits << ", corrupted sends "
            << stats.corrupted_sends << ", frame errors "
            << stats.frame_errors << '\n'
            << "hedges " << stats.hedges << " (" << stats.hedge_wins
            << " won), reconnects " << stats.reconnects << '\n'
            << "byte mismatches " << stats.byte_mismatches << ", duplicates "
            << stats.duplicates << ", unresolved " << stats.unresolved
            << '\n';
  if (cfg.signature_checks > 0)
    std::cout << "signature unknowns " << stats.signature_unknowns << '\n';
  if (args.has("json")) {
    nc::report::Json doc = nc::report::Json::object();
    doc["requests"] = stats.requests;
    doc["throughput_rps"] = stats.throughput_rps();
    doc["typed_rejections"] = stats.typed_rejections;
    doc["retransmits"] = stats.retransmits;
    doc["corrupted_sends"] = stats.corrupted_sends;
    doc["frame_errors"] = stats.frame_errors;
    doc["byte_mismatches"] = stats.byte_mismatches;
    doc["duplicates"] = stats.duplicates;
    doc["unresolved"] = stats.unresolved;
    doc["hedges"] = stats.hedges;
    doc["hedge_wins"] = stats.hedge_wins;
    doc["reconnects"] = stats.reconnects;
    doc["deadline_rejections"] = stats.deadline_rejections;
    doc["signature_unknowns"] = stats.signature_unknowns;
    doc["clean"] = stats.clean();
    nc::report::write_json_file(args.require("json"), doc);
  }
  const bool all_resolved =
      stats.requests == cfg.clients * cfg.requests_per_client;
  std::cout << "clean: " << (stats.clean() && all_resolved ? "yes" : "NO")
            << '\n';
  return stats.clean() && all_resolved ? 0 : 1;
}

/// A subcommand. Its synopsis names every flag it reads: Args accepts those
/// and no other, and the help prints the synopsis, so the two cannot drift.
/// A '\n' in the synopsis or the notes (prose printed under it) breaks the
/// help line. `store` takes a positional action and has no `run`.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::string_view synopsis;
  std::string_view notes = {};
};

const std::vector<Command> kCommands = {
    {"gen", cmd_gen, "--profile <s5378|...|CKT1|CKT2> --out FILE [--seed N]"},
    {"circuit", cmd_circuit,
     "--out FILE [--gates N] [--inputs N] [--flops N] [--outputs N]\n"
     "[--seed N]"},
    {"atpg", cmd_atpg, "--bench FILE --out FILE [--no-compact]"},
    {"compress", cmd_compress,
     "--in FILE --out FILE [--k N] [--freq-directed]\n"
     "[--table tuned.json] [--shards N] [--jobs N]",
     "(--table encodes with a tuned genome from ninec tune --out\n"
     "and excludes --k/--freq-directed/--shards/--jobs; --shards\n"
     "writes a sharded container, encoded in parallel on --jobs\n"
     "workers, auto = one per hardware thread)"},
    {"decompress", cmd_decompress, "--in FILE --out FILE [--jobs N]"},
    {"stats", cmd_stats, "--in FILE [--k-min N] [--k-max N]"},
    {"tune", cmd_tune,
     "--in FILE [--seed N] [--generations N] [--population N]\n"
     "[--weights CR:TAT:GATES] [--p N] [--jobs N]\n"
     "[--k-min N] [--k-max N] [--baseline-k N] [--no-split]\n"
     "[--no-fill] [--out tuned.json] [--json FILE]\n"
     "[--socket PATH [--repeat N] [--deadline-ms N]]",
     "(evolutionary search over coding parameters -- codeword\n"
     "lengths, K, half split, X-fill -- scored by real encoder\n"
     "CR, TAT cycle accounting and synthesized decoder gates;\n"
     "seeded and jobs-invariant: the same --seed is\n"
     "bit-reproducible. --weights prices the axes (default\n"
     "1:0.25:0.05), --baseline-k is the K of the standard and\n"
     "frequency-directed seed genomes (default 8), --out writes\n"
     "the winning genome for compress --table, --json the\n"
     "per-generation trace. With --socket the search runs on a\n"
     "ninec serve instance as a content-addressed artifact:\n"
     "--repeat resends the identical request to demonstrate\n"
     "cache/store hits, --deadline-ms bounds the whole call\n"
     "(default 300000))"},
    {"rtl", cmd_rtl,
     "--out FILE [--k N] [--freq-directed --in FILE]\n"
     "[--testbench FILE] [--module NAME]"},
    {"roundtrip", cmd_roundtrip,
     "--bench FILE [--tests FILE] [--no-compact] [--k N] [--seed N]\n"
     "[--xcode identity|steiner|greedy] [--compact-outputs M]\n"
     "[--x-density R] [--jobs N] [--json FILE]",
     "(closed tester loop: TD -> 9C encode -> decode -> scan\n"
     "sim -> X-code response compaction -> per-fault verdicts;\n"
     "without --tests the cubes come from ATPG, uncompacted with\n"
     "--no-compact. --xcode picks the parity matrix (default\n"
     "steiner, t = 2), --compact-outputs fixes m (default:\n"
     "smallest feasible), --x-density R in [0,1] overlays\n"
     "environment unknowns on the responses. Exit 0 iff\n"
     "compaction loses no coverage and the code's tolerance\n"
     "self-check holds)"},
    {"session", cmd_session,
     "--bench FILE --tests FILE [--k N] [--p N]\n"
     "[--jobs N] [--shards N]\n"
     "[--inject SPEC] [--retry N] [--abort-after N]",
     "(pipelined decode/compare)\n"
     "SPEC: flip=R,burst=R[:LEN],trunc=R,stuck=R,seed=N\n"
     "(faulty ATE channel; detected corruptions re-stream the\n"
     "pattern up to --retry times, default 3; --abort-after N\n"
     "ends the session once N patterns exhaust their retries)"},
    {"fleet", cmd_fleet,
     "--bench FILE --tests FILE --devices N [--inject SPECS]\n"
     "[--checkpoint FILE] [--resume] [--stop-after N]\n"
     "[--watchdog-steps N] [--breaker-threshold N] [--breaker-probe N]\n"
     "[--batch N] [--jobs N] [--retry N] [--abort-after N] [--seed N]\n"
     "[--k N] [--p N]",
     "(N devices through per-device faulty channels with\n"
     "retry, watchdog, circuit breaker and an NC9J checkpoint\n"
     "journal; SPECS may be ';'-separated, assigned to\n"
     "devices round-robin; --stop-after N checkpoints and stops\n"
     "after N batches, as a kill would; --abort-after as for\n"
     "session)"},
    {"serve", cmd_serve,
     "--socket PATH [--workers N] [--queue N] [--inflight N]\n"
     "[--cache-bytes N] [--duration-ms N] [--store DIR]\n"
     "[--store-segment-bytes N] [--store-shards N] [--store-parity N]\n"
     "[--store-stripe-bytes N] [--store-scrub-ms N]\n"
     "[--request-deadline-ms N] [--write-deadline-ms N]\n"
     "[--min-progress-bps N] [--idle-timeout-ms N]",
     "(frame-protocol compression service on a Unix socket;\n"
     "runs until --duration-ms elapses, default forever;\n"
     "--request-deadline-ms is the default budget for\n"
     "requests that carry none (expired work is shed with a\n"
     "typed reply); --write-deadline-ms bounds each reply\n"
     "write, --min-progress-bps/--idle-timeout-ms disconnect\n"
     "dribbling/idle peers -- the slow-client defense;\n"
     "--store adds a persistent artifact tier: cache misses\n"
     "check DIR before computing, results are written through,\n"
     "and a restart on the same DIR answers warm;\n"
     "--store-segment-bytes sizes its log segments;\n"
     "--store-shards >= 2 makes DIR an erasure-coded multi-\n"
     "shard tier that survives --store-parity shard losses,\n"
     "striping payloads >= --store-stripe-bytes and scrubbing\n"
     "every --store-scrub-ms when > 0)"},
    {"store", nullptr,
     "<fsck|stats|compact|scrub> --dir DIR [--scan-only]\n"
     "[--min-garbage R]",
     "DIR must exist. A DIR holding a sharded.nc9x marker is\n"
     "opened as the erasure-coded multi-shard tier (fsck/stats/\n"
     "compact iterate its shards); otherwise as a single store.\n"
     "fsck: full segment scan cross-checked against the\n"
     "manifest; repairs by default (recover orphans, drop\n"
     "dangling entries, remove stray segments) unless\n"
     "--scan-only; exit 0 iff the store is clean\n"
     "stats: print store statistics as JSON\n"
     "compact: rewrite live records out of garbage segments\n"
     "[--min-garbage R, default 0 = any garbage]\n"
     "scrub (sharded only): verify every stripe/replica,\n"
     "rewrite missing strips onto healthy shards; exit 0 iff\n"
     "full redundancy holds afterwards"},
    {"loadgen", cmd_loadgen,
     "--socket PATH [--clients N] [--requests N] [--pipeline N]\n"
     "[--distinct N] [--patterns N] [--width N] [--seed N]\n"
     "[--fault-period N] [--inject SPEC] [--deadline-ms N]\n"
     "[--request-deadline-ms N] [--hedge-after-ms N]\n"
     "[--retry-budget N] [--chaos RULES] [--json FILE]\n"
     "[--signatures N] [--signature-x R]",
     "(N concurrent clients replay a deterministic workload;\n"
     "every reply is checked byte-identical to a serial\n"
     "reference; exit 0 only if nothing was lost, duplicated\n"
     "or corrupted. --request-deadline-ms stamps an\n"
     "end-to-end deadline into each request; --hedge-after-ms\n"
     "races a duplicate transmit against a quiet reply;\n"
     "--retry-budget caps total retransmits per client;\n"
     "--chaos wraps each connection in a deterministic fault\n"
     "schedule, e.g. 'write:dribble@4x64,read:stall=40@9,\n"
     "any:reset@199' -- op:action[=param][@skip[xcount]],\n"
     "op read|write|any, action latency|stall|dribble|\n"
     "partial|reset, count '*' = forever;\n"
     "--signatures N adds a serial publish of a scan circuit's\n"
     "expected X-compacted response stream plus N signature-\n"
     "check requests (fault-free and faulty devices) whose\n"
     "replies must match the local analyzer byte for byte;\n"
     "--signature-x sets the response X-overlay density)"},
};

/// Writes `text` to `out` with every line after the first indented to the
/// synopsis column.
void print_indented(std::ostream& out, std::string_view text) {
  for (const char c : text) {
    out << c;
    if (c == '\n') out << "             ";
  }
  out << '\n';
}

/// Prints the help and exits: to stdout with code 0 when asked for, to
/// stderr after the error with code 2 on a usage error.
[[noreturn]] void usage(const std::string& error) {
  std::ostream& out = error.empty() ? std::cout : std::cerr;
  if (!error.empty()) out << "error: " << error << "\n\n";
  out << "usage: ninec <command> [options]\n";
  for (const Command& c : kCommands) {
    out << "  " << c.name
        << std::string(c.name.size() < 11 ? 11 - c.name.size() : 1, ' ');
    print_indented(out, c.synopsis);
    if (!c.notes.empty()) {
      out << "             ";
      print_indented(out, c.notes);
    }
  }
  out <<
      "count options (--devices, --shards, --jobs, --batch, --k, --p, ...)\n"
      "take a positive integer; --shards/--jobs also accept 'auto' (one\n"
      "shard/worker per hardware thread). Malformed values, unknown flags\n"
      "and compress --k above 255 exit with code 2.\n";
  std::exit(error.empty() ? 0 : 2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help") usage();
  const auto cmd =
      std::find_if(kCommands.begin(), kCommands.end(),
                   [&](const Command& c) { return c.name == command; });
  if (cmd == kCommands.end()) usage("unknown command " + command);
  if (cmd->run == nullptr) {
    // `store` takes a positional action before the flags.
    if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0)
      usage("store needs an action: ninec store <fsck|stats|compact|scrub>");
    const std::string action = argv[2];
    const Args store_args(argc, argv, 3, cmd->synopsis);
    try {
      return cmd_store(action, store_args);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
  }
  const Args args(argc, argv, 2, cmd->synopsis);
  try {
    return cmd->run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
