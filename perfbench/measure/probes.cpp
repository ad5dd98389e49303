#include "probes.h"

#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>

#include "bits/serialize.h"
#include "codec/nine_coded.h"
#include "core/cancel.h"
#include "core/crc.h"
#include "serve/cache.h"
#include "store/store.h"
#include "synth/code_synth.h"
#include "tune/fitness.h"
#include "tune/genome.h"

namespace perfbench {

namespace {

using nc::report::Json;

enum class Unit { kMs, kUs };

/// Samples per metric; each timed call is also a span.
class Recorder {
 public:
  Recorder(Tracer& tracer, bool smoke) : tracer_(tracer), smoke_(smoke) {}

  /// Times `fn` as span `name` and files the sample as `<name>_<unit>`.
  template <class F>
  void time(const char* name, Unit unit, F&& fn) {
    const Span span(&tracer_, name);
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t dt = now_ns() - t0;
    samples_[std::string(name) + (unit == Unit::kMs ? "_ms" : "_us")]
        .push_back(unit == Unit::kMs ? ns_to_ms(dt) : ns_to_us(dt));
  }

  void value(const std::string& metric, double v) {
    samples_[metric].push_back(v);
  }

  /// Repeats `body(i)` at least `min_n` times and then while `seconds`
  /// last, up to `max_n`; once in smoke mode.
  template <class F>
  void repeat(std::size_t min_n, std::size_t max_n, double seconds, F&& body) {
    const std::int64_t stop =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t i = 0;
         smoke_ ? i < 1 : (i < min_n || (now_ns() < stop && i < max_n)); ++i)
      body(i);
  }

  Tracer& tracer() { return tracer_; }

  Json to_json() const {
    Json doc = Json::object();
    for (const auto& [name, v] : samples_) {
      Json a = Json::array();
      for (const double x : v) a.push_back(x);
      doc[name] = std::move(a);
    }
    return doc;
  }

 private:
  Tracer& tracer_;
  const bool smoke_;
  std::map<std::string, std::vector<double>> samples_;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("probe produced a wrong result: " + what);
}

/// In-process replica of `ninec compress` and `ninec decompress` on the
/// workload's test set, one span per stage.
void probe_cli_stages(const ProbeInputs& in, Recorder& rec) {
  using nc::bits::TestSet;
  using nc::bits::TritVector;
  const TestSet& td = *in.big_td;
  const std::string td_path = in.dir + "/probe-td.nct";
  const std::string te_path = in.dir + "/probe-te.nct";
  const std::string back_path = in.dir + "/probe-back.nct";
  nc::bits::save_test_set_file(td_path, td);
  const nc::codec::NineCoded coder(in.big_k);
  rec.repeat(3, 20, 2.0, [&](std::size_t i) {
    TritVector stream, te;
    {
      const Span parent(&rec.tracer(), "inproc.compress", i);
      TestSet loaded;
      rec.time("bits.load_test_set", Unit::kMs,
               [&] { loaded = nc::bits::load_test_set_file(td_path); });
      rec.time("bits.flatten", Unit::kMs, [&] { stream = loaded.flatten(); });
      rec.time("codec.encode", Unit::kMs, [&] { coder.analyze(stream, &te); });
      rec.time("bits.save_trits", Unit::kMs, [&] {
        std::ofstream out(te_path, std::ios::binary);
        nc::bits::save_trits(out, te);
      });
    }
    const Span parent(&rec.tracer(), "inproc.decompress", i);
    TritVector te_loaded;
    rec.time("bits.load_trits", Unit::kMs, [&] {
      std::ifstream f(te_path, std::ios::binary);
      te_loaded = nc::bits::load_trits(f);
    });
    nc::codec::DecodeOutcome out;
    rec.time("codec.decode", Unit::kMs,
             [&] { out = coder.decode_checked(te_loaded, stream.size()); });
    TestSet back;
    rec.time("bits.unflatten", Unit::kMs, [&] {
      back = TestSet::unflatten(out.data, td.pattern_count(),
                                td.pattern_length());
    });
    rec.time("bits.save_test_set", Unit::kMs,
             [&] { nc::bits::save_test_set_file(back_path, back); });
    check(td.flatten().covered_by(back.flatten()),
          "decode lost specified trits");
  });
}

/// The server's per-request calls on the workload's requests, in the order
/// a miss runs them: payload parse, content key, codec, reply build, frame
/// and CRC. Codec samples time one call; every other sample here covers
/// one encode plus one decode request.
void probe_request_path(const ProbeInputs& in, Recorder& rec) {
  using nc::serve::FrameType;
  const std::vector<Item>& items = *in.items;
  const nc::codec::NineCoded coder = in.spec.make_coder();
  auto [client_end, server_end] = nc::serve::make_pipe();
  nc::serve::FrameReader reader(*server_end);
  const std::size_t pairs = items.size() / 2;
  rec.repeat(8, 400, 1.5, [&](std::size_t i) {
    const Item& enc = items[(2 * i) % (2 * pairs)];
    const Item& dec = items[(2 * i + 1) % (2 * pairs)];
    check(enc.type == FrameType::kEncodeRequest &&
              dec.type == FrameType::kDecodeRequest,
          "items must alternate encode and decode");
    const Span parent(&rec.tracer(), "inproc.request_pair", i);
    nc::serve::EncodeRequest er;
    nc::serve::DecodeRequest dr;
    rec.time("serve.payload_parse", Unit::kUs, [&] {
      er = nc::serve::parse_encode_request(enc.payload);
      dr = nc::serve::parse_decode_request(dec.payload);
    });
    rec.time("core.fnv128", Unit::kUs, [&] {
      nc::serve::cache_key(FrameType::kEncodeRequest, er.spec,
                           enc.payload.data(), enc.payload.size());
      nc::serve::cache_key(FrameType::kDecodeRequest, dr.spec,
                           dec.payload.data(), dec.payload.size());
    });
    nc::bits::TritVector te;
    rec.time("codec.encode", Unit::kUs,
             [&] { te = coder.encode(er.tests.flatten()); });
    const std::size_t original = dr.patterns * dr.width;
    nc::codec::DecodeOutcome out;
    rec.time("codec.decode", Unit::kUs, [&] {
      nc::core::Watchdog watchdog(64 + 8 * (original + dr.te.size()));
      out = coder.decode_checked(dr.te, original, &watchdog);
    });
    const nc::bits::TestSet back =
        nc::bits::TestSet::unflatten(out.data, dr.patterns, dr.width);
    std::vector<std::uint8_t> enc_reply, dec_reply;
    rec.time("serve.payload_build", Unit::kUs, [&] {
      enc_reply = nc::serve::trits_payload(te);
      dec_reply = nc::serve::test_set_payload(back);
    });
    check(enc_reply == enc.expected && dec_reply == dec.expected,
          "reply payloads differ from the build_workloads reference");
    nc::serve::Frame f1{enc.expected_type, 2 * i + 1, 0, enc_reply};
    nc::serve::Frame f2{dec.expected_type, 2 * i + 2, 0, dec_reply};
    rec.time("serve.frame_roundtrip", Unit::kUs, [&] {
      for (const nc::serve::Frame* f : {&f1, &f2}) {
        const std::vector<std::uint8_t> bytes = nc::serve::encode_frame(*f);
        client_end->write_all(bytes.data(), bytes.size());
        const auto r = reader.read(std::chrono::milliseconds(1000));
        check(r.status == nc::serve::FrameReader::Status::kFrame &&
                  r.frame.payload == f->payload,
              "frame did not survive the pipe");
      }
    });
    const std::vector<std::uint8_t> b1 = nc::serve::encode_frame(f1);
    const std::vector<std::uint8_t> b2 = nc::serve::encode_frame(f2);
    rec.time("core.crc32_frame", Unit::kUs, [&] {
      nc::core::crc32(b1.data(), b1.size());
      nc::core::crc32(b2.data(), b2.size());
    });
    // A store record's CRC covers the 16 key bytes plus the payload.
    std::vector<std::uint8_t> r1(16, 0), r2(16, 0);
    r1.insert(r1.end(), enc_reply.begin(), enc_reply.end());
    r2.insert(r2.end(), dec_reply.begin(), dec_reply.end());
    rec.time("core.crc32_record", Unit::kUs, [&] {
      nc::core::crc32(r1.data(), r1.size());
      nc::core::crc32(r2.data(), r2.size());
    });
  });
}

std::vector<nc::serve::CacheKey> keys_of(const ProbeInputs& in) {
  std::vector<nc::serve::CacheKey> keys;
  for (const Item& it : *in.items)
    keys.push_back(nc::serve::cache_key(it.type, in.spec, it.payload.data(),
                                        it.payload.size()));
  return keys;
}

/// L1 artifact cache at the workload's capacity: every reply put once,
/// then Zipf-skewed gets.
void probe_cache(const ProbeInputs& in, Recorder& rec) {
  const std::vector<Item>& items = *in.items;
  const std::vector<nc::serve::CacheKey> keys = keys_of(in);
  nc::serve::ArtifactCache cache(in.l1_bytes);
  for (std::size_t i = 0; i < items.size(); ++i)
    rec.time("cache.put", Unit::kUs,
             [&] { cache.put(keys[i], items[i].expected); });
  const Zipf zipf(items.size(), in.zipf_s);
  std::uint64_t state = in.seed;
  rec.repeat(200, 20000, 0.5, [&](std::size_t) {
    const std::size_t i = zipf(state);
    std::optional<std::vector<std::uint8_t>> hit;
    rec.time("cache.get", Unit::kUs, [&] { hit = cache.get(keys[i]); });
    check(!hit || *hit == items[i].expected, "cache returned other bytes");
  });
}

/// L2 store: a fresh store takes every reply (put cost and write
/// amplification), then Zipf-skewed gets; open/replay is timed on the
/// workload's populated store when there is one.
void probe_store(const ProbeInputs& in, Recorder& rec) {
  const std::vector<Item>& items = *in.items;
  const std::vector<nc::serve::CacheKey> keys = keys_of(in);
  nc::store::StoreConfig cfg;
  cfg.dir = in.dir + "/probe-store";
  remove_tree(cfg.dir);
  std::uint64_t payload_bytes = 0;
  {
    nc::store::Store store(cfg);
    for (std::size_t i = 0; i < items.size(); ++i) {
      const nc::store::Key k{keys[i].lo, keys[i].hi};
      rec.time("store.put", Unit::kUs,
               [&] { store.put(k, items[i].expected); });
      payload_bytes += items[i].expected.size();
    }
  }
  rec.value("store.write_amp", static_cast<double>(dir_bytes(cfg.dir)) /
                                   static_cast<double>(payload_bytes));
  {
    nc::store::Store store(cfg);
    const Zipf zipf(items.size(), in.zipf_s);
    std::uint64_t state = in.seed + 1;
    rec.repeat(200, 20000, 0.5, [&](std::size_t) {
      const std::size_t i = zipf(state);
      const nc::store::Key k{keys[i].lo, keys[i].hi};
      nc::store::GetResult r;
      rec.time("store.get", Unit::kUs, [&] { r = store.get(k); });
      check(r.status == nc::store::GetStatus::kHit &&
                r.payload == items[i].expected,
            "store get missed or returned other bytes");
    });
  }
  nc::store::StoreConfig open_cfg;
  open_cfg.dir = in.populated_store.empty() ? cfg.dir : in.populated_store;
  open_cfg.auto_compact = false;
  rec.repeat(3, 10, 0.5, [&](std::size_t) {
    std::optional<nc::store::Store> store;
    rec.time("store.open", Unit::kMs, [&] { store.emplace(open_cfg); });
  });
}

/// The tuner's inner loop: warm-memo fitness evaluations, one coder built
/// and run per candidate, and cold FSM synthesis of its codeword table.
void probe_tune(const ProbeInputs& in, Recorder& rec) {
  using nc::tune::TuneGenome;
  std::vector<TuneGenome> genomes = {TuneGenome::standard(8),
                                     TuneGenome::standard(16),
                                     TuneGenome::standard(4)};
  TuneGenome reassigned = TuneGenome::standard(8);
  reassigned.lengths = {1, 2, 5, 5, 4, 5, 5, 5, 5};
  genomes.push_back(reassigned);
  TuneGenome filled = TuneGenome::standard(8);
  filled.fill = nc::tune::FillPolicy::kZero;
  genomes.push_back(filled);

  const nc::tune::FitnessEvaluator evaluator(*in.tune_td, {});
  for (const TuneGenome& g : genomes)
    check(evaluator.evaluate(g).valid, "baseline genome scored invalid");
  rec.repeat(20, 2000, 1.0, [&](std::size_t i) {
    rec.time("tune.evaluate", Unit::kUs,
             [&] { evaluator.evaluate(genomes[i % genomes.size()]); });
  });
  const nc::bits::TritVector& stream = in.tune_td->flatten();
  rec.repeat(20, 2000, 0.5, [&](std::size_t i) {
    const TuneGenome& g = genomes[i % 4];  // the unfilled ones
    rec.time("codec.encode_small", Unit::kUs,
             [&] { g.make_coder().analyze(stream); });
  });
  rec.repeat(3, 50, 1.0, [&](std::size_t i) {
    const TuneGenome& g = genomes[i % genomes.size()];
    rec.time("synth.fsm", Unit::kMs, [&] {
      nc::synth::synthesize_code_fsm(
          nc::synth::leaves_for_table(
              nc::codec::CodewordTable::from_lengths(g.lengths)),
          3);
    });
  });
}

}  // namespace

Json run_probes(const ProbeInputs& in, Tracer& tracer) {
  if (in.big_td == nullptr || in.items == nullptr || in.items->size() < 2 ||
      in.tune_td == nullptr)
    throw std::invalid_argument("run_probes: missing inputs");
  Recorder rec(tracer, in.smoke);
  probe_cli_stages(in, rec);
  probe_request_path(in, rec);
  probe_cache(in, rec);
  probe_store(in, rec);
  probe_tune(in, rec);
  return rec.to_json();
}

}  // namespace perfbench
