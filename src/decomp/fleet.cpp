#include "decomp/fleet.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "codec/decode_error.h"
#include "codec/nine_coded.h"
#include "core/crc.h"
#include "core/hash.h"
#include "core/parallel.h"
#include "core/thread_pool.h"
#include "decomp/response_compare.h"
#include "decomp/retry.h"
#include "decomp/single_scan.h"

namespace nc::decomp {

using bits::TestSet;
using bits::TritVector;

namespace {

constexpr unsigned char kJournalMagic[4] = {'N', 'C', '9', 'J'};
constexpr unsigned kJournalVersion = 2;
// magic + version + config hash
constexpr std::size_t kJournalHeaderSize = sizeof(kJournalMagic) + 1 + 8;

// ---------------------------------------------------------------- hashing

/// The per-(device, batch) channel seeds derive from the fleet seed through
/// core::mix64, so adjacent batches never share a fault stream.
using core::mix64;

/// Incremental FNV-1a over 64-bit words; serves both the journal's config
/// hash and fleet_fingerprint().
class Fnv {
 public:
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void b(bool v) noexcept { u64(v ? 1 : 0); }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t double_bits(double d) noexcept {
  std::uint64_t out;
  static_assert(sizeof(out) == sizeof(d));
  __builtin_memcpy(&out, &d, sizeof(out));
  return out;
}

/// CRC-32 over raw bytes (the shared core::crc32), guarding the journal the
/// same way the sharded container guards its payload.
std::uint32_t crc32_bytes(const unsigned char* data, std::size_t len) {
  return core::crc32(data, len);
}

std::uint32_t read_le32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

// ------------------------------------------------------- journal buffers

class ByteWriter {
 public:
  void u8(unsigned v) { out_.push_back(static_cast<unsigned char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8((v >> (8 * i)) & 0xFFu);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8((v >> (8 * i)) & 0xFFu);
  }
  void bools(const std::vector<bool>& bits) {
    u64(bits.size());
    unsigned char acc = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) acc |= static_cast<unsigned char>(1u << (i % 8));
      if (i % 8 == 7) {
        u8(acc);
        acc = 0;
      }
    }
    if (bits.size() % 8 != 0) u8(acc);
  }
  void raw(const std::vector<unsigned char>& bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }
  const std::vector<unsigned char>& bytes() const noexcept { return out_; }

 private:
  std::vector<unsigned char> out_;
};

class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  unsigned u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  std::vector<bool> bools() {
    const std::uint64_t n = u64();
    // Guard before allocating: a corrupt length must fail as "truncated",
    // not as a multi-gigabyte allocation.
    need((n + 7) / 8);
    std::vector<bool> bits(static_cast<std::size_t>(n));
    unsigned char acc = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (i % 8 == 0) acc = static_cast<unsigned char>(u8());
      bits[i] = (acc >> (i % 8)) & 1u;
    }
    return bits;
  }
  std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  void need(std::uint64_t n) const {
    if (n > size_ - pos_)
      throw std::runtime_error("fleet journal truncated");
  }
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------------- device state

struct DeviceState {
  explicit DeviceState(const ChannelConfig& channel_config)
      : channel(channel_config) {}

  ChannelModel channel;
  std::unique_ptr<ResponseComparator> compare;

  BreakerState breaker = BreakerState::kClosed;
  unsigned consecutive_failures = 0;
  std::uint64_t cooldown_batches = 0;

  SessionResult session;       // cumulative; session.channel filled lazily
  ChannelStats channel_base;   // stats restored from a journal segment
  std::size_t watchdog_trips = 0;
  std::size_t patterns_skipped = 0;
  std::size_t breaker_opens = 0;
  std::size_t probes = 0;
  std::size_t probe_successes = 0;

  ChannelStats total_channel_stats() const noexcept {
    ChannelStats t = channel_base;
    const ChannelStats& s = channel.stats();
    t.transmissions += s.transmissions;
    t.corrupted_transmissions += s.corrupted_transmissions;
    t.symbols_in += s.symbols_in;
    t.symbols_out += s.symbols_out;
    t.flipped_symbols += s.flipped_symbols;
    t.bursts += s.bursts;
    t.truncations += s.truncations;
    t.truncated_symbols += s.truncated_symbols;
    t.stuck_events += s.stuck_events;
    t.stuck_symbols += s.stuck_symbols;
    return t;
  }
};

void hash_channel_stats(Fnv& fnv, const ChannelStats& s) {
  fnv.u64(s.transmissions);
  fnv.u64(s.corrupted_transmissions);
  fnv.u64(s.symbols_in);
  fnv.u64(s.symbols_out);
  fnv.u64(s.flipped_symbols);
  fnv.u64(s.bursts);
  fnv.u64(s.truncations);
  fnv.u64(s.truncated_symbols);
  fnv.u64(s.stuck_events);
  fnv.u64(s.stuck_symbols);
}

void write_channel_stats(ByteWriter& w, const ChannelStats& s) {
  w.u64(s.transmissions);
  w.u64(s.corrupted_transmissions);
  w.u64(s.symbols_in);
  w.u64(s.symbols_out);
  w.u64(s.flipped_symbols);
  w.u64(s.bursts);
  w.u64(s.truncations);
  w.u64(s.truncated_symbols);
  w.u64(s.stuck_events);
  w.u64(s.stuck_symbols);
}

ChannelStats read_channel_stats(ByteReader& r) {
  ChannelStats s;
  s.transmissions = r.u64();
  s.corrupted_transmissions = r.u64();
  s.symbols_in = r.u64();
  s.symbols_out = r.u64();
  s.flipped_symbols = r.u64();
  s.bursts = r.u64();
  s.truncations = r.u64();
  s.truncated_symbols = r.u64();
  s.stuck_events = r.u64();
  s.stuck_symbols = r.u64();
  return s;
}

// --------------------------------------------------------------- runner

class FleetRunner {
 public:
  FleetRunner(const circuit::Netlist& netlist, const TestSet& cubes,
              const FleetConfig& config,
              const std::vector<DeviceProfile>& profiles)
      : netlist_(netlist),
        cubes_(cubes),
        config_(config),
        profiles_(profiles),
        coder_(config.block_size),
        decoder_(coder_, config.p) {
    if (profiles_.empty())
      throw std::invalid_argument("fleet needs at least one device");
    if (config_.batch_patterns == 0)
      throw std::invalid_argument("fleet batch size must be >= 1");
    config_hash_ = config_hash();
    states_.reserve(profiles_.size());
    for (const DeviceProfile& profile : profiles_) {
      states_.emplace_back(profile.channel);
      states_.back().compare = std::make_unique<ResponseComparator>(
          netlist_, cubes_.pattern_length());
    }
  }

  FleetResult run() {
    const std::size_t patterns = cubes_.pattern_count();
    const std::size_t total_batches =
        (patterns + config_.batch_patterns - 1) / config_.batch_patterns;

    // The ATE compresses each pattern exactly once; every device's stream
    // of pattern i is the same TE through a different faulty link.
    const std::size_t jobs = config_.jobs == 0
                                 ? core::ThreadPool::hardware_threads()
                                 : config_.jobs;
    core::ThreadPool pool(std::min(jobs, std::max<std::size_t>(
                                             1, profiles_.size())));
    te_ = core::parallel_map(pool, patterns, [this](std::size_t i) {
      return coder_.encode(cubes_.pattern(i));
    });

    FleetResult result;
    std::size_t next_batch = 0;
    if (config_.resume && !config_.checkpoint_path.empty() &&
        load_journal(next_batch, result.batches_run))
      result.resumed = true;

    std::size_t segment_batches = 0;
    bool stopped = false;
    for (std::size_t batch = next_batch; batch < total_batches; ++batch) {
      if (config_.cancel != nullptr && config_.cancel->cancelled()) {
        stopped = true;
        break;
      }
      core::parallel_for(pool, 0, states_.size(), [this, batch](
                                                      std::size_t dev) {
        run_device_batch(dev, batch);
      });
      ++result.batches_run;
      ++segment_batches;
      if (!config_.checkpoint_path.empty()) {
        save_journal(batch + 1, result.batches_run);
        ++result.checkpoints_written;
      }
      if (segment_batches >= config_.stop_after_batches) {
        stopped = true;
        break;
      }
    }
    result.complete = !stopped || result.batches_run == total_batches;
    finalize(result);
    return result;
  }

 private:
  // ------------------------------------------------------- deterministic
  std::uint64_t batch_seed(std::size_t dev, std::size_t batch) const {
    return mix64(config_.seed ^ mix64(profiles_[dev].channel.seed ^
                                      mix64((dev << 24) ^ batch)));
  }

  std::size_t watchdog_budget(std::size_t rx_symbols) const {
    if (config_.watchdog_steps != 0) return config_.watchdog_steps;
    // A clean decode costs at most ~5 FSM steps per codeword plus one step
    // per scan bit; 8x the combined stream sizes can never trip it.
    return 64 + 8 * (cubes_.pattern_length() + rx_symbols);
  }

  // --------------------------------------------------------- batch logic
  void run_device_batch(std::size_t dev, std::size_t batch) {
    DeviceState& st = states_[dev];
    if (st.session.aborted) return;
    const std::size_t first = batch * config_.batch_patterns;
    const std::size_t last =
        std::min(first + config_.batch_patterns, cubes_.pattern_count());

    // Reseed per batch: the fault stream of batch k is a pure function of
    // (fleet seed, device, k), so resume replays exactly what an
    // uninterrupted run would have seen.
    st.channel.reseed(batch_seed(dev, batch));

    if (st.breaker == BreakerState::kOpen) {
      if (st.cooldown_batches > 0) {
        --st.cooldown_batches;
        st.patterns_skipped += last - first;
        return;
      }
      st.breaker = BreakerState::kHalfOpen;
    }

    for (std::size_t pat = first; pat < last; ++pat) {
      if (st.session.aborted) break;
      if (st.breaker == BreakerState::kOpen) {
        // A failed probe re-opened the breaker mid-batch.
        st.patterns_skipped += last - pat;
        break;
      }
      apply_pattern(dev, st, pat);
    }
  }

  void apply_pattern(std::size_t dev, DeviceState& st, std::size_t pat) {
    const bool probe = st.breaker == BreakerState::kHalfOpen;
    if (probe) ++st.probes;
    const TritVector& te = te_[pat];
    const TritVector cube = cubes_.pattern(pat);
    // A half-open breaker risks exactly one transmission on the device.
    const unsigned attempts = probe ? 1 : config_.retry.max_retries + 1;

    // Shared transmit/decode/validate/re-stream loop (decomp/retry.h),
    // here with the fleet's per-attempt watchdog budget.
    const StreamOutcome streamed = stream_pattern_with_retry(
        st.channel, decoder_, te, cube, attempts, st.session,
        [this](std::size_t rx_symbols) { return watchdog_budget(rx_symbols); });
    st.watchdog_trips += streamed.watchdog_trips;

    if (streamed.applied) {
      st.consecutive_failures = 0;
      if (probe) {
        ++st.probe_successes;
        st.breaker = BreakerState::kClosed;
      }
      const bool failed =
          st.compare->pattern_fails(streamed.scan_stream, profiles_[dev].fault);
      st.session.pattern_failed.push_back(failed);
      if (failed) ++st.session.failing_patterns;
      ++st.session.patterns_applied;
      return;
    }

    // Fail-safe: an unstreamable pattern is never reported as passing.
    ++st.session.patterns_unrecovered;
    st.session.pattern_failed.push_back(true);
    if (probe) {
      st.breaker = BreakerState::kOpen;
      st.cooldown_batches = config_.breaker.probe_after;
      ++st.breaker_opens;
    } else if (++st.consecutive_failures >= config_.breaker.open_after) {
      st.breaker = BreakerState::kOpen;
      st.cooldown_batches = config_.breaker.probe_after;
      ++st.breaker_opens;
    }
    if (st.session.patterns_unrecovered >= config_.retry.abort_after)
      st.session.aborted = true;
  }

  // ----------------------------------------------------------- finishing
  static DeviceVerdict verdict_of(const DeviceState& st) {
    if (st.session.aborted) return DeviceVerdict::kAborted;
    if (st.session.failing_patterns > 0) return DeviceVerdict::kFailed;
    if (st.breaker != BreakerState::kClosed || st.patterns_skipped > 0)
      return DeviceVerdict::kQuarantined;
    if (st.session.patterns_unrecovered > 0) return DeviceVerdict::kFailed;
    return DeviceVerdict::kPassed;
  }

  void finalize(FleetResult& result) const {
    result.devices.reserve(states_.size());
    for (const DeviceState& st : states_) {
      DeviceResult dr;
      dr.verdict = verdict_of(st);
      dr.breaker = st.breaker;
      dr.session = st.session;
      dr.session.channel = st.total_channel_stats();
      dr.watchdog_trips = st.watchdog_trips;
      dr.patterns_skipped = st.patterns_skipped;
      dr.breaker_opens = st.breaker_opens;
      dr.probes = st.probes;
      dr.probe_successes = st.probe_successes;

      switch (dr.verdict) {
        case DeviceVerdict::kPassed: ++result.passed; break;
        case DeviceVerdict::kFailed: ++result.failed; break;
        case DeviceVerdict::kQuarantined: ++result.quarantined; break;
        case DeviceVerdict::kAborted: ++result.aborted; break;
      }
      result.ate_bits += dr.session.ate_bits;
      result.wasted_ate_bits += dr.session.wasted_ate_bits;
      result.retries += dr.session.retries;
      result.watchdog_trips += dr.watchdog_trips;
      result.patterns_skipped += dr.patterns_skipped;
      result.devices.push_back(std::move(dr));
    }
  }

  // ------------------------------------------------------------- journal
  /// Everything that shapes the deterministic run: geometry and content of
  /// the test set, codec/decoder parameters, retry/breaker/watchdog
  /// policies, batching, seeds and every device profile. A journal written
  /// under any other configuration must not be resumable into this one.
  std::uint64_t config_hash() const {
    Fnv fnv;
    fnv.u64(kJournalVersion);
    fnv.u64(cubes_.pattern_count());
    fnv.u64(cubes_.pattern_length());
    const TritVector& flat = cubes_.flatten();
    for (std::size_t i = 0; i < flat.size(); ++i)
      fnv.u64(static_cast<std::uint64_t>(flat.get(i)));
    fnv.u64(config_.block_size);
    fnv.u64(config_.p);
    fnv.u64(config_.retry.max_retries);
    fnv.u64(config_.retry.abort_after);
    fnv.u64(config_.breaker.open_after);
    fnv.u64(config_.breaker.probe_after);
    fnv.u64(config_.watchdog_steps);
    fnv.u64(config_.batch_patterns);
    fnv.u64(config_.seed);
    fnv.u64(profiles_.size());
    for (const DeviceProfile& profile : profiles_) {
      fnv.u64(double_bits(profile.channel.flip_rate));
      fnv.u64(double_bits(profile.channel.burst_rate));
      fnv.u64(profile.channel.burst_length);
      fnv.u64(double_bits(profile.channel.truncate_rate));
      fnv.u64(double_bits(profile.channel.stuck_rate));
      fnv.u64(profile.channel.seed);
      fnv.b(profile.fault.has_value());
      if (profile.fault.has_value()) {
        fnv.u64(profile.fault->node);
        fnv.u64(profile.fault->consumer);
        fnv.u64(profile.fault->pin);
        fnv.b(profile.fault->stuck_value);
      }
    }
    return fnv.value();
  }

  /// The journal is append-only: a fixed header written once, then one
  /// CRC-guarded snapshot record per completed batch, appended through a
  /// stream that stays open for the whole run. A kill mid-append can only
  /// tear the newest record; every record before it is untouched, so
  /// resume falls back at most one batch and replays it bit-identically.
  /// (The earlier write-to-temp-then-rename scheme had the same crash
  /// guarantee but cost an open+rename per batch -- two orders of
  /// magnitude slower on some filesystems than one buffered append.)
  void save_journal(std::size_t next_batch, std::size_t batches_run) {
    if (!journal_out_.is_open()) open_journal();
    ByteWriter w;
    w.u64(next_batch);
    w.u64(batches_run);
    w.u32(static_cast<std::uint32_t>(states_.size()));
    for (const DeviceState& st : states_) {
      w.u8(static_cast<unsigned>(st.breaker));
      w.u32(st.consecutive_failures);
      w.u64(st.cooldown_batches);
      w.u64(st.watchdog_trips);
      w.u64(st.patterns_skipped);
      w.u64(st.breaker_opens);
      w.u64(st.probes);
      w.u64(st.probe_successes);
      const SessionResult& s = st.session;
      w.u64(s.patterns_applied);
      w.u64(s.failing_patterns);
      w.u64(s.ate_bits);
      w.u64(s.soc_cycles);
      w.u64(s.patterns_retried);
      w.u64(s.retries);
      w.u64(s.corruptions_detected);
      w.u64(s.corruptions_undetected);
      w.u64(s.patterns_unrecovered);
      w.u64(s.wasted_ate_bits);
      w.u8(s.aborted ? 1 : 0);
      write_channel_stats(w, st.total_channel_stats());
      w.bools(s.pattern_failed);
    }
    ByteWriter rec;
    rec.u32(static_cast<std::uint32_t>(w.bytes().size()));
    rec.raw(w.bytes());
    rec.u32(crc32_bytes(w.bytes().data(), w.bytes().size()));
    journal_out_.write(reinterpret_cast<const char*>(rec.bytes().data()),
                       static_cast<std::streamsize>(rec.bytes().size()));
    journal_out_.flush();
    if (!journal_out_)
      throw std::runtime_error("write failed: fleet journal " +
                               config_.checkpoint_path);
  }

  void open_journal() {
    if (journal_loaded_) {
      // Continue an existing journal: drop any torn bytes past the last
      // valid record, then append after it.
      std::error_code ec;
      std::filesystem::resize_file(config_.checkpoint_path,
                                   journal_valid_end_, ec);
      if (ec)
        throw std::runtime_error("cannot truncate fleet journal " +
                                 config_.checkpoint_path + ": " +
                                 ec.message());
      journal_out_.open(config_.checkpoint_path,
                        std::ios::binary | std::ios::app);
      if (!journal_out_)
        throw std::runtime_error("cannot append to fleet journal " +
                                 config_.checkpoint_path);
      return;
    }
    journal_out_.open(config_.checkpoint_path,
                      std::ios::binary | std::ios::trunc);
    if (!journal_out_)
      throw std::runtime_error("cannot write fleet journal " +
                               config_.checkpoint_path);
    ByteWriter header;
    for (unsigned char c : kJournalMagic) header.u8(c);
    header.u8(kJournalVersion);
    header.u64(config_hash_);
    journal_out_.write(reinterpret_cast<const char*>(header.bytes().data()),
                       static_cast<std::streamsize>(header.bytes().size()));
  }

  /// Returns false when no journal exists (fresh start); throws on a
  /// journal that exists but cannot be trusted. A valid journal with a
  /// torn or corrupt tail resumes from the newest record that still
  /// checks out -- per-batch reseeding makes the replay bit-identical.
  bool load_journal(std::size_t& next_batch, std::size_t& batches_run) {
    std::ifstream in(config_.checkpoint_path, std::ios::binary);
    if (!in) return false;
    std::vector<unsigned char> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

    if (bytes.size() < kJournalHeaderSize ||
        !std::equal(kJournalMagic, kJournalMagic + sizeof(kJournalMagic),
                    bytes.begin()))
      throw std::runtime_error(config_.checkpoint_path +
                               " is not a fleet journal (bad magic)");
    ByteReader header(bytes.data() + sizeof(kJournalMagic),
                      kJournalHeaderSize - sizeof(kJournalMagic));
    if (header.u8() != kJournalVersion)
      throw std::runtime_error(config_.checkpoint_path +
                               ": unsupported journal version");
    if (header.u64() != config_hash_)
      throw std::runtime_error(
          config_.checkpoint_path +
          ": journal belongs to a different fleet configuration");

    // Walk the records front to back; the newest one whose length and CRC
    // both check out is the checkpoint. The scan stops at the first bad
    // record -- appends are sequential, so anything past it is either a
    // torn tail (kill mid-append) or tampering, and is discarded either
    // way when the run continues the journal.
    const unsigned char* best = nullptr;
    std::size_t best_len = 0;
    std::size_t off = kJournalHeaderSize;
    std::size_t valid_end = kJournalHeaderSize;
    while (bytes.size() - off >= 8) {
      const std::uint32_t len = read_le32(bytes.data() + off);
      if (len == 0 || len > bytes.size() - off - 8) break;
      const unsigned char* body = bytes.data() + off + 4;
      if (crc32_bytes(body, len) != read_le32(body + len)) break;
      best = body;
      best_len = len;
      off += 8 + len;
      valid_end = off;
    }
    if (best == nullptr)
      throw std::runtime_error(config_.checkpoint_path +
                               ": journal contains no valid checkpoint");
    journal_valid_end_ = valid_end;
    journal_loaded_ = true;

    ByteReader r(best, best_len);
    next_batch = static_cast<std::size_t>(r.u64());
    batches_run = static_cast<std::size_t>(r.u64());
    if (r.u32() != states_.size())
      throw std::runtime_error(config_.checkpoint_path +
                               ": journal device count mismatch");
    for (DeviceState& st : states_) {
      const unsigned breaker = r.u8();
      if (breaker > static_cast<unsigned>(BreakerState::kHalfOpen))
        throw std::runtime_error(config_.checkpoint_path +
                                 ": journal holds an invalid breaker state");
      st.breaker = static_cast<BreakerState>(breaker);
      st.consecutive_failures = r.u32();
      st.cooldown_batches = r.u64();
      st.watchdog_trips = static_cast<std::size_t>(r.u64());
      st.patterns_skipped = static_cast<std::size_t>(r.u64());
      st.breaker_opens = static_cast<std::size_t>(r.u64());
      st.probes = static_cast<std::size_t>(r.u64());
      st.probe_successes = static_cast<std::size_t>(r.u64());
      SessionResult& s = st.session;
      s.patterns_applied = static_cast<std::size_t>(r.u64());
      s.failing_patterns = static_cast<std::size_t>(r.u64());
      s.ate_bits = static_cast<std::size_t>(r.u64());
      s.soc_cycles = static_cast<std::size_t>(r.u64());
      s.patterns_retried = static_cast<std::size_t>(r.u64());
      s.retries = static_cast<std::size_t>(r.u64());
      s.corruptions_detected = static_cast<std::size_t>(r.u64());
      s.corruptions_undetected = static_cast<std::size_t>(r.u64());
      s.patterns_unrecovered = static_cast<std::size_t>(r.u64());
      s.wasted_ate_bits = static_cast<std::size_t>(r.u64());
      s.aborted = r.u8() != 0;
      st.channel_base = read_channel_stats(r);
      s.pattern_failed = r.bools();
    }
    if (r.remaining() != 0)
      throw std::runtime_error(config_.checkpoint_path +
                               ": journal record has trailing bytes");
    return true;
  }

  const circuit::Netlist& netlist_;
  const TestSet& cubes_;
  const FleetConfig& config_;
  const std::vector<DeviceProfile>& profiles_;
  codec::NineCoded coder_;
  SingleScanDecoder decoder_;
  std::uint64_t config_hash_ = 0;
  std::vector<TritVector> te_;
  std::vector<DeviceState> states_;
  std::ofstream journal_out_;
  // Set by load_journal: append after the last valid record on resume.
  std::size_t journal_valid_end_ = 0;
  bool journal_loaded_ = false;
};

}  // namespace

const char* to_string(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

const char* to_string(DeviceVerdict verdict) noexcept {
  switch (verdict) {
    case DeviceVerdict::kPassed: return "passed";
    case DeviceVerdict::kFailed: return "failed";
    case DeviceVerdict::kQuarantined: return "quarantined";
    case DeviceVerdict::kAborted: return "aborted";
  }
  return "unknown";
}

std::uint64_t fleet_fingerprint(const FleetResult& result) noexcept {
  Fnv fnv;
  fnv.u64(result.batches_run);
  fnv.b(result.complete);
  fnv.u64(result.devices.size());
  for (const DeviceResult& dr : result.devices) {
    fnv.u64(static_cast<std::uint64_t>(dr.verdict));
    fnv.u64(static_cast<std::uint64_t>(dr.breaker));
    fnv.u64(dr.watchdog_trips);
    fnv.u64(dr.patterns_skipped);
    fnv.u64(dr.breaker_opens);
    fnv.u64(dr.probes);
    fnv.u64(dr.probe_successes);
    const SessionResult& s = dr.session;
    fnv.u64(s.patterns_applied);
    fnv.u64(s.failing_patterns);
    fnv.u64(s.ate_bits);
    fnv.u64(s.soc_cycles);
    fnv.u64(s.patterns_retried);
    fnv.u64(s.retries);
    fnv.u64(s.corruptions_detected);
    fnv.u64(s.corruptions_undetected);
    fnv.u64(s.patterns_unrecovered);
    fnv.u64(s.wasted_ate_bits);
    fnv.b(s.aborted);
    hash_channel_stats(fnv, s.channel);
    fnv.u64(s.pattern_failed.size());
    for (const bool failed : s.pattern_failed) fnv.b(failed);
  }
  return fnv.value();
}

FleetResult run_fleet(const circuit::Netlist& netlist, const TestSet& cubes,
                      const FleetConfig& config,
                      const std::vector<DeviceProfile>& devices) {
  FleetRunner runner(netlist, cubes, config, devices);
  return runner.run();
}

}  // namespace nc::decomp
