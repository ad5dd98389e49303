#include "codec/nine_coded.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "bits/bitstream.h"

namespace nc::codec {

using bits::Trit;
using bits::TritVector;

std::size_t encoded_bits(const std::array<std::size_t, kNumClasses>& counts,
                         const CodewordTable& table, std::size_t k,
                         std::size_t split) noexcept {
  std::size_t bits = 0;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<BlockClass>(c);
    bits += counts[c] * (table.length(cls) + payload_trits(cls, k, split));
  }
  return bits;
}

std::size_t NineCodedStats::blocks() const noexcept {
  std::size_t n = 0;
  for (auto c : counts) n += c;
  return n;
}

NineCoded::NineCoded(std::size_t block_size, CodewordTable table,
                     std::size_t split)
    : k_(block_size), table_(table) {
  if (split == 0) {
    if (k_ < 2 || k_ % 2 != 0)
      throw std::invalid_argument("9C block size K must be even and >= 2");
    left_ = k_ / 2;
  } else {
    if (k_ < 2)
      throw std::invalid_argument("9C block size K must be >= 2");
    if (split >= k_)
      throw std::invalid_argument("9C split must be in [1, K-1]");
    left_ = split;
  }
  right_ = k_ - left_;
}

std::string NineCoded::name() const {
  std::string n = "9C(K=" + std::to_string(k_);
  if (left_ * 2 != k_) n += ",S=" + std::to_string(left_);
  return n + ")";
}

TritVector NineCoded::encode(const TritVector& td) const {
  TritVector stream;
  analyze(td, &stream);
  return stream;
}

// The coder reads TD and writes TE as TritVector's packed words: each half
// is classified with masks and a popcount per packed word (scan_half), and
// codewords and payloads are appended as shifted word writes. The per-trit
// specification in tests/reference must produce byte-identical TE and
// identical statistics (codec_diff_fuzz_test). Without an output stream the
// block loop only classifies and |TE| is priced from the class histogram.

NineCodedStats NineCoded::analyze(const TritVector& td,
                                  TritVector* out_stream) const {
  NineCodedStats stats;
  stats.block_size = k_;
  stats.split = left_;
  stats.original_bits = td.size();
  // TD's whole blocks end at `whole`; a partial last block may follow.
  const std::size_t whole = td.size() - td.size() % k_;
  stats.padded_bits = whole == td.size() ? whole : whole + k_;

  // Codewords as 2-bit fields, precomputed once so emission is a single
  // append_packed per block.
  struct PackedCodeword {
    std::uint64_t fields = 0;
    unsigned length = 0;
  };
  std::array<PackedCodeword, kNumClasses> codewords;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const Codeword& w = table_.at(static_cast<BlockClass>(c));
    codewords[c] = {w.packed(), w.length};
  }

  const bool emit = out_stream != nullptr;
  TritVector stream;
  if (emit) stream.reserve(stats.padded_bits / 2);
  // The partial last block is padded with X, which compresses maximally
  // and which the decoder drops; only a copy of that block is padded.
  TritVector last;
  if (whole < td.size()) {
    last = td.slice(whole, k_);
    last.resize(k_, Trit::X);
  }
  for (std::size_t b = 0; b < stats.padded_bits; b += k_) {
    const TritVector& src = b < whole ? td : last;
    const std::size_t at = b < whole ? b : 0;  // the block is src[at, at+K)
    const HalfScan left = scan_half(src, at, left_);
    const HalfScan right = scan_half(src, at + left_, right_);
    const BlockClass cls = classify_halves(left.kind, right.kind);
    ++stats.counts[static_cast<std::size_t>(cls)];
    if (emit) {
      const PackedCodeword& cw = codewords[static_cast<std::size_t>(cls)];
      stream.append_packed(cw.fields, cw.length);
    }
    switch (cls) {
      case BlockClass::kC1:
      case BlockClass::kC2:
      case BlockClass::kC3:
      case BlockClass::kC4:
        stats.filled_x += left.x_count + right.x_count;
        break;
      case BlockClass::kC5:
      case BlockClass::kC7:
        stats.filled_x += left.x_count;
        stats.leftover_x += right.x_count;
        if (emit) stream.append_range(src, at + left_, right_);
        break;
      case BlockClass::kC6:
      case BlockClass::kC8:
        stats.filled_x += right.x_count;
        stats.leftover_x += left.x_count;
        if (emit) stream.append_range(src, at, left_);
        break;
      case BlockClass::kC9:
        stats.leftover_x += left.x_count + right.x_count;
        if (emit) stream.append_range(src, at, k_);
        break;
    }
  }

  stats.encoded_bits = encoded_bits(stats.counts, table_, k_, left_);
  if (emit) *out_stream = std::move(stream);
  return stats;
}

// ----------------------------------------------------------------- decode

namespace {

/// The value lanes of 2-bit fields, one bit per trit (trit j at bit j):
/// the inverse Morton interleave. Each step may use | because the shifted
/// copies land on disjoint bit positions.
constexpr std::uint64_t value_bits(std::uint64_t fields) noexcept {
  fields &= 0x5555555555555555ull;
  fields = (fields | (fields >> 1)) & 0x3333333333333333ull;
  fields = (fields | (fields >> 2)) & 0x0F0F0F0F0F0F0F0Full;
  fields = (fields | (fields >> 4)) & 0x00FF00FF00FF00FFull;
  fields = (fields | (fields >> 8)) & 0x0000FFFF0000FFFFull;
  fields = (fields | (fields >> 16)) & 0x00000000FFFFFFFFull;
  return fields;
}

/// One-probe codeword resolution: entry i names the codeword whose stream
/// bits (first transmitted bit lowest) are a prefix of i, where i is the
/// value lanes of the next max_length() TE trits. Tables with a codeword
/// longer than kMaxBits are left to the per-bit matcher.
class CodewordLookup {
 public:
  static constexpr unsigned kMaxBits = 8;

  explicit CodewordLookup(const CodewordTable& table)
      : window_(table.max_length()) {
    if (window_ > kMaxBits) return;
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      const Codeword& w = table.at(static_cast<BlockClass>(c));
      const std::uint64_t stream = value_bits(w.packed());
      // The X lanes of the codeword's trits, which must all be clear.
      const auto x_lanes =
          static_cast<std::uint16_t>(0xAAAAu >> (16 - 2 * w.length));
      for (unsigned rest = 0; rest < (1u << (window_ - w.length)); ++rest)
        entries_[stream | rest << w.length] = {
            static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(w.length),
            x_lanes};
    }
  }

  /// Resolves and consumes the codeword at the cursor of `reader` over `te`
  /// when the whole window lies inside TE, some codeword matches it, and
  /// that codeword's trits hold no X. Otherwise consumes nothing and
  /// returns nothing, and the per-bit matcher decides -- it raises the typed
  /// error for a truncated stream, an X in a codeword or an unmatched
  /// window (Kraft slack).
  std::optional<BlockClass> match(const TritVector& te,
                                  bits::TritReader& reader) const {
    if (window_ > kMaxBits || reader.remaining() < window_) return {};
    const std::uint64_t fields = te.packed_bits(reader.position(), window_);
    const Entry e = entries_[value_bits(fields)];
    if (e.length == 0 || (fields & e.x_lanes) != 0) return {};
    reader.skip(e.length);
    return static_cast<BlockClass>(e.cls);
  }

 private:
  struct Entry {
    std::uint8_t cls = 0;
    std::uint8_t length = 0;  // 0: no codeword matches this window
    std::uint16_t x_lanes = 0;
  };
  unsigned window_;
  std::array<Entry, 1u << kMaxBits> entries_{};
};

}  // namespace

TritVector NineCoded::decode(const TritVector& te,
                             std::size_t original_bits) const {
  return decode_checked(te, original_bits).data;
}

DecodeOutcome NineCoded::decode_checked(const TritVector& te,
                                        std::size_t original_bits,
                                        core::Watchdog* watchdog) const {
  // Rounded up without `original_bits + k_ - 1`, which wraps for a crafted
  // length near SIZE_MAX; such a length runs out of TE as kTruncated.
  const std::size_t expected_blocks =
      original_bits / k_ + (original_bits % k_ != 0);
  DecodeOutcome outcome;
  TritVector& out = outcome.data;
  bits::TritReader reader(te);
  const CodewordLookup lookup(table_);
  // Reservation is only a hint and must not trust `original_bits`: a
  // corrupted length header has to surface as the typed truncation error
  // after a bounded parse, not as bad_alloc here. Every block consumes at
  // least one TE symbol, so te.size()+1 blocks bounds any real decode.
  out.reserve(std::min(expected_blocks, te.size() + 1) * k_);
  // Claims the next `n` TE trits as a payload (StreamOverrun if TE holds
  // fewer) and returns where they start.
  const auto take_payload = [&reader](std::size_t n) {
    const std::size_t at = reader.position();
    reader.skip(n);
    return at;
  };
  // Same loop skeleton, watchdog schedule and exception mapping as the
  // per-trit reference decoder -- only the codeword lookup and the fill/copy
  // data paths differ (word-parallel append_run/append_range instead of
  // per-trit appends).
  for (std::size_t block = 0; block < expected_blocks; ++block) {
    if (watchdog != nullptr &&
        watchdog->tick(k_ + 5) != core::WatchdogTrip::kNone)
      throw DecodeError(DecodeFault::kWatchdogExpired, reader.position(),
                        block);
    try {
      const std::optional<BlockClass> hit = lookup.match(te, reader);
      const BlockClass cls = hit ? *hit : table_.match(reader);
      switch (cls) {
        case BlockClass::kC1:
        case BlockClass::kC2:
        case BlockClass::kC3:
        case BlockClass::kC4: {
          const auto fill = uniform_fill(cls);
          out.append_run(left_, bits::trit_from_bit(fill[0]));
          out.append_run(right_, bits::trit_from_bit(fill[1]));
          break;
        }
        case BlockClass::kC5:
        case BlockClass::kC6:
        case BlockClass::kC7:
        case BlockClass::kC8: {
          // The payload is claimed before either half is emitted, so a
          // truncated stream reports the same offset as the reference
          // decoder, which reads the payload first.
          const MixedShape shape = mixed_shape(cls);
          const Trit uniform = bits::trit_from_bit(shape.uniform_value);
          if (shape.mismatch_is_left) {
            out.append_range(te, take_payload(left_), left_);
            out.append_run(right_, uniform);
          } else {
            const std::size_t at = take_payload(right_);
            out.append_run(left_, uniform);
            out.append_range(te, at, right_);
          }
          break;
        }
        case BlockClass::kC9:
          out.append_range(te, take_payload(k_), k_);
          break;
      }
    } catch (const bits::StreamOverrun& e) {
      throw DecodeError(DecodeFault::kTruncated, e.offset(), block);
    } catch (const bits::InvalidSymbol& e) {
      throw DecodeError(DecodeFault::kXInCodeword, e.offset(), block);
    } catch (const DecodeError& e) {
      throw e.with_block(block);
    }
  }
  if (!reader.done())
    throw DecodeError(DecodeFault::kTrailingData, reader.position(),
                      expected_blocks);
  outcome.blocks = expected_blocks;
  outcome.consumed = reader.position();
  out.resize(original_bits);
  return outcome;
}

NineCoded NineCoded::tuned_for(const bits::TritVector& td,
                               std::size_t block_size) {
  const NineCodedStats stats = NineCoded(block_size).analyze(td);
  return NineCoded(block_size,
                   CodewordTable::frequency_directed(stats.counts));
}

}  // namespace nc::codec
