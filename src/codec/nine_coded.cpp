#include "codec/nine_coded.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "bits/bitplane.h"
#include "bits/bitstream.h"

namespace nc::codec {

using bits::Bitplanes;
using bits::BitplaneReader;
using bits::Trit;
using bits::TritVector;

namespace {

/// A codeword's bits in stream order: the first transmitted bit lowest.
std::uint64_t stream_bits(const Codeword& w) noexcept {
  std::uint64_t bits = 0;
  for (unsigned j = 0; j < w.length; ++j)
    bits |= ((w.bits >> (w.length - 1 - j)) & 1ull) << j;
  return bits;
}

}  // namespace

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

// Word-parallel coder: TD is de-interleaved once into a value plane and an
// X plane, each half is classified with AND/OR/popcount on 64-bit words, and
// codewords/payloads are emitted as shifted word writes. The per-trit
// specification in tests/reference must produce byte-identical TE and
// identical statistics (codec_diff_fuzz_test). Without an output stream the
// block loop only classifies and |TE| is priced from the class histogram.

NineCodedStats NineCoded::analyze(const TritVector& td,
                                  TritVector* out_stream) const {
  NineCodedStats stats;
  stats.block_size = k_;
  stats.split = left_;
  stats.original_bits = td.size();

  Bitplanes planes(td);
  if (planes.size() % k_ != 0)
    planes.append_run(k_ - planes.size() % k_, Trit::X);
  stats.padded_bits = planes.size();

  // Codewords in stream order (first transmitted bit lowest), precomputed
  // once so emission is a single masked word write per block.
  struct StreamWord {
    std::uint64_t bits = 0;
    unsigned length = 0;
  };
  std::array<StreamWord, kNumClasses> codewords;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const Codeword& w = table_.at(static_cast<BlockClass>(c));
    codewords[c].bits = stream_bits(w);
    codewords[c].length = w.length;
  }

  const bool emit = out_stream != nullptr;
  Bitplanes stream;
  if (emit) stream.reserve(planes.size() / 2);
  for (std::size_t b = 0; b < planes.size(); b += k_) {
    const HalfScan left = scan_half(planes, b, left_);
    const HalfScan right = scan_half(planes, b + left_, right_);
    const BlockClass cls = classify_halves(left.kind, right.kind);
    ++stats.counts[static_cast<std::size_t>(cls)];
    if (emit) {
      const StreamWord& cw = codewords[static_cast<std::size_t>(cls)];
      stream.append_word(cw.bits, 0, cw.length);
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
        if (emit) stream.append_range(planes, b + left_, right_);
        break;
      case BlockClass::kC6:
      case BlockClass::kC8:
        stats.filled_x += right.x_count;
        stats.leftover_x += left.x_count;
        if (emit) stream.append_range(planes, b, left_);
        break;
      case BlockClass::kC9:
        stats.leftover_x += left.x_count + right.x_count;
        if (emit) stream.append_range(planes, b, k_);
        break;
    }
  }

  stats.encoded_bits = encoded_bits(stats.counts, table_, k_, left_);
  if (emit) *out_stream = stream.to_trits();
  return stats;
}

// ----------------------------------------------------------------- decode

namespace {

/// One-probe codeword resolution: entry i names the codeword whose stream
/// bits (first transmitted bit lowest) are a prefix of i, where i is the
/// window of the next max_length() TE value bits. Tables with a codeword
/// longer than kMaxBits are left to the per-bit matcher.
class CodewordLookup {
 public:
  static constexpr unsigned kMaxBits = 8;

  explicit CodewordLookup(const CodewordTable& table)
      : window_(table.max_length()) {
    if (window_ > kMaxBits) return;
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      const Codeword& w = table.at(static_cast<BlockClass>(c));
      const std::uint64_t stream = stream_bits(w);
      for (unsigned rest = 0; rest < (1u << (window_ - w.length)); ++rest)
        entries_[stream | rest << w.length] = {
            static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(w.length)};
    }
  }

  /// Resolves and consumes the codeword at the cursor when the whole window
  /// lies inside TE, some codeword matches it, and that codeword's bits hold
  /// no X. Otherwise consumes nothing and returns nothing, and the per-bit
  /// matcher decides -- it raises the typed error for a truncated stream, an
  /// X in a codeword or an unmatched window (Kraft slack).
  std::optional<BlockClass> match(bits::BitplaneReader& reader) const {
    if (window_ > kMaxBits || reader.remaining() < window_) return {};
    const Entry e = entries_[reader.peek_values(window_)];
    if (e.length == 0 || reader.peek_xs(e.length) != 0) return {};
    reader.skip(e.length);
    return static_cast<BlockClass>(e.cls);
  }

 private:
  struct Entry {
    std::uint8_t cls = 0;
    std::uint8_t length = 0;  // 0: no codeword matches this window
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
  const Bitplanes in(te);
  BitplaneReader reader(in);
  const CodewordLookup lookup(table_);
  Bitplanes out;
  // Reservation is only a hint and must not trust `original_bits`: a
  // corrupted length header has to surface as the typed truncation error
  // after a bounded parse, not as bad_alloc here. Every block consumes at
  // least one TE symbol, so te.size()+1 blocks bounds any real decode.
  out.reserve(std::min(expected_blocks, te.size() + 1) * k_);
  // Same loop skeleton, watchdog schedule and exception mapping as the
  // per-trit reference decoder -- only the codeword lookup and the fill/copy
  // data paths differ (word-parallel append_run/copy_to instead of per-trit
  // appends).
  for (std::size_t block = 0; block < expected_blocks; ++block) {
    if (watchdog != nullptr &&
        watchdog->tick(k_ + 5) != core::WatchdogTrip::kNone)
      throw DecodeError(DecodeFault::kWatchdogExpired, reader.position(),
                        block);
    try {
      const std::optional<BlockClass> hit = lookup.match(reader);
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
          const MixedShape shape = mixed_shape(cls);
          if (shape.mismatch_is_left) {
            reader.copy_to(out, left_);
            out.append_run(right_, bits::trit_from_bit(shape.uniform_value));
          } else {
            // Check the payload is available *before* emitting the uniform
            // half so a truncated stream reports the same offset as the
            // reference decoder, which reads the payload first.
            if (reader.remaining() < right_)
              throw bits::StreamOverrun(reader.position(), right_,
                                        reader.remaining());
            out.append_run(left_, bits::trit_from_bit(shape.uniform_value));
            reader.copy_to(out, right_);
          }
          break;
        }
        case BlockClass::kC9:
          reader.copy_to(out, k_);
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
  outcome.data = out.to_trits();
  outcome.data.resize(original_bits);
  return outcome;
}

NineCoded NineCoded::tuned_for(const bits::TritVector& td,
                               std::size_t block_size) {
  const NineCodedStats stats = NineCoded(block_size).analyze(td);
  return NineCoded(block_size,
                   CodewordTable::frequency_directed(stats.counts));
}

}  // namespace nc::codec
