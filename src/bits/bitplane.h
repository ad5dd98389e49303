// Word-parallel bitplane representation of a trit sequence.
//
// A TritVector packs trits as interleaved 2-bit fields (32 trits per
// 64-bit word), which is compact but forces per-symbol work on the codec
// hot path. Bitplanes de-interleaves the same sequence into two parallel
// bit planes of 64 trits per word each:
//
//   value plane  bit i == 1  iff  trit i is One
//   X plane      bit i == 1  iff  trit i is X (don't-care)
//
// (a specified Zero has both bits clear; value and X are disjoint by
// construction). In this form the 9C classification questions become
// plain word arithmetic over a masked range:
//
//   0-compatible  <=>  (value & mask) == 0          (no specified 1)
//   1-compatible  <=>  ((value | x) & mask) == mask (no specified 0)
//   X population  ==   popcount(x & mask)
//
// and the encoder/decoder fill/copy paths become shifted word copies
// instead of per-trit loops. The planes always keep every bit at position
// >= size() zero, so conversions back to TritVector are canonical and
// word-compare equal to scalar-built streams.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bits/bitstream.h"
#include "bits/trit_vector.h"

namespace nc::bits {

/// What one word-parallel pass over a range observed. The 9C encoder maps
/// this onto codec::HalfKind (any_one kills 0-compatibility, any_zero
/// kills 1-compatibility) and uses x_count for its filled/leftover
/// accounting.
struct PlaneScan {
  bool any_one = false;   // at least one specified 1 in the range
  bool any_zero = false;  // at least one specified 0 in the range
  std::size_t x_count = 0;
};

/// Two packed bitplanes over a trit sequence, with append-style building.
class Bitplanes {
 public:
  Bitplanes() = default;

  /// Plane extraction: de-interleaves the packed 2-bit words of `v`.
  explicit Bitplanes(const TritVector& v);

  /// Plane injection: re-interleaves into a canonical TritVector that is
  /// word-identical to one built trit by trit.
  TritVector to_trits() const;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool value_bit(std::size_t i) const noexcept {
    return (value_[i >> 6] >> (i & 63)) & 1u;
  }
  bool x_bit(std::size_t i) const noexcept {
    return (x_[i >> 6] >> (i & 63)) & 1u;
  }
  Trit get(std::size_t i) const noexcept {
    if (x_bit(i)) return Trit::X;
    return value_bit(i) ? Trit::One : Trit::Zero;
  }

  /// The `len` (<= 64) value-plane bits starting at `begin`, bit j of the
  /// result being trit begin+j; bits past `len` are zero.
  std::uint64_t value_bits(std::size_t begin, std::size_t len) const noexcept {
    return plane_bits(value_, begin, len);
  }
  /// Same for the X plane.
  std::uint64_t x_bits(std::size_t begin, std::size_t len) const noexcept {
    return plane_bits(x_, begin, len);
  }

  /// One word-parallel pass over [begin, begin+len): AND/OR/popcount per
  /// 64-trit word with correct masking at the boundaries, including a
  /// partial first word, a partial tail, and the degenerate empty range.
  /// Inline: this is the encoder's innermost loop, called twice per block.
  PlaneScan scan(std::size_t begin, std::size_t len) const noexcept {
    PlaneScan s;
    std::size_t pos = begin;
    std::size_t left = len;
    while (left > 0) {
      const unsigned off = pos & 63;
      const unsigned take =
          static_cast<unsigned>(std::min<std::size_t>(left, 64 - off));
      const std::uint64_t mask = low_mask(take) << off;
      const std::uint64_t val = value_[pos >> 6] & mask;
      const std::uint64_t xs = x_[pos >> 6] & mask;
      s.any_one |= val != 0;
      s.any_zero |= (val | xs) != mask;
      s.x_count += static_cast<std::size_t>(std::popcount(xs));
      pos += take;
      left -= take;
    }
    return s;
  }

  /// Appends `n` (<= 64) trits given as plane words: bit j of
  /// `value`/`x` is trit size()+j. Bits at positions >= n must be zero.
  void append_word(std::uint64_t value, std::uint64_t x, unsigned n) {
    if (n == 0) return;
    ensure(size_ + n);
    const std::size_t w = size_ >> 6;
    const unsigned off = size_ & 63;
    value_[w] |= value << off;
    x_[w] |= x << off;
    if (off + n > 64) {
      value_[w + 1] |= value >> (64 - off);
      x_[w + 1] |= x >> (64 - off);
    }
    size_ += n;
  }

  /// Appends a fully specified codeword, most significant bit of `bits`
  /// transmitted (appended) first. `len` <= 32.
  void append_bits_msb(std::uint32_t bits, unsigned len);

  /// Appends `n` copies of `t`, whole words at a time.
  void append_run(std::size_t n, Trit t);

  /// Appends src[begin, begin+len) -- the word-parallel payload copy.
  /// `begin + len` must be <= src.size(). Inline: one call per payload
  /// half/block on the encoder and decoder hot paths.
  void append_range(const Bitplanes& src, std::size_t begin,
                    std::size_t len) {
    std::size_t pos = begin;
    std::size_t left = len;
    while (left > 0) {
      const unsigned take =
          static_cast<unsigned>(std::min<std::size_t>(left, 64));
      append_word(src.value_bits(pos, take), src.x_bits(pos, take), take);
      pos += take;
      left -= take;
    }
  }

  /// Pre-sizes the backing planes for `n` total trits.
  void reserve(std::size_t n) {
    value_.reserve((n + 63) / 64);
    x_.reserve((n + 63) / 64);
  }

 private:
  static constexpr std::uint64_t low_mask(unsigned n) noexcept {
    return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  }
  std::uint64_t plane_bits(const std::vector<std::uint64_t>& plane,
                           std::size_t begin,
                           std::size_t len) const noexcept {
    if (len == 0) return 0;
    const std::size_t w = begin >> 6;
    const unsigned off = begin & 63;
    std::uint64_t bits = plane[w] >> off;
    // off + len > 64 implies off > 0 (len <= 64), so the shift is in range.
    if (off + len > 64) bits |= plane[w + 1] << (64 - off);
    return bits & low_mask(static_cast<unsigned>(len));
  }
  void ensure(std::size_t total_bits) {
    const std::size_t need = (total_bits + 63) / 64;
    if (value_.size() < need) {
      value_.resize(need, 0);
      x_.resize(need, 0);
    }
  }

  std::vector<std::uint64_t> value_;
  std::vector<std::uint64_t> x_;
  std::size_t size_ = 0;
};

/// Sequential cursor over a Bitplanes stream, mirroring TritReader's
/// contract exactly: the same StreamOverrun/InvalidSymbol exceptions with
/// the same offsets, so the two decoder implementations raise identical
/// typed errors on identical corrupt inputs.
class BitplaneReader {
 public:
  explicit BitplaneReader(const Bitplanes& p) noexcept
      : p_(&p), pos_(0), end_(p.size()) {}

  bool done() const noexcept { return pos_ >= end_; }
  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return end_ - pos_; }

  /// Reads one symbol that must be 0 or 1 (a codeword bit).
  bool next_bit() {
    if (pos_ >= end_) throw StreamOverrun(pos_, 1, 0);
    const std::size_t i = pos_++;
    if (p_->x_bit(i)) throw InvalidSymbol(i);
    return p_->value_bit(i);
  }

  /// The next `n` (<= 64, <= remaining()) symbols as plane words, bit j
  /// being symbol position()+j; consumes nothing. The decoder's codeword
  /// lookup reads its window here.
  std::uint64_t peek_values(std::size_t n) const noexcept {
    return p_->value_bits(pos_, n);
  }
  std::uint64_t peek_xs(std::size_t n) const noexcept {
    return p_->x_bits(pos_, n);
  }

  /// Consumes `n` (<= remaining()) symbols already inspected with peek_*.
  void skip(std::size_t n) noexcept { pos_ += n; }

  /// Consumes `n` symbols (X allowed) by appending them to `out` -- the
  /// decoder's word-parallel payload copy.
  void copy_to(Bitplanes& out, std::size_t n) {
    if (remaining() < n) throw StreamOverrun(pos_, n, remaining());
    out.append_range(*p_, pos_, n);
    pos_ += n;
  }

 private:
  const Bitplanes* p_;
  std::size_t pos_;
  std::size_t end_;
};

}  // namespace nc::bits
