// Packed vector of trits (2 bits per symbol) with stream-style append.
//
// TritVector is the universal carrier for test data in this library:
//  * the uncompressed stream TD (rows of a TestSet flattened in scan order),
//  * the compressed stream TE produced by the 9C encoder, which still
//    contains "leftover" X bits inside transmitted mismatch halves,
//  * decoder output, where surviving X positions are reported back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bits/trit.h"

namespace nc::bits {

/// Dynamically sized, densely packed sequence of trits.
class TritVector {
 public:
  TritVector() = default;

  /// Constructs `n` copies of `fill`.
  explicit TritVector(std::size_t n, Trit fill = Trit::X) { resize(n, fill); }

  /// Parses a string of '0'/'1'/'X' characters (whitespace not allowed).
  static TritVector from_string(std::string_view s);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  Trit get(std::size_t i) const noexcept {
    const std::uint8_t raw =
        static_cast<std::uint8_t>(words_[i >> kShift] >> shift_of(i)) & 0x3u;
    return static_cast<Trit>(raw);
  }

  void set(std::size_t i, Trit t) noexcept {
    Word& w = words_[i >> kShift];
    w &= ~(Word{0x3u} << shift_of(i));
    w |= static_cast<Word>(t) << shift_of(i);
  }

  Trit operator[](std::size_t i) const noexcept { return get(i); }

  /// Bounds-checked get: throws std::out_of_range instead of reading past
  /// the backing words (get() stays unchecked for hot loops).
  Trit at(std::size_t i) const {
    check_index(i);
    return get(i);
  }

  /// Bounds-checked set.
  void set_at(std::size_t i, Trit t) {
    check_index(i);
    set(i, t);
  }

  void push_back(Trit t) {
    resize(size_ + 1, Trit::Zero);
    set(size_ - 1, t);
  }

  /// Appends every trit of `other`; `other` may be *this.
  void append(const TritVector& other) { append_range(other, 0, other.size()); }

  /// Appends src[begin, begin+n), a word-parallel shifted copy of the packed
  /// words; `begin + n` must not exceed src.size(). `src` may be *this: the
  /// copied range lies below the old size(), where nothing is written.
  /// Inline: one call per payload on the 9C encoder and decoder hot paths.
  void append_range(const TritVector& src, std::size_t begin, std::size_t n) {
    if (n == 0) return;
    std::size_t from = begin * 2;  // bit offsets
    std::size_t to = size_ * 2;
    size_ += n;
    words_.resize((size_ + 31) / 32, 0);  // may move src.words_ too
    // 64 source bits at a time, the last chunk masked to the range, OR-ed
    // into the zero tail at any even offset.
    for (std::size_t left = n * 2; left > 0;) {
      const unsigned take = left < 64 ? static_cast<unsigned>(left) : 64;
      const std::size_t sw = from >> 6;
      const unsigned soff = from & 63;
      Word chunk = src.words_[sw] >> soff;
      if (soff + take > 64) chunk |= src.words_[sw + 1] << (64 - soff);
      if (take < 64) chunk &= (Word{1} << take) - 1;
      const std::size_t dw = to >> 6;
      const unsigned doff = to & 63;
      words_[dw] |= chunk << doff;
      if (doff + take > 64) words_[dw + 1] |= chunk >> (64 - doff);
      from += take;
      to += take;
      left -= take;
    }
  }

  /// The `n` (<= 32) trits from `begin` as 2-bit fields, trit begin+j at
  /// bits 2j (value) and 2j+1 (X); the bits past 2n are zero. `begin + n`
  /// must not exceed size().
  std::uint64_t packed_bits(std::size_t begin, unsigned n) const noexcept {
    if (n == 0) return 0;
    const std::size_t w = begin >> kShift;
    const unsigned off = shift_of(begin);
    Word bits = words_[w] >> off;
    // off + 2n > 64 implies off > 0, so the shift is in range.
    if (off + 2 * n > 64) bits |= words_[w + 1] << (64 - off);
    return n == 32 ? bits : bits & ((Word{1} << (2 * n)) - 1);
  }

  /// Appends `n` (<= 32) trits given as 2-bit fields in packed_bits() form;
  /// the bits of `bits` past 2n must be zero.
  void append_packed(std::uint64_t bits, unsigned n) {
    if (n == 0) return;
    const std::size_t w = size_ >> kShift;
    const unsigned off = shift_of(size_);
    size_ += n;
    words_.resize((size_ + 31) / 32, 0);
    words_[w] |= bits << off;
    if (off + 2 * n > 64) words_[w + 1] |= bits >> (64 - off);
  }

  /// Appends `n` copies of `t`, whole packed words at a time.
  void append_run(std::size_t n, Trit t);

  void resize(std::size_t n, Trit fill = Trit::X);
  /// Pre-sizes the backing words for `n` trits in all.
  void reserve(std::size_t n) { words_.reserve((n + 31) / 32); }
  void clear() noexcept {
    words_.clear();
    size_ = 0;
  }

  /// Returns the sub-vector [begin, begin+len). Clamps to size().
  TritVector slice(std::size_t begin, std::size_t len) const;

  /// Number of specified (non-X) symbols.
  std::size_t care_count() const noexcept;
  /// Number of X symbols.
  std::size_t x_count() const noexcept { return size_ - care_count(); }
  /// Fraction of X symbols in [0,1]; 0 for an empty vector.
  double x_fraction() const noexcept;

  /// True if every specified bit of `*this` equals the corresponding bit of
  /// `other` wherever *both* are specified, sizes equal.
  bool compatible_with(const TritVector& other) const noexcept;

  /// True if `other` specifies at least the care bits of `*this` with equal
  /// values (i.e. `other` is a legal fill/expansion of this cube).
  bool covered_by(const TritVector& other) const noexcept;

  bool operator==(const TritVector& other) const noexcept;

  std::string to_string() const;

  // --- packed words ---
  // The packed representation is part of the bits-layer contract: 2-bit
  // fields, 32 trits per 64-bit word, low bit = value, high bit = X, every
  // bit at position >= size() zero. The NCT1 serializer stores these words
  // as they are, and the 9C codec reads and writes them in place (masks
  // over the value and X lanes, packed_bits/append_packed/append_range).

  /// Number of backing 64-bit words (== ceil(size()/32)).
  std::size_t packed_word_count() const noexcept { return words_.size(); }

  /// The `wi`-th packed word, trit 32*wi at its low 2 bits.
  std::uint64_t packed_word(std::size_t wi) const noexcept {
    return words_[wi];
  }

  /// Adopts `words` as the packed representation of `n` trits. `words`
  /// must have exactly ceil(n/32) entries; bits past `n` are masked off so
  /// the canonical-tail invariant (and word-wise equality) holds.
  static TritVector from_packed(std::vector<std::uint64_t> words,
                                std::size_t n);

 private:
  void check_index(std::size_t i) const {
    if (i >= size_)
      throw std::out_of_range("TritVector index " + std::to_string(i) +
                              " out of range (size " + std::to_string(size_) +
                              ")");
  }

  using Word = std::uint64_t;
  static constexpr unsigned kShift = 5;  // 32 trits per 64-bit word
  static constexpr unsigned shift_of(std::size_t i) noexcept {
    return static_cast<unsigned>((i & 31u) * 2);
  }

  std::vector<Word> words_;
  std::size_t size_ = 0;
};

}  // namespace nc::bits
