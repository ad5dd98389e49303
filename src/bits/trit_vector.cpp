#include "bits/trit_vector.h"

#include <algorithm>
#include <bit>

namespace nc::bits {

TritVector TritVector::from_string(std::string_view s) {
  TritVector v;
  v.resize(s.size(), Trit::Zero);
  for (std::size_t i = 0; i < s.size(); ++i) v.set(i, trit_from_char(s[i]));
  return v;
}

void TritVector::append_run(std::size_t n, Trit t) {
  if (n == 0) return;
  // New words arrive zeroed and the old tail is zero, so only non-Zero
  // fills need bits OR-ed in; the fill patterns repeat with period 2 bits,
  // matching any even (trit-aligned) offset.
  words_.resize((size_ + n + 31) / 32, 0);
  std::size_t pos = size_ * 2;
  const std::size_t end_bit = (size_ + n) * 2;
  size_ += n;
  if (t == Trit::Zero) return;
  const Word pattern =
      t == Trit::One ? 0x5555555555555555ull : 0xAAAAAAAAAAAAAAAAull;
  while (pos < end_bit) {
    const unsigned off = pos & 63;
    const std::size_t take = std::min<std::size_t>(end_bit - pos, 64 - off);
    const Word mask =
        (take == 64 ? ~Word{0} : (Word{1} << take) - 1) << off;
    words_[pos >> 6] |= pattern & mask;
    pos += take;
  }
}

void TritVector::resize(std::size_t n, Trit fill) {
  if (n >= size_) {
    append_run(n - size_, fill);
    return;
  }
  words_.resize((n + 31) / 32);
  size_ = n;
  if (n % 32 != 0) {
    // Zero the tail of the last word so equality can compare words directly.
    Word& w = words_.back();
    const unsigned used = static_cast<unsigned>((n & 31u) * 2);
    w &= (Word{1} << used) - 1;
  }
}

TritVector TritVector::slice(std::size_t begin, std::size_t len) const {
  TritVector out;
  if (begin < size_)
    out.append_range(*this, begin, std::min(len, size_ - begin));
  return out;
}

TritVector TritVector::from_packed(std::vector<std::uint64_t> words,
                                   std::size_t n) {
  TritVector v;
  v.words_ = std::move(words);
  v.words_.resize((n + 31) / 32, 0);
  v.size_ = n;
  if (n % 32 != 0)
    v.words_.back() &= (Word{1} << ((n & 31u) * 2)) - 1;
  return v;
}

std::size_t TritVector::care_count() const noexcept {
  // An X packs as 0b10; a trit is specified iff its high bit is clear.
  std::size_t cares = 0;
  constexpr Word kHighBits = 0xAAAAAAAAAAAAAAAAull;
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    Word highs = words_[wi] & kHighBits;
    cares += 32 - static_cast<std::size_t>(std::popcount(highs));
  }
  // Positions past size() in the last word were zeroed by resize(), so they
  // were counted as care; subtract them.
  const std::size_t slack = words_.size() * 32 - size_;
  return cares - slack;
}

double TritVector::x_fraction() const noexcept {
  return size_ == 0 ? 0.0 : static_cast<double>(x_count()) /
                                static_cast<double>(size_);
}

bool TritVector::compatible_with(const TritVector& other) const noexcept {
  if (size_ != other.size_) return false;
  for (std::size_t i = 0; i < size_; ++i)
    if (!compatible(get(i), other.get(i))) return false;
  return true;
}

bool TritVector::covered_by(const TritVector& other) const noexcept {
  if (size_ != other.size_) return false;
  for (std::size_t i = 0; i < size_; ++i) {
    const Trit mine = get(i);
    if (is_care(mine) && other.get(i) != mine) return false;
  }
  return true;
}

bool TritVector::operator==(const TritVector& other) const noexcept {
  return size_ == other.size_ && words_ == other.words_;
}

std::string TritVector::to_string() const {
  std::string s(size_, '?');
  for (std::size_t i = 0; i < size_; ++i) s[i] = to_char(get(i));
  return s;
}

}  // namespace nc::bits
