#include "power/fill.h"

#include <algorithm>
#include <bit>
#include <random>
#include <vector>

namespace nc::power {

using bits::TestSet;

namespace {

using Word = std::uint64_t;

// Packed trits: 32 per word, value at bit 2j, X at bit 2j+1 (an X has value
// bit 0); bits past the last trit are zero.
constexpr Word kValueLanes = 0x5555555555555555ull;

/// The value lanes of trits [lo, hi) of one word, 0 <= lo < hi <= 32.
constexpr Word lane_range(unsigned lo, unsigned hi) noexcept {
  const Word upto = hi == 32 ? kValueLanes
                             : kValueLanes & ((Word{1} << (2 * hi)) - 1);
  return upto & ~((Word{1} << (2 * lo)) - 1);
}

/// Calls fn(word index, value lanes) for each word holding trits of
/// [begin, end), the lanes restricted to that range.
template <class Fn>
void for_each_word(std::size_t begin, std::size_t end, Fn fn) {
  while (begin < end) {
    const std::size_t w = begin / 32;
    const unsigned lo = static_cast<unsigned>(begin % 32);
    const unsigned hi =
        static_cast<unsigned>(std::min<std::size_t>(32, lo + (end - begin)));
    if (!fn(w, lane_range(lo, hi))) return;
    begin += hi - lo;
  }
}

/// MT-fill of trits [begin, end): each X takes the value of the nearest
/// care trit before it, leading X's the first care value (0 if none).
void fill_min_transition(std::vector<Word>& words, std::size_t begin,
                         std::size_t end) {
  Word carry = 0;  // all value lanes set when the running value is 1
  for_each_word(begin, end, [&](std::size_t w, Word lanes) {
    const Word care = ~(words[w] >> 1) & lanes;
    if (care == 0) return true;
    carry = (words[w] >> std::countr_zero(care)) & 1u ? kValueLanes : 0;
    return false;
  });
  for_each_word(begin, end, [&](std::size_t w, Word lanes) {
    // Doubling shifts of 1, 2, 4, 8 and 16 lanes (two bits each): after
    // the shift of s lanes, a lane knows the nearest care value at most
    // 2s - 1 lanes before it in this word; lanes with none take the carry.
    Word known = ~(words[w] >> 1) & lanes;
    Word value = words[w] & known;
    for (unsigned bits = 2; bits <= 32; bits *= 2) {
      value |= (value << bits) & ~known;
      known |= known << bits;
    }
    value = (value | (carry & ~known)) & lanes;
    words[w] = (words[w] & ~(lanes | lanes << 1)) | value;
    carry = (value >> (63 - std::countl_zero(lanes))) & 1u ? kValueLanes : 0;
    return true;
  });
}

}  // namespace

const char* fill_strategy_name(FillStrategy s) noexcept {
  switch (s) {
    case FillStrategy::kRandom: return "random";
    case FillStrategy::kZero: return "0-fill";
    case FillStrategy::kOne: return "1-fill";
    case FillStrategy::kMinTransition: return "MT-fill";
  }
  return "?";
}

TestSet fill(const TestSet& cubes, FillStrategy strategy, std::uint64_t seed) {
  const bits::TritVector& in = cubes.flatten();
  std::vector<Word> words(in.packed_word_count());
  for (std::size_t w = 0; w < words.size(); ++w) words[w] = in.packed_word(w);

  switch (strategy) {
    case FillStrategy::kZero:
      for (Word& w : words) w &= kValueLanes;
      break;
    case FillStrategy::kOne:
      for (Word& w : words) w = (w & kValueLanes) | ((w >> 1) & kValueLanes);
      break;
    case FillStrategy::kRandom: {
      // One draw per X in scan order; its low bit is the value.
      std::mt19937_64 rng(seed);
      for (Word& w : words) {
        Word out = w & kValueLanes;
        for (Word x = (w >> 1) & kValueLanes; x != 0; x &= x - 1)
          out |= (rng() & 1u) << std::countr_zero(x);
        w = out;
      }
      break;
    }
    case FillStrategy::kMinTransition: {
      const std::size_t width = cubes.pattern_length();
      for (std::size_t p = 0; p < cubes.pattern_count(); ++p)
        fill_min_transition(words, p * width, (p + 1) * width);
      break;
    }
  }
  return TestSet::unflatten(
      bits::TritVector::from_packed(std::move(words), in.size()),
      cubes.pattern_count(), cubes.pattern_length());
}

}  // namespace nc::power
