#include "reference/fill_reference.h"

#include <random>

namespace nc::power {

using bits::TestSet;
using bits::Trit;

TestSet reference_fill(const TestSet& cubes, FillStrategy strategy,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  TestSet out = cubes;
  for (std::size_t p = 0; p < out.pattern_count(); ++p) {
    // MT-fill: leading X's adopt the first care bit.
    Trit last = Trit::Zero;
    if (strategy == FillStrategy::kMinTransition) {
      for (std::size_t c = 0; c < out.pattern_length(); ++c)
        if (bits::is_care(out.at(p, c))) {
          last = out.at(p, c);
          break;
        }
    }
    for (std::size_t c = 0; c < out.pattern_length(); ++c) {
      const Trit t = out.at(p, c);
      if (bits::is_care(t)) {
        last = t;
        continue;
      }
      switch (strategy) {
        case FillStrategy::kRandom:
          out.set(p, c, bits::trit_from_bit(rng() & 1u));
          break;
        case FillStrategy::kZero:
          out.set(p, c, Trit::Zero);
          break;
        case FillStrategy::kOne:
          out.set(p, c, Trit::One);
          break;
        case FillStrategy::kMinTransition:
          out.set(p, c, last);
          break;
      }
    }
  }
  return out;
}

}  // namespace nc::power
