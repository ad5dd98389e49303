// X-fill strategies for the leftover don't-cares.
//
// The paper keeps mismatch-half X bits alive in TE so they can later be
// filled: randomly (to catch non-modeled defects) or power-aware (to cut
// scan-in transitions). This library implements both sides of that
// trade-off plus the weighted-transitions metric used to compare them.
#pragma once

#include <cstdint>

#include "bits/test_set.h"

namespace nc::power {

enum class FillStrategy {
  kRandom,         // independent fair coin per X
  kZero,           // all X -> 0
  kOne,            // all X -> 1
  kMinTransition,  // X adopts the previous scan cell's value (MT-fill)
};

const char* fill_strategy_name(FillStrategy s) noexcept;

/// Returns a fully specified copy of `cubes`. `seed` matters only for
/// kRandom, which makes one std::mt19937_64 draw per X in scan order and
/// uses its low bit. MT-fill scans each pattern left to right; leading X's
/// adopt the first care bit (or 0 in an all-X pattern).
/// Works on TritVector's packed words: 0- and 1-fill are one mask per word,
/// MT-fill finds each lane's nearest earlier care trit with doubling shifts
/// within a word and carries the last value across words.
/// tests/reference/fill_reference holds the per-trit specification.
bits::TestSet fill(const bits::TestSet& cubes, FillStrategy strategy,
                   std::uint64_t seed = 1);

}  // namespace nc::power
