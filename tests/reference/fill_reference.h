// The per-trit X-fill: the executable specification that power::fill, which
// works on TritVector's packed words, is held to (fill_diff_fuzz_test). It
// reads and writes one trit at a time through TestSet::at / set and fills
// no test set outside the tests.
#pragma once

#include <cstdint>

#include "bits/test_set.h"
#include "power/fill.h"

namespace nc::power {

/// fill, one trit at a time: the same test set for every strategy and
/// seed, random draws in the same order.
bits::TestSet reference_fill(const bits::TestSet& cubes,
                             FillStrategy strategy, std::uint64_t seed = 1);

}  // namespace nc::power
