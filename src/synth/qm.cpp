#include "synth/qm.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace nc::synth {

unsigned Cube::literal_count() const noexcept {
  return static_cast<unsigned>(std::popcount(mask));
}

std::string Cube::to_string(unsigned n) const {
  std::string s;
  for (unsigned i = 0; i < n; ++i) {
    if (!((mask >> i) & 1u)) continue;
    s += "x" + std::to_string(i);
    if (!((value >> i) & 1u)) s += "'";
  }
  return s.empty() ? "1" : s;
}

namespace {

using CubeKey = std::pair<std::uint32_t, std::uint32_t>;  // (value, mask)

/// Sorts and deduplicates `v` in place.
template <class T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

std::vector<Cube> minimize(unsigned n, const std::vector<std::uint32_t>& ones,
                           const std::vector<std::uint32_t>& dontcares) {
  if (n > 20) throw std::invalid_argument("too many variables for QM");
  const std::uint32_t limit = n == 32 ? ~0u : (1u << n);
  const std::uint32_t full_mask = n == 32 ? ~0u : (1u << n) - 1;

  std::vector<std::uint32_t> on = ones;
  std::vector<std::uint32_t> dc = dontcares;
  sort_unique(on);
  sort_unique(dc);
  for (std::uint32_t m : on) {
    if (m >= limit) throw std::invalid_argument("minterm out of range");
    if (std::binary_search(dc.begin(), dc.end(), m))
      throw std::invalid_argument("minterm is both ON and DC");
  }
  if (!dc.empty() && dc.back() >= limit)
    throw std::invalid_argument("minterm out of range");
  if (on.empty()) return {};

  // Iterative combining over one level of cubes at a time, kept sorted by
  // (value, mask). Every value bit outside its mask is 0, so two cubes merge
  // exactly when they share a mask and their values differ in one masked
  // bit: the cube with that bit clear finds its partner by one search for
  // (value | bit, mask), and the merged cube keeps its value.
  std::vector<CubeKey> current;
  current.reserve(on.size() + dc.size());
  for (std::uint32_t m : on) current.push_back({m, full_mask});
  for (std::uint32_t m : dc) current.push_back({m, full_mask});
  sort_unique(current);

  std::vector<Cube> primes;
  std::vector<CubeKey> next;
  std::vector<char> combined;
  while (!current.empty()) {
    next.clear();
    combined.assign(current.size(), 0);
    for (std::size_t i = 0; i < current.size(); ++i) {
      const auto [value, mask] = current[i];
      for (std::uint32_t free = mask & ~value; free != 0; free &= free - 1) {
        const std::uint32_t bit = free & (~free + 1);
        const auto partner = std::lower_bound(
            current.begin() + static_cast<std::ptrdiff_t>(i) + 1,
            current.end(), CubeKey{value | bit, mask});
        if (partner == current.end() || *partner != CubeKey{value | bit, mask})
          continue;
        next.push_back({value, mask & ~bit});
        combined[i] = 1;
        combined[static_cast<std::size_t>(partner - current.begin())] = 1;
      }
    }
    for (std::size_t i = 0; i < current.size(); ++i)
      if (!combined[i])
        primes.push_back(Cube{current[i].first, current[i].second});
    sort_unique(next);
    current.swap(next);
  }

  // Greedy cover of the ON-set by primes (essential primes fall out first
  // because they are the unique cover of some minterm).
  std::vector<std::uint32_t> uncovered(on.begin(), on.end());
  std::vector<Cube> cover;
  // Essential primes.
  for (std::uint32_t m : on) {
    const Cube* only = nullptr;
    for (const Cube& p : primes) {
      if (!p.covers(m)) continue;
      if (only != nullptr) { only = nullptr; break; }
      only = &p;
    }
    if (only != nullptr &&
        std::find(cover.begin(), cover.end(), *only) == cover.end())
      cover.push_back(*only);
  }
  auto erase_covered = [&] {
    uncovered.erase(std::remove_if(uncovered.begin(), uncovered.end(),
                                   [&](std::uint32_t m) {
                                     for (const Cube& c : cover)
                                       if (c.covers(m)) return true;
                                     return false;
                                   }),
                    uncovered.end());
  };
  erase_covered();
  while (!uncovered.empty()) {
    // Pick the prime covering the most uncovered minterms (ties: fewer
    // literals).
    const Cube* best = nullptr;
    std::size_t best_count = 0;
    for (const Cube& p : primes) {
      std::size_t cnt = 0;
      for (std::uint32_t m : uncovered) cnt += p.covers(m) ? 1 : 0;
      if (cnt > best_count ||
          (cnt == best_count && cnt > 0 && best != nullptr &&
           p.literal_count() < best->literal_count())) {
        best = &p;
        best_count = cnt;
      }
    }
    cover.push_back(*best);
    erase_covered();
  }
  return cover;
}

SopCost sop_cost(const std::vector<Cube>& cover) {
  SopCost cost;
  std::uint32_t complemented = 0;
  for (const Cube& c : cover) {
    const unsigned lits = c.literal_count();
    cost.literals += lits;
    if (lits > 1) cost.and_gates += lits - 1;
    complemented |= c.mask & ~c.value;
  }
  if (cover.size() > 1) cost.or_gates = cover.size() - 1;
  cost.inverters = static_cast<std::size_t>(std::popcount(complemented));
  return cost;
}

bool cover_matches(unsigned n, const std::vector<Cube>& cover,
                   const std::vector<std::uint32_t>& ones,
                   const std::vector<std::uint32_t>& dontcares) {
  const std::uint32_t limit = 1u << n;
  std::vector<std::uint32_t> on = ones;
  std::vector<std::uint32_t> dc = dontcares;
  sort_unique(on);
  sort_unique(dc);
  for (std::uint32_t m = 0; m < limit; ++m) {
    if (std::binary_search(dc.begin(), dc.end(), m)) continue;
    bool covered = false;
    for (const Cube& c : cover)
      if (c.covers(m)) { covered = true; break; }
    if (covered != std::binary_search(on.begin(), on.end(), m)) return false;
  }
  return true;
}

}  // namespace nc::synth
