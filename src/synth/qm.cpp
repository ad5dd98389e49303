#include "synth/qm.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <tuple>

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

using Word = std::uint64_t;

/// Within one table word, the positions whose bit b (b < 6) is clear.
constexpr Word kBitClear[6] = {
    0x5555555555555555ull, 0x3333333333333333ull, 0x0F0F0F0F0F0F0F0Full,
    0x00FF00FF00FF00FFull, 0x0000FFFF0000FFFFull, 0x00000000FFFFFFFFull};

/// A truth table of 2^n bits: minterm x is bit x % 64 of word x / 64.
class Table {
 public:
  explicit Table(unsigned n) : words_(n <= 6 ? 1 : std::size_t{1} << (n - 6)) {}

  std::size_t words() const noexcept { return words_.size(); }
  Word& operator[](std::size_t w) noexcept { return words_[w]; }
  Word operator[](std::size_t w) const noexcept { return words_[w]; }

  void set(std::uint32_t x) noexcept { words_[x >> 6] |= Word{1} << (x & 63); }
  bool empty() const noexcept {
    return std::all_of(words_.begin(), words_.end(),
                       [](Word w) { return w == 0; });
  }

 private:
  std::vector<Word> words_;
};

/// A prime cube with the table positions of its minterms: the bits of
/// `lane` in every word base | s, s ranging over the subsets of `high`
/// (its free variables from 6 up, as word-index bits).
struct Prime {
  Cube cube;
  unsigned free_count = 0;
  Word lane = 0;
  std::uint32_t base = 0;
  std::uint32_t high = 0;

  Prime(std::uint32_t value, std::uint32_t free_vars, std::uint32_t full_mask)
      : cube{value, full_mask & ~free_vars},
        free_count(static_cast<unsigned>(std::popcount(free_vars))),
        lane(Word{1} << (value & 63)),
        base(value >> 6),
        high(free_vars >> 6) {
    for (std::uint32_t low = free_vars & 63; low != 0; low &= low - 1)
      lane |= lane << (1u << std::countr_zero(low));
  }

  /// Calls fn(word index) for each table word holding a minterm.
  template <class Fn>
  void for_each_word(Fn fn) const {
    std::uint32_t s = 0;
    do {
      fn(base | s);
      s = (s - high) & high;
    } while (s != 0);
  }
};

/// Fills `table` from a minterm list; returns false if one is >= limit.
bool load_minterms(const std::vector<std::uint32_t>& minterms,
                   std::uint32_t limit, Table& table) {
  bool in_range = true;
  for (std::uint32_t m : minterms) {
    if (m >= limit)
      in_range = false;
    else
      table.set(m);
  }
  return in_range;
}

/// Every prime implicant of the function with ON-set `on` and DC-set `dc`,
/// ordered by free-variable count, then (value, mask).
std::vector<Prime> prime_implicants(unsigned n, const Table& on,
                                    const Table& dc) {
  // imp[F] has bit x set iff the bits of F are clear in x and every
  // minterm of the cube (x, F) -- x with the variables of F free -- is ON
  // or DC. All 2^n levels are kept: 4^n / 8 bytes, 2 MB at n = 12.
  const std::size_t words = on.words();
  const std::uint32_t subsets = 1u << n;
  std::vector<Word> imp(std::size_t{subsets} * words, 0);
  std::vector<char> live(subsets, 0);
  for (std::size_t w = 0; w < words; ++w) imp[w] = on[w] | dc[w];
  live[0] = 1;
  for (std::uint32_t f = 1; f < subsets; ++f) {
    // (x, F) is an implicant iff (x, G) and (x | bit b, G) are, for
    // G = F without its lowest variable b.
    const std::uint32_t g = f & (f - 1);
    if (!live[g]) continue;
    const unsigned b = static_cast<unsigned>(std::countr_zero(f));
    const Word* src = &imp[g * words];
    Word* dst = &imp[f * words];
    Word any = 0;
    if (b < 6) {
      const unsigned shift = 1u << b;
      for (std::size_t w = 0; w < words; ++w) {
        dst[w] = src[w] & (src[w] >> shift) & kBitClear[b];
        any |= dst[w];
      }
    } else {
      const std::size_t d = std::size_t{1} << (b - 6);
      for (std::size_t w = 0; w < words; ++w) {
        if (w & d) continue;
        dst[w] = src[w] & src[w | d];
        any |= dst[w];
      }
    }
    live[f] = any != 0;
  }

  // (x, F) is prime iff no imp[F + b] holds x with bit b cleared: mark
  // both halves of every implicant one level up, keep what stays unmarked.
  const std::uint32_t full_mask = subsets - 1;
  std::vector<Prime> primes;
  std::vector<Word> merged(words);
  for (std::uint32_t f = 0; f < subsets; ++f) {
    if (!live[f]) continue;
    std::fill(merged.begin(), merged.end(), 0);
    for (std::uint32_t out = full_mask & ~f; out != 0; out &= out - 1) {
      const std::uint32_t up = f | (out & (~out + 1));
      if (!live[up]) continue;
      const unsigned b = static_cast<unsigned>(std::countr_zero(out));
      const Word* src = &imp[up * words];
      if (b < 6) {
        for (std::size_t w = 0; w < words; ++w)
          merged[w] |= src[w] | (src[w] << (1u << b));
      } else {
        const std::size_t d = std::size_t{1} << (b - 6);
        for (std::size_t w = 0; w < words; ++w)
          if (!(w & d)) {
            merged[w] |= src[w];
            merged[w | d] |= src[w];
          }
      }
    }
    const Word* level = &imp[f * words];
    for (std::size_t w = 0; w < words; ++w)
      for (Word bits = level[w] & ~merged[w]; bits != 0; bits &= bits - 1)
        primes.emplace_back(
            static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)), f,
            full_mask);
  }
  std::sort(primes.begin(), primes.end(), [](const Prime& a, const Prime& b) {
    return std::tie(a.free_count, a.cube.value, a.cube.mask) <
           std::tie(b.free_count, b.cube.value, b.cube.mask);
  });
  return primes;
}

}  // namespace

std::vector<Cube> minimize(unsigned n, const std::vector<std::uint32_t>& ones,
                           const std::vector<std::uint32_t>& dontcares) {
  if (n > 12) throw std::invalid_argument("too many variables for QM");
  const std::uint32_t limit = 1u << n;

  // The checks of a sorted scan of the ON-set: an in-range ON minterm
  // that is also DC sorts before any out-of-range one, so overlap is
  // reported first; then any out-of-range ON or DC minterm.
  Table on(n), dc(n);
  const bool ones_in_range = load_minterms(ones, limit, on);
  const bool dontcares_in_range = load_minterms(dontcares, limit, dc);
  for (std::size_t w = 0; w < on.words(); ++w)
    if (on[w] & dc[w])
      throw std::invalid_argument("minterm is both ON and DC");
  if (!ones_in_range || !dontcares_in_range)
    throw std::invalid_argument("minterm out of range");
  if (on.empty()) return {};

  const std::vector<Prime> primes = prime_implicants(n, on, dc);

  // Essential primes, in the order of the first ON minterm each one alone
  // covers.
  Table once(n), twice(n);
  for (const Prime& p : primes)
    p.for_each_word([&](std::uint32_t w) {
      twice[w] |= once[w] & p.lane;
      once[w] |= p.lane;
    });
  std::vector<std::pair<std::uint32_t, std::size_t>> essential;
  for (std::size_t i = 0; i < primes.size(); ++i) {
    std::uint32_t first = limit;
    primes[i].for_each_word([&](std::uint32_t w) {
      const Word alone = primes[i].lane & on[w] & once[w] & ~twice[w];
      if (alone != 0)
        first = std::min(first, w * 64 + static_cast<std::uint32_t>(
                                             std::countr_zero(alone)));
    });
    if (first != limit) essential.emplace_back(first, i);
  }
  std::sort(essential.begin(), essential.end());

  std::vector<Cube> cover;
  Table& uncovered = on;
  auto take = [&](const Prime& p) {
    cover.push_back(p.cube);
    p.for_each_word([&](std::uint32_t w) { uncovered[w] &= ~p.lane; });
  };
  for (const auto& [first, i] : essential) take(primes[i]);

  // Greedy: the prime covering the most uncovered ON minterms; ties go to
  // fewer literals, then to the earlier prime.
  while (!uncovered.empty()) {
    const Prime* best = nullptr;
    int best_count = 0;
    for (const Prime& p : primes) {
      int count = 0;
      p.for_each_word([&](std::uint32_t w) {
        count += std::popcount(uncovered[w] & p.lane);
      });
      if (count > best_count ||
          (count == best_count && count > 0 &&
           p.free_count > best->free_count)) {
        best = &p;
        best_count = count;
      }
    }
    take(*best);
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
  std::sort(on.begin(), on.end());
  std::sort(dc.begin(), dc.end());
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
