#include "compact/xcode.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/hash.h"

namespace nc::compact {

namespace {

std::size_t mask_words(std::size_t rows) { return (rows + 63) / 64; }

/// True iff column `c` keeps at least one row outside `blocked`.
bool covered(const std::vector<std::uint64_t>& c,
             const std::vector<std::uint64_t>& blocked) {
  for (std::size_t w = 0; w < c.size(); ++w)
    if ((c[w] & ~blocked[w]) != 0) return true;
  return false;
}

void or_into(std::vector<std::uint64_t>& acc,
             const std::vector<std::uint64_t>& v) {
  for (std::size_t w = 0; w < v.size(); ++w) acc[w] |= v[w];
}

/// Enumerates every union of at most `budget` columns drawn from
/// `columns[start..)` (skipping index `skip`) on top of `blocked`; returns
/// false as soon as one such union covers all rows of `target`.
bool separable_rec(const std::vector<std::uint64_t>& target,
                   const std::vector<std::vector<std::uint64_t>>& columns,
                   std::vector<std::uint64_t>& blocked, std::size_t start,
                   std::size_t skip, unsigned budget) {
  if (!covered(target, blocked)) return false;
  if (budget == 0) return true;
  for (std::size_t i = start; i < columns.size(); ++i) {
    if (i == skip) continue;
    std::vector<std::uint64_t> next = blocked;
    or_into(next, columns[i]);
    if (!separable_rec(target, columns, next, i + 1, skip, budget - 1))
      return false;
  }
  return true;
}

}  // namespace

const char* to_string(XCodeKind kind) noexcept {
  switch (kind) {
    case XCodeKind::kIdentity: return "identity";
    case XCodeKind::kSteiner: return "steiner";
    case XCodeKind::kGreedy: return "greedy";
  }
  return "?";
}

XCode::XCode(XCodeKind kind, std::size_t rows,
             std::vector<std::vector<std::uint64_t>> columns,
             unsigned tolerance)
    : kind_(kind), rows_(rows), columns_(std::move(columns)),
      tolerance_(tolerance) {}

XCode XCode::identity(std::size_t n) {
  if (n == 0) throw std::invalid_argument("X-code needs at least one input");
  std::vector<std::vector<std::uint64_t>> cols(
      n, std::vector<std::uint64_t>(mask_words(n), 0));
  for (std::size_t c = 0; c < n; ++c) cols[c][c / 64] = 1ull << (c % 64);
  // No two columns share a row, so no amount of X on other lines can block
  // a column's single row: tolerance is bounded only by n itself.
  const unsigned t =
      n - 1 > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<unsigned>(n - 1);
  return XCode(XCodeKind::kIdentity, n, std::move(cols), t);
}

XCode XCode::steiner(std::size_t n, std::size_t m) {
  if (n == 0) throw std::invalid_argument("X-code needs at least one input");
  const std::size_t lo = m == 0 ? 3 : m;
  const std::size_t hi = m == 0 ? std::max<std::size_t>(3, 4 * n + 7) : m;
  for (std::size_t rows = lo; rows <= hi; ++rows) {
    // Lexicographic greedy packing of row triples: accept {a,b,c} when none
    // of its three row pairs appears in an accepted triple. Any two
    // accepted columns then intersect in at most one row.
    std::vector<char> pair_used(rows * rows, 0);
    std::vector<std::vector<std::uint64_t>> cols;
    cols.reserve(n);
    for (std::size_t a = 0; a + 2 < rows && cols.size() < n; ++a)
      for (std::size_t b = a + 1; b + 1 < rows && cols.size() < n; ++b) {
        if (pair_used[a * rows + b]) continue;
        for (std::size_t c = b + 1; c < rows && cols.size() < n; ++c) {
          if (pair_used[a * rows + c] || pair_used[b * rows + c]) continue;
          pair_used[a * rows + b] = pair_used[a * rows + c] =
              pair_used[b * rows + c] = 1;
          std::vector<std::uint64_t> col(mask_words(rows), 0);
          col[a / 64] |= 1ull << (a % 64);
          col[b / 64] |= 1ull << (b % 64);
          col[c / 64] |= 1ull << (c % 64);
          cols.push_back(std::move(col));
          break;  // the (a, b) pair is spent
        }
      }
    if (cols.size() == n)
      // Weight 3, pairwise intersection <= 1: two X columns erase at most
      // two of any column's three rows, so t = 2 holds by construction.
      return XCode(XCodeKind::kSteiner, rows, std::move(cols), 2);
  }
  throw std::invalid_argument(
      "steiner X-code: " + std::to_string(m) + " rows cannot host " +
      std::to_string(n) + " weight-3 columns (need ~m*(m-1)/6 >= n)");
}

XCode XCode::greedy(std::size_t n, std::size_t m, unsigned tolerance,
                    unsigned weight, std::uint64_t seed) {
  if (n == 0) throw std::invalid_argument("X-code needs at least one input");
  if (weight == 0 || weight > m)
    throw std::invalid_argument("greedy X-code: column weight must be 1..m");
  if (tolerance > 3)
    throw std::invalid_argument(
        "greedy X-code: exhaustive check supports tolerance <= 3");
  std::uint64_t rng = seed * 0x6C62272E07BB0141ull + 0x100000001B3ull;
  std::vector<std::vector<std::uint64_t>> cols;
  cols.reserve(n);
  const std::size_t words = mask_words(m);
  constexpr std::size_t kTriesPerColumn = 2000;
  while (cols.size() < n) {
    bool placed = false;
    for (std::size_t attempt = 0; attempt < kTriesPerColumn; ++attempt) {
      // Draw `weight` distinct rows.
      std::vector<std::uint64_t> col(words, 0);
      unsigned set = 0;
      while (set < weight) {
        const std::size_t r = core::splitmix64(rng) % m;
        const std::uint64_t bit = 1ull << (r % 64);
        if (col[r / 64] & bit) continue;
        col[r / 64] |= bit;
        ++set;
      }
      // Incremental (1, t)-separability: only sets involving the candidate
      // need checking, the rest held before. (i) the candidate against
      // every union of <= t accepted columns; (ii) every accepted column
      // against unions containing the candidate and <= t-1 others.
      std::vector<std::uint64_t> blocked(words, 0);
      if (!separable_rec(col, cols, blocked, 0, cols.size(), tolerance))
        continue;
      bool ok = true;
      if (tolerance > 0) {
        for (std::size_t c = 0; c < cols.size() && ok; ++c) {
          std::vector<std::uint64_t> base = col;  // candidate in the X set
          ok = separable_rec(cols[c], cols, base, 0, c, tolerance - 1);
        }
      }
      if (!ok) continue;
      cols.push_back(std::move(col));
      placed = true;
      break;
    }
    if (!placed)
      throw std::invalid_argument(
          "greedy X-code: search stuck at " + std::to_string(cols.size()) +
          "/" + std::to_string(n) + " columns (m=" + std::to_string(m) +
          ", t=" + std::to_string(tolerance) +
          ", w=" + std::to_string(weight) + "); grow m");
  }
  return XCode(XCodeKind::kGreedy, m, std::move(cols), tolerance);
}

XCode XCode::build(const XCodeSpec& spec) {
  switch (spec.kind) {
    case XCodeKind::kIdentity:
      if (spec.outputs != 0 && spec.outputs != spec.inputs)
        throw std::invalid_argument(
            "identity X-code: outputs must equal inputs");
      return identity(spec.inputs);
    case XCodeKind::kSteiner:
      return steiner(spec.inputs, spec.outputs);
    case XCodeKind::kGreedy: {
      if (spec.outputs != 0)
        return greedy(spec.inputs, spec.outputs, spec.tolerance, spec.weight,
                      spec.seed);
      // Auto-size: start near the smallest plausible m and widen until the
      // verified search completes. m may exceed n -- for tiny n with
      // weight > 1 it must (three weight-3 columns cannot share 3 rows);
      // more rows only ever make separability easier. The cap turns a
      // genuinely impossible spec into the search's error instead of an
      // endless loop.
      std::size_t m =
          std::max<std::size_t>({spec.weight, spec.tolerance + 1, 8});
      const std::size_t cap = 64 * spec.inputs + 256;
      for (;; m += m / 2 + 1) {
        try {
          return greedy(spec.inputs, std::min(m, cap), spec.tolerance,
                        spec.weight, spec.seed);
        } catch (const std::invalid_argument&) {
          if (m >= cap) throw;
        }
      }
    }
  }
  throw std::invalid_argument("unknown X-code kind");
}

unsigned XCode::column_weight(std::size_t c) const {
  unsigned count = 0;
  for (std::uint64_t w : columns_.at(c))
    count += static_cast<unsigned>(__builtin_popcountll(w));
  return count;
}

bool XCode::bit(std::size_t row, std::size_t col) const {
  if (row >= rows_) throw std::out_of_range("X-code row out of range");
  return (columns_.at(col)[row / 64] >> (row % 64)) & 1ull;
}

std::vector<std::size_t> XCode::row_columns(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("X-code row out of range");
  std::vector<std::size_t> cols;
  for (std::size_t c = 0; c < columns_.size(); ++c)
    if ((columns_[c][r / 64] >> (r % 64)) & 1ull) cols.push_back(c);
  return cols;
}

bool XCode::verify_tolerance(const XCode& code, unsigned x) {
  const std::size_t words = mask_words(code.rows_);
  for (std::size_t c = 0; c < code.columns_.size(); ++c) {
    std::vector<std::uint64_t> blocked(words, 0);
    if (!separable_rec(code.columns_[c], code.columns_, blocked, 0, c, x))
      return false;
  }
  return true;
}

unsigned XCode::max_tolerance(const XCode& code, unsigned limit) {
  unsigned best = 0;
  for (unsigned x = 1; x <= limit; ++x) {
    if (!verify_tolerance(code, x)) break;
    best = x;
  }
  return best;
}

std::string XCode::describe() const {
  std::ostringstream out;
  out << to_string(kind_) << " " << outputs() << "x" << inputs()
      << " t=" << tolerance_;
  return out.str();
}

}  // namespace nc::compact
