// Two-level logic minimization (Quine-McCluskey) -- the substrate behind
// the paper's "FSM synthesized to a handful of gates" claim. Alphabet sizes
// here are tiny (the decoder FSM has 6 inputs, a code FSM at most 12), so
// exact prime-implicant generation plus a greedy cover is both exact
// enough and instant. Both run on truth tables of 2^n bits: one table per
// set of free variables marks the implicants, and the cover counts
// uncovered ON minterms with popcounts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nc::synth {

/// A product term over n variables: variable i is present iff mask bit i is
/// set; its polarity is value bit i (1 = positive literal).
struct Cube {
  std::uint32_t value = 0;
  std::uint32_t mask = 0;

  bool covers(std::uint32_t minterm) const noexcept {
    return (minterm & mask) == (value & mask);
  }
  unsigned literal_count() const noexcept;
  /// "ab'd" style rendering with variables named x0..x{n-1}.
  std::string to_string(unsigned n) const;
  bool operator==(const Cube&) const = default;
};

/// Minimizes a single-output function given its ON-set and DC-set minterms
/// (everything else is the OFF-set). Returns a prime-implicant cover of the
/// ON-set (possibly empty for a constant-0 function): the essential primes,
/// then greedily the prime covering the most uncovered ON minterms, ties to
/// fewer literals, then to the earlier prime (primes ordered by free
/// variable count, then (value, mask)).
/// `n` <= 12: the implicant tables take 4^n / 8 bytes, 2 MB at n = 12.
/// Throws std::invalid_argument if n > 12, or if ON and DC sets overlap or
/// exceed 2^n.
std::vector<Cube> minimize(unsigned n, const std::vector<std::uint32_t>& ones,
                           const std::vector<std::uint32_t>& dontcares = {});

/// Sum-of-products cost of a cover: two-input-gate equivalents, counting
/// (literals-1) per AND term, (terms-1) for the OR, and one inverter per
/// distinct complemented variable.
struct SopCost {
  std::size_t and_gates = 0;   // 2-input AND equivalents
  std::size_t or_gates = 0;    // 2-input OR equivalents
  std::size_t inverters = 0;
  std::size_t literals = 0;

  std::size_t gate_equivalents() const noexcept {
    return and_gates + or_gates + inverters;
  }
};
SopCost sop_cost(const std::vector<Cube>& cover);

/// True if `cover` equals the function defined by (ones, dontcares) on every
/// non-DC minterm -- the exactness check used by the property tests.
bool cover_matches(unsigned n, const std::vector<Cube>& cover,
                   const std::vector<std::uint32_t>& ones,
                   const std::vector<std::uint32_t>& dontcares = {});

}  // namespace nc::synth
