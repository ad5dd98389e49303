// Classification of a K-bit block into one of the nine 9C cases (Table I).
//
// A block splits into a left and a right K/2-bit half. Each half is:
//  * 0-compatible  -- contains no specified 1 (so it can be emitted as 0...0)
//  * 1-compatible  -- contains no specified 0
//  * a mismatch    -- contains both a 0 and a 1 and must travel verbatim
// The nine combinations (Table I rows) and their payloads:
//
//   C1  left 0, right 0        no payload
//   C2  left 1, right 1        no payload
//   C3  left 0, right 1        no payload
//   C4  left 1, right 0        no payload
//   C5  left 0, right mismatch K/2-trit payload (right half)
//   C6  left mismatch, right 0 K/2-trit payload (left half)
//   C7  left 1, right mismatch K/2-trit payload (right half)
//   C8  left mismatch, right 1 K/2-trit payload (left half)
//   C9  both mismatch          K-trit payload (whole block)
#pragma once

#include <array>
#include <cstddef>

namespace nc::codec {

/// The nine block cases. Values are 0-based (kC1 == 0 ... kC9 == 8) so they
/// index directly into codeword tables and N_i statistics arrays.
enum class BlockClass : unsigned char {
  kC1 = 0,
  kC2,
  kC3,
  kC4,
  kC5,
  kC6,
  kC7,
  kC8,
  kC9,
};

inline constexpr std::size_t kNumClasses = 9;

/// 1-based case number as printed in the paper's tables.
constexpr unsigned case_number(BlockClass c) noexcept {
  return static_cast<unsigned>(c) + 1;
}

/// How a half behaves with respect to uniform fills.
struct HalfKind {
  bool zero_compatible = true;  // no specified 1 present
  bool one_compatible = true;   // no specified 0 present
  bool mismatch() const noexcept { return !zero_compatible && !one_compatible; }
};

/// One full scan of a half (NineCoded::scan_half): its kind plus its X
/// population. The encoder scans each half exactly once and reuses the
/// result for the class decision, the N_i statistics and the filled-X
/// accounting.
struct HalfScan {
  HalfKind kind;
  std::size_t x_count = 0;
};

/// Combines two half kinds into the block case. When several cases apply
/// (halves of all-X are both 0- and 1-compatible) the cheapest case wins;
/// ties between equal-cost cases resolve to the lower case number, making
/// the encoder deterministic. Cheapest-first: uniform pairs (codeword
/// only), then one mismatch half (codeword + K/2 payload), then full
/// mismatch (codeword + K payload). Inline: one call per encoded block.
inline BlockClass classify_halves(const HalfKind& left,
                                  const HalfKind& right) noexcept {
  if (left.zero_compatible && right.zero_compatible) return BlockClass::kC1;
  if (left.one_compatible && right.one_compatible) return BlockClass::kC2;
  if (left.zero_compatible && right.one_compatible) return BlockClass::kC3;
  if (left.one_compatible && right.zero_compatible) return BlockClass::kC4;
  if (left.zero_compatible && right.mismatch()) return BlockClass::kC5;
  if (left.mismatch() && right.zero_compatible) return BlockClass::kC6;
  if (left.one_compatible && right.mismatch()) return BlockClass::kC7;
  if (left.mismatch() && right.one_compatible) return BlockClass::kC8;
  return BlockClass::kC9;
}

/// Payload length in trits that case `c` appends after its codeword, for a
/// K-trit block whose left half is `split` trits (right half is K - split).
/// C5/C7 transmit the right half, C6/C8 the left, C9 the whole block.
constexpr std::size_t payload_trits(BlockClass c, std::size_t k,
                                    std::size_t split) noexcept {
  switch (c) {
    case BlockClass::kC5:
    case BlockClass::kC7:
      return k - split;
    case BlockClass::kC6:
    case BlockClass::kC8:
      return split;
    case BlockClass::kC9:
      return k;
    default:
      return 0;
  }
}

/// The paper's symmetric split (K/2 | K/2).
constexpr std::size_t payload_trits(BlockClass c, std::size_t k) noexcept {
  return payload_trits(c, k, k / 2);
}

/// The decoder's half plans (the paper's 2-bit MUX select): what drives the
/// scan chain during one half of a block.
inline constexpr unsigned kPlanFill0 = 0;  // constant 0
inline constexpr unsigned kPlanFill1 = 1;  // constant 1
inline constexpr unsigned kPlanData = 2;   // the payload, streamed from TE

/// The (left, right) half plans of class `c`: C1 fills 0|0, C5 fills the
/// left half with 0s and streams the right, C9 streams both halves.
constexpr std::array<unsigned, 2> half_plans(BlockClass c) noexcept {
  switch (c) {
    case BlockClass::kC1: return {kPlanFill0, kPlanFill0};
    case BlockClass::kC2: return {kPlanFill1, kPlanFill1};
    case BlockClass::kC3: return {kPlanFill0, kPlanFill1};
    case BlockClass::kC4: return {kPlanFill1, kPlanFill0};
    case BlockClass::kC5: return {kPlanFill0, kPlanData};
    case BlockClass::kC6: return {kPlanData, kPlanFill0};
    case BlockClass::kC7: return {kPlanFill1, kPlanData};
    case BlockClass::kC8: return {kPlanData, kPlanFill1};
    case BlockClass::kC9: break;
  }
  return {kPlanData, kPlanData};
}

/// For the no-payload cases, the two uniform fill bits (left, right) the
/// decoder must expand: e.g. C3 -> {0,1}. Only valid for C1..C4.
constexpr std::array<bool, 2> uniform_fill(BlockClass c) noexcept {
  switch (c) {
    case BlockClass::kC1: return {false, false};
    case BlockClass::kC2: return {true, true};
    case BlockClass::kC3: return {false, true};
    default: return {true, false};  // kC4
  }
}

/// For C5..C8: value of the uniform half (false=0s, true=1s) and whether the
/// mismatch (transmitted) half is the left one.
struct MixedShape {
  bool uniform_value;
  bool mismatch_is_left;
};
constexpr MixedShape mixed_shape(BlockClass c) noexcept {
  switch (c) {
    case BlockClass::kC5: return {false, false};  // left 0s, right verbatim
    case BlockClass::kC6: return {false, true};   // left verbatim, right 0s
    case BlockClass::kC7: return {true, false};   // left 1s, right verbatim
    default: return {true, true};                 // kC8: left verbatim, right 1s
  }
}

}  // namespace nc::codec
