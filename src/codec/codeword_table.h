// The nine prefix-free codewords of the 9C code, plus the machinery for the
// paper's frequency-directed re-assignment (Table VII).
//
// The paper fixes the codeword *lengths* as |C1|=1, |C2|=2, |C3..C8|=5,
// |C9|=4 (Kraft sum exactly 1, maximum length 5 -- the FSM needs at most
// five ATE cycles per codeword). The concrete bit patterns are generated
// canonically from the lengths so that re-assigning lengths to classes
// (frequency-directed coding) reuses the identical encoder, decoder and
// hardware model.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "bits/bitstream.h"
#include "codec/block_class.h"

namespace nc::codec {

/// Why a codeword-length set cannot form a prefix code.
enum class CodeSpecFault : unsigned char {
  kLengthOutOfRange,  // a length is 0 or > 31
  kKraftViolation,    // sum 2^-len > 1: no prefix-free assignment exists
};

/// Typed rejection of an invalid code specification. Derives from
/// std::invalid_argument so callers that funnel construction failures into a
/// generic bad-input path (serve's make_coder -> kBadPayload) keep working,
/// while the tuner can read the fault kind to count, not crash on, the
/// invalid genomes its mutations constantly produce.
class CodeSpecError : public std::invalid_argument {
 public:
  CodeSpecError(CodeSpecFault fault, std::string what)
      : std::invalid_argument(std::move(what)), fault_(fault) {}
  CodeSpecFault fault() const noexcept { return fault_; }

 private:
  CodeSpecFault fault_;
};

/// One codeword: `length` bits of `bits`, most significant bit first
/// (bit length-1 is transmitted first).
struct Codeword {
  std::uint32_t bits = 0;
  unsigned length = 0;

  std::string to_string() const;
  /// The codeword as TritVector 2-bit fields (bits::TritVector::packed_bits)
  /// in transmit order: the first transmitted bit is trit 0.
  std::uint64_t packed() const noexcept;
  bool operator==(const Codeword&) const = default;
};

/// Maps each BlockClass to its codeword. Always prefix-free by construction.
class CodewordTable {
 public:
  /// The paper's default assignment: lengths {1,2,5,5,5,5,5,5,4} for
  /// C1..C9 with canonical patterns (C1=0, C2=10, C9=1100, C3..C8=11010..).
  static CodewordTable standard();

  /// Builds a canonical prefix code from one length per class. Each length
  /// must lie in [1, 31] and the multiset must satisfy Kraft's inequality
  /// (checked exactly in integers); throws CodeSpecError otherwise. Shorter
  /// codewords get lexicographically smaller patterns.
  static CodewordTable from_lengths(const std::array<unsigned, kNumClasses>& lengths);

  /// The frequency-directed table: sorts classes by descending occurrence
  /// count and deals the sorted default lengths {1,2,4,5,5,5,5,5,5} to them,
  /// so the most frequent class always gets the 1-bit codeword. Ties keep
  /// the lower case number first (stable), matching the paper's convention
  /// that the default order is already best for most circuits.
  static CodewordTable frequency_directed(
      const std::array<std::size_t, kNumClasses>& counts);

  const Codeword& at(BlockClass c) const noexcept {
    return words_[static_cast<std::size_t>(c)];
  }

  unsigned length(BlockClass c) const noexcept { return at(c).length; }
  unsigned max_length() const noexcept;

  /// Decodes the codeword starting at the reader's cursor; consumes exactly
  /// its bits. Throws DecodeError (kInvalidCodeword) if no codeword matches,
  /// which is only possible for tables whose lengths leave Kraft slack; the
  /// reader itself throws on truncation (StreamOverrun) and on an X in a
  /// codeword position (InvalidSymbol).
  BlockClass match(bits::TritReader& reader) const;

  /// True if no codeword is a prefix of another (checked in tests; holds by
  /// construction).
  bool prefix_free() const;

  bool operator==(const CodewordTable&) const = default;

 private:
  std::array<Codeword, kNumClasses> words_{};
};

}  // namespace nc::codec
