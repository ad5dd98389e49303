// The search space of the code tuner: one genome = one complete coding
// configuration.
//
// The paper fixes the codeword lengths (Table I), the block size K, the
// symmetric K/2 split and leaves leftover X alive; Table VII only permutes
// lengths by frequency. Polian et al. (PAPERS.md) showed the whole
// parameter set is searchable. A TuneGenome bundles every knob the encoder,
// decoder and synthesized hardware agree on:
//  * `lengths`  -- codeword length per class C1..C9 (canonical patterns
//                  follow from CodewordTable::from_lengths);
//  * `k`        -- block size;
//  * `split`    -- left-half length (0 = the paper's K/2);
//  * `fill`     -- X-fill policy applied to TD before encoding.
// A genome round-trips through JSON (`ninec tune --out` / `ninec compress
// --table`) and through a fixed-width byte form (serve Tune payloads and
// artifact values), both bit-exact.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bits/test_set.h"
#include "codec/nine_coded.h"

namespace nc::tune {

/// X-fill applied to TD before encoding. kNone keeps X alive so the code
/// itself absorbs them (the paper's default); the others delegate to
/// power::fill, trading leftover-X flexibility for better compression of
/// now-uniform halves.
enum class FillPolicy : unsigned char {
  kNone = 0,
  kZero,
  kOne,
  kRandom,
  kMinTransition,
};

inline constexpr unsigned kNumFillPolicies = 5;

const char* fill_policy_name(FillPolicy p) noexcept;

/// Inverse of fill_policy_name; throws std::invalid_argument on an unknown
/// name.
FillPolicy fill_policy_from_name(const std::string& name);

/// A malformed genome JSON document (bad syntax, missing or out-of-range
/// field, wrong format tag).
class GenomeParseError : public std::runtime_error {
 public:
  explicit GenomeParseError(const std::string& what)
      : std::runtime_error("tune genome: " + what) {}
};

struct TuneGenome {
  std::size_t k = 8;
  /// Left-half length in trits; 0 means the symmetric K/2 (requires even K).
  std::size_t split = 0;
  std::array<unsigned, codec::kNumClasses> lengths{1, 2, 5, 5, 5, 5, 5, 5, 4};
  FillPolicy fill = FillPolicy::kNone;
  /// Seed for FillPolicy::kRandom; part of the genome so a tuned result is
  /// reproducible bit-for-bit.
  std::uint64_t fill_seed = 1;

  bool operator==(const TuneGenome&) const = default;

  /// The paper's Table I configuration at block size `k`.
  static TuneGenome standard(std::size_t k = 8);

  std::size_t resolved_split() const noexcept {
    return split == 0 ? k / 2 : split;
  }

  /// True when this genome is exactly the paper's default shape at its K
  /// (symmetric split, no fill) -- such tables can ride the legacy .9c
  /// container unchanged.
  bool is_standard_shape() const noexcept;

  /// Builds the coder; throws codec::CodeSpecError / std::invalid_argument
  /// if the genome is invalid (bad lengths, bad K/split combination).
  codec::NineCoded make_coder() const;

  /// Applies the fill policy (identity copy for kNone).
  bits::TestSet apply_fill(const bits::TestSet& td) const;

  /// JSON document (pretty-printed, with a "format" tag) -- the `--table`
  /// file format.
  std::string to_json() const;

  /// Parses to_json output (and hand-written equivalents). Throws
  /// GenomeParseError; accepts unknown keys silently so the format can grow.
  static TuneGenome from_json(const std::string& text);

  /// Fixed-width little-endian byte form used in serve payloads and
  /// artifacts: u64 k | u64 split | 9 x u8 lengths | u8 fill | u64 seed.
  void append_bytes(std::vector<std::uint8_t>& out) const;

  /// Reads the byte form at `off`, advancing it. Throws GenomeParseError on
  /// truncation or an out-of-range fill policy.
  static TuneGenome from_bytes(const std::vector<std::uint8_t>& bytes,
                               std::size_t& off);
};

}  // namespace nc::tune
