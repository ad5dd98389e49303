// The 9C encoder/decoder (Section II of the paper) and its statistics.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#include "codec/codec.h"
#include "codec/codeword_table.h"
#include "codec/decode_error.h"
#include "core/cancel.h"

namespace nc::codec {

/// What a validated decode consumed and produced; `data` holds exactly the
/// requested original bits.
struct DecodeOutcome {
  bits::TritVector data;
  std::size_t blocks = 0;    // codewords consumed (= padded bits / K)
  std::size_t consumed = 0;  // TE symbols consumed
};

/// Everything the paper's tables derive from one encoding run.
struct NineCodedStats {
  std::size_t block_size = 0;     // K
  std::size_t split = 0;          // left-half length (K/2 unless tuned)
  std::size_t original_bits = 0;  // |TD| (before padding)
  std::size_t padded_bits = 0;    // |TD| rounded up to a whole block
  std::size_t encoded_bits = 0;   // |TE|

  /// Occurrence count N_i of each codeword (Table VI).
  std::array<std::size_t, kNumClasses> counts{};

  /// X symbols that survive into TE inside mismatch payloads (Table III
  /// numerator). These may later be filled for non-modeled-fault coverage
  /// or low power.
  std::size_t leftover_x = 0;

  /// X symbols of TD that the code forced to 0/1 (matched halves).
  std::size_t filled_x = 0;

  std::size_t blocks() const noexcept;
  /// CR% over the unpadded TD size, as the paper reports.
  double compression_ratio() const noexcept {
    return compression_ratio_percent(original_bits, encoded_bits);
  }
  /// LX% = leftover X / |TD| * 100 (Table III).
  double leftover_x_percent() const noexcept {
    return original_bits == 0
               ? 0.0
               : 100.0 * static_cast<double>(leftover_x) /
                     static_cast<double>(original_bits);
  }
};

/// |TE| of a stream whose K-trit blocks (left half `split` trits) fall into
/// the classes `counts`, coded with `table`: sum of N_i * (|C_i| +
/// payload_i). A block's class depends only on TD, K and the split, never
/// on the codeword lengths, so this prices a histogram from `analyze` under
/// any other table of the same K and split exactly as its encoder would.
std::size_t encoded_bits(const std::array<std::size_t, kNumClasses>& counts,
                         const CodewordTable& table, std::size_t k,
                         std::size_t split) noexcept;

/// Fixed-block nine-codeword coder. Stateless and reusable; one instance per
/// (K, codeword table) configuration.
class NineCoded final : public Codec {
 public:
  /// `block_size` is K. The default table is the paper's Table I
  /// assignment; pass a frequency-directed table for Table VII. `split` is
  /// the left-half length in trits: 0 (the default) means the paper's
  /// symmetric K/2 and requires K even >= 2; an explicit split in [1, K-1]
  /// allows asymmetric halves (and odd K), which the tuner searches over.
  /// The coder works on TritVector's packed words (DESIGN.md section 13);
  /// the per-trit specification it is fuzzed against lives in
  /// tests/reference.
  explicit NineCoded(std::size_t block_size,
                     CodewordTable table = CodewordTable::standard(),
                     std::size_t split = 0);

  std::string name() const override;
  std::size_t block_size() const noexcept { return k_; }
  /// Left-half length (always resolved: K/2 when constructed with split 0).
  std::size_t split() const noexcept { return left_; }
  const CodewordTable& table() const noexcept { return table_; }

  bits::TritVector encode(const bits::TritVector& td) const override;

  /// Strict decode: forwards to decode_checked and returns its data, so a
  /// corrupted TE raises a typed DecodeError instead of returning garbage.
  bits::TritVector decode(const bits::TritVector& te,
                          std::size_t original_bits) const override;

  /// Validating decode with full accounting. Checks, per block: codeword
  /// legality (prefix match, specified bits only) and payload availability;
  /// after the final block: that TE was consumed exactly. Throws DecodeError
  /// carrying the fault kind, the TE offset, and the failing block index.
  ///
  /// `watchdog` (optional, borrowed) is charged one step per consumed TE
  /// symbol and per produced output symbol; a trip throws
  /// DecodeError(kWatchdogExpired), bounding the work a crafted stream can
  /// extract from the decoder.
  DecodeOutcome decode_checked(const bits::TritVector& te,
                               std::size_t original_bits,
                               core::Watchdog* watchdog = nullptr) const;

  /// The full statistics bundle, plus the TE stream in `out_stream` when it
  /// is non-null (`encode` forwards here). Without `out_stream` no stream is
  /// built: the blocks are only classified, and `encoded_bits` is priced
  /// from their histogram.
  NineCodedStats analyze(const bits::TritVector& td,
                         bits::TritVector* out_stream = nullptr) const;

  /// Convenience: two-pass frequency-directed coder for this TD (first pass
  /// gathers N_i with the standard table, second pass encodes with the
  /// re-assigned table). Returns the coder to use.
  static NineCoded tuned_for(const bits::TritVector& td,
                             std::size_t block_size);

  /// Classifies v[begin, begin+len) and counts its X symbols one packed
  /// word at a time: with `lanes` the value bits of the range's trits in
  /// word w, w & lanes shows a specified 1, a lane set in neither w nor
  /// w >> 1 a specified 0, and popcount((w >> 1) & lanes) the X count.
  /// `begin + len` must not exceed v.size(). Inline: the encoder calls it
  /// twice per block.
  static HalfScan scan_half(const bits::TritVector& v, std::size_t begin,
                            std::size_t len) noexcept {
    constexpr std::uint64_t kValueLanes = 0x5555555555555555ull;
    bool any_one = false;
    bool any_zero = false;
    HalfScan scan;
    for (std::size_t pos = begin, end = begin + len; pos < end;) {
      const std::size_t stop = std::min(end, (pos | 31) + 1);  // word end
      const std::uint64_t lanes = (kValueLanes >> (64 - 2 * (stop - pos)))
                                  << (2 * (pos & 31));
      const std::uint64_t w = v.packed_word(pos >> 5);
      const std::uint64_t vals = w & lanes;
      const std::uint64_t xs = (w >> 1) & lanes;
      any_one |= vals != 0;
      any_zero |= (vals | xs) != lanes;
      scan.x_count += static_cast<std::size_t>(std::popcount(xs));
      pos = stop;
    }
    scan.kind.zero_compatible = !any_one;
    scan.kind.one_compatible = !any_zero;
    return scan;
  }

 private:
  std::size_t k_;
  std::size_t left_;   // left-half trits
  std::size_t right_;  // right-half trits (k_ - left_)
  CodewordTable table_;
};

}  // namespace nc::codec
