// Common interface implemented by the 9C coder and every baseline coder
// (Golomb, FDR, EFDR, VIHC, MTC, selective Huffman).
//
// A coder maps the uncompressed stream TD (trits, X allowed) to a compressed
// stream TE and back. Contract, checked by the property test suites:
//
//   decode(encode(td), td.size()) == d  such that  td.covered_by(d)
//
// i.e. every care bit of TD is reproduced exactly; an X position of TD may
// come back as 0, 1 (the coder filled it) or X (the coder preserved it --
// only 9C mismatch payloads do this).
#pragma once

#include <cstddef>
#include <string>

#include "bits/trit_vector.h"

namespace nc::codec {

class Codec {
 public:
  virtual ~Codec() = default;

  /// Human-readable identifier used in comparison tables ("9C", "FDR", ...).
  virtual std::string name() const = 0;

  /// Compresses TD. The returned stream's size() is |TE| in *bits*
  /// (an X payload symbol still occupies one ATE channel slot).
  virtual bits::TritVector encode(const bits::TritVector& td) const = 0;

  /// Reconstructs a stream of `original_bits` symbols from TE.
  virtual bits::TritVector decode(const bits::TritVector& te,
                                  std::size_t original_bits) const = 0;
};

/// CR% = (|TD| - |TE|) / |TD| * 100, the figure every paper table reports.
/// Negative when the "compressed" stream is larger (data expansion).
inline double compression_ratio_percent(std::size_t original_bits,
                                        std::size_t encoded_bits) noexcept {
  if (original_bits == 0) return 0.0;
  return 100.0 *
         (static_cast<double>(original_bits) -
          static_cast<double>(encoded_bits)) /
         static_cast<double>(original_bits);
}

}  // namespace nc::codec
