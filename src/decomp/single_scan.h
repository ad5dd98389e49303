// Cycle-accurate model of the single-scan-chain decompressor (Fig. 1):
// the controller FSM (Fig. 2) + a counter over the half length + a
// half-block shifter + a 3-way MUX.
//
// The controller is the codec::DecoderSpec of the coder's table, K and
// split -- the same FSM that synth prices and rtl emits -- so any table the
// encoder can use, frequency-directed or tuned (odd K, uneven halves), runs
// here too. The model is bit-serial and dual-clock: FSM recognition and
// mismatch payload streaming consume ATE cycles; uniform-half shifting
// consumes SoC cycles (f_scan = p * f_ate). The returned trace carries both
// clock-domain totals plus the exact stream that entered the scan chain, so
// tests can assert (a) data correctness against the software decoder and
// (b) cycle counts against the analytic model in timing.h.
#pragma once

#include <cstddef>

#include "bits/trit_vector.h"
#include "codec/decoder_spec.h"
#include "codec/nine_coded.h"
#include "core/cancel.h"

namespace nc::decomp {

struct DecoderTrace {
  std::size_t ate_cycles = 0;  // cycles of the ATE clock consumed
  std::size_t soc_cycles = 0;  // total elapsed time, in SoC cycles
  std::size_t codewords = 0;   // codewords recognized
  bits::TritVector scan_stream;  // bits shifted into the chain, in order
};

class SingleScanDecoder {
 public:
  /// The decoder of the streams `coder` writes: its table, K and split
  /// program the controller and the half lengths. `p` = f_scan / f_ate >= 1.
  SingleScanDecoder(const codec::NineCoded& coder, unsigned p);

  /// Decompresses TE until at least `original_bits` scan bits have been
  /// produced (whole blocks; the scan_stream is then truncated to
  /// `original_bits`, mirroring how the tail pad never leaves the chain).
  /// A corrupted TE raises codec::DecodeError with the fault, the TE offset
  /// and the index of the block in flight, as decode_checked numbers
  /// blocks. Offsets are bit-serial: a truncated stream reports where the
  /// reader ran dry, an X in a codeword its position, and a bit that leaves
  /// the trie (a table with Kraft slack) the codeword's start
  /// (kInvalidCodeword); symbols left over after the last block are
  /// kTrailingData.
  ///
  /// `watchdog` (optional, borrowed) meters the run: one step per FSM
  /// transition (each codeword bit, each half's done, the Ack), and a
  /// half's length before the half streams. A trip raises
  /// codec::DecodeError(kWatchdogExpired), so a runaway or crafted stream
  /// is stopped with bounded work instead of being allowed to spin.
  DecoderTrace run(const bits::TritVector& te, std::size_t original_bits,
                   core::Watchdog* watchdog = nullptr) const;

  const codec::DecoderSpec& spec() const noexcept { return spec_; }
  unsigned p() const noexcept { return p_; }

 private:
  codec::DecoderSpec spec_;
  unsigned p_;
};

}  // namespace nc::decomp
