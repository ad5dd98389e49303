// Synthesizable Verilog emitter for the 9C on-chip decompressor.
//
// Produces the Fig. 1 decoder -- codeword-recognition FSM, log2(K/2)
// counter, K/2-bit shifter and output MUX -- as a single-clock RTL module
// with an `ate_tick` clock-enable marking the cycles on which a serial ATE
// bit is valid (the standard synchronous realization of the paper's
// dual-clock scheme: f_scan = p * f_ate means one ate_tick every p SoC
// cycles). The FSM is the codec::DecoderSpec of the codeword table, the
// one the cycle model runs and synthesis prices, so the frequency-directed
// variant of Table VII emits just as well.
//
// Interface of the generated module:
//   input  clk, rst            SoC clock / synchronous reset
//   input  ate_tick            high when data_in carries a fresh ATE bit
//   input  dec_en              start/continue decompression
//   input  data_in             serial data from the tester
//   output ack                 pulses when a block finishes
//   output scan_en             enables the scan chain shift
//   output d_out               decompressed serial scan data
#pragma once

#include <cstddef>
#include <string>

#include "codec/codeword_table.h"

namespace nc::rtl {

struct VerilogOptions {
  std::string module_name = "ninec_decoder";
  /// Emit `// synthesis`-friendly comments describing each state.
  bool comments = true;
};

/// Emits the decoder for block size `k` (even, >= 4 so the counter has at
/// least one bit) and the given codeword table. Throws std::invalid_argument
/// on a bad K.
std::string generate_decoder_verilog(const codec::CodewordTable& table,
                                     std::size_t k,
                                     const VerilogOptions& options = {});

/// Emits a self-checking testbench skeleton that instantiates the decoder
/// and plays a compressed stream into it (stream literal supplied by the
/// caller as a Verilog vector initializer).
std::string generate_decoder_testbench(std::size_t k,
                                       const std::string& module_name);

/// Emits the Fig. 3 multiple-scan wrapper: instantiates the decoder, feeds
/// its serial output into a `chains`-bit staging shifter, and pulses `load`
/// every `chains` decoded bits so the slice parallel-loads into the scan
/// chains. `decoder_module` must match a previously emitted decoder.
std::string generate_multiscan_verilog(std::size_t chains,
                                       const std::string& decoder_module,
                                       const std::string& module_name =
                                           "ninec_multiscan");

/// Structural sanity check used by tests and by the emitter itself:
/// balanced module/endmodule, case/endcase, begin/end tokens.
bool verilog_tokens_balanced(const std::string& source);

}  // namespace nc::rtl
