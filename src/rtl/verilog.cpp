#include "rtl/verilog.h"

#include <cctype>
#include <sstream>
#include <stdexcept>

#include "codec/decoder_spec.h"

namespace nc::rtl {

namespace {

using codec::CodewordTable;
using codec::DecoderSpec;

unsigned clog2(std::size_t v) {
  unsigned bits = 0;
  while ((std::size_t{1} << bits) < v) ++bits;
  return bits == 0 ? 1 : bits;
}

}  // namespace

std::string generate_decoder_verilog(const CodewordTable& table,
                                     std::size_t k,
                                     const VerilogOptions& options) {
  if (k < 4 || k % 2 != 0)
    throw std::invalid_argument("decoder RTL needs an even K >= 4");
  const DecoderSpec spec(table, k, k / 2);
  const std::size_t half = spec.left();
  const unsigned cnt_bits = clog2(half);
  const std::uint32_t n_rec = spec.recognition_states();
  const unsigned state_bits = clog2(spec.state_count());

  std::ostringstream v;
  // Plan encoding in the RTL is half_plans': 00 fill-0, 01 fill-1, 10 data.
  // The spec's leaves are C1..C9 in class order.
  auto leaf_action = [&](std::uint32_t leaf) {
    const codec::CodeLeaf& l = spec.leaves()[leaf];
    std::ostringstream a;
    a << "begin plan_a <= 2'd" << l.plan_a << "; plan_b <= 2'd" << l.plan_b
      << "; cnt <= " << cnt_bits << "'d0; state <= S_HALF_A; end";
    if (options.comments)
      a << "  // C" << leaf + 1 << " \"" << l.word.to_string() << "\"";
    return a.str();
  };

  v << "// Generated by ninec (nc::rtl): 9C single-scan decompressor,\n"
    << "// K = " << k << ", " << n_rec << " recognition states. Single clock\n"
    << "// with ate_tick marking valid serial ATE bits (f_scan = p * f_ate).\n"
    << "module " << options.module_name << " (\n"
    << "  input  wire clk,\n"
    << "  input  wire rst,\n"
    << "  input  wire ate_tick,\n"
    << "  input  wire dec_en,\n"
    << "  input  wire data_in,\n"
    << "  output wire ack,\n"
    << "  output wire scan_en,\n"
    << "  output wire d_out\n"
    << ");\n\n";

  for (std::uint32_t s = 0; s < n_rec; ++s)
    v << "  localparam S_R" << s << " = " << state_bits << "'d" << s << ";\n";
  v << "  localparam S_HALF_A = " << state_bits << "'d" << spec.half_a()
    << ";\n"
    << "  localparam S_HALF_B = " << state_bits << "'d" << spec.half_b()
    << ";\n"
    << "  localparam S_ACK    = " << state_bits << "'d" << spec.ack()
    << ";\n\n"
    << "  reg [" << state_bits - 1 << ":0] state;\n"
    << "  reg [1:0] plan_a, plan_b;\n"
    << "  reg [" << cnt_bits - 1 << ":0] cnt;\n\n"
    << "  wire [1:0] plan = (state == S_HALF_A) ? plan_a : plan_b;\n"
    << "  wire in_half = (state == S_HALF_A) || (state == S_HALF_B);\n"
    << "  // Fill bits stream every SoC cycle; pass-through data only when\n"
    << "  // the tester presents a bit.\n"
    << "  wire emit = in_half && (plan != 2'd2 || ate_tick);\n"
    << "  wire last = (cnt == " << cnt_bits << "'d" << half - 1 << ");\n\n"
    << "  assign scan_en = emit;\n"
    << "  assign d_out   = (plan == 2'd2) ? data_in : plan[0];\n"
    << "  assign ack     = (state == S_ACK);\n\n"
    << "  always @(posedge clk) begin\n"
    << "    if (rst) begin\n"
    << "      state <= S_R0;\n"
    << "      plan_a <= 2'd0;\n"
    << "      plan_b <= 2'd0;\n"
    << "      cnt <= " << cnt_bits << "'d0;\n"
    << "    end else begin\n"
    << "      case (state)\n";

  for (std::uint32_t s = 0; s < n_rec; ++s) {
    v << "        S_R" << s << ": if (ate_tick && dec_en) begin\n";
    for (unsigned bit = 0; bit < 2; ++bit) {
      const DecoderSpec::Step step = spec.step(s, bit == 1, false);
      v << "          if (data_in == 1'b" << bit << ") ";
      if (step.leaf != DecoderSpec::kNoLeaf)
        v << leaf_action(step.leaf) << "\n";
      else if (step.invalid)
        v << "state <= S_R0;  // unreachable for a complete code\n";
      else
        v << "state <= S_R" << step.next << ";\n";
    }
    v << "        end\n";
  }

  v << "        S_HALF_A: if (emit) begin\n"
    << "          cnt <= last ? " << cnt_bits << "'d0 : cnt + 1'b1;\n"
    << "          if (last) state <= S_HALF_B;\n"
    << "        end\n"
    << "        S_HALF_B: if (emit) begin\n"
    << "          cnt <= last ? " << cnt_bits << "'d0 : cnt + 1'b1;\n"
    << "          if (last) state <= S_ACK;\n"
    << "        end\n"
    << "        S_ACK: state <= S_R0;\n"
    << "        default: state <= S_R0;\n"
    << "      endcase\n"
    << "    end\n"
    << "  end\n\n"
    << "endmodule\n";
  return v.str();
}

std::string generate_decoder_testbench(std::size_t k,
                                       const std::string& module_name) {
  std::ostringstream v;
  v << "// Testbench skeleton for " << module_name << " (K = " << k << ").\n"
    << "// Fill `stream` with a 9C-compressed bit string (ninec compress)\n"
    << "// and compare d_out/scan_en against the software decoder's trace.\n"
    << "`timescale 1ns/1ps\n"
    << "module " << module_name << "_tb;\n"
    << "  reg clk = 0, rst = 1, ate_tick = 0, dec_en = 0, data_in = 0;\n"
    << "  wire ack, scan_en, d_out;\n\n"
    << "  " << module_name << " dut (\n"
    << "    .clk(clk), .rst(rst), .ate_tick(ate_tick), .dec_en(dec_en),\n"
    << "    .data_in(data_in), .ack(ack), .scan_en(scan_en), .d_out(d_out)\n"
    << "  );\n\n"
    << "  always #5 clk = ~clk;\n\n"
    << "  initial begin\n"
    << "    repeat (2) @(posedge clk);\n"
    << "    rst = 0;\n"
    << "    dec_en = 1;\n"
    << "    // TODO: drive `data_in` with the compressed stream, one bit per\n"
    << "    // ate_tick, p SoC cycles apart.\n"
    << "    repeat (64) @(posedge clk);\n"
    << "    $finish;\n"
    << "  end\n"
    << "endmodule\n";
  return v.str();
}

std::string generate_multiscan_verilog(std::size_t chains,
                                       const std::string& decoder_module,
                                       const std::string& module_name) {
  if (chains < 2)
    throw std::invalid_argument("multi-scan wrapper needs >= 2 chains");
  const unsigned cnt_bits = clog2(chains);
  std::ostringstream v;
  v << "// Generated by ninec (nc::rtl): Fig. 3 multiple-scan wrapper --\n"
    << "// one ATE pin drives " << chains << " scan chains through one\n"
    << "// decoder and a " << chains << "-bit staging shifter.\n"
    << "module " << module_name << " (\n"
    << "  input  wire clk,\n"
    << "  input  wire rst,\n"
    << "  input  wire ate_tick,\n"
    << "  input  wire dec_en,\n"
    << "  input  wire data_in,\n"
    << "  output wire ack,\n"
    << "  output reg  load,\n"
    << "  output reg [" << chains - 1 << ":0] slice\n"
    << ");\n\n"
    << "  wire scan_en, d_out;\n\n"
    << "  " << decoder_module << " decoder (\n"
    << "    .clk(clk), .rst(rst), .ate_tick(ate_tick), .dec_en(dec_en),\n"
    << "    .data_in(data_in), .ack(ack), .scan_en(scan_en), .d_out(d_out)\n"
    << "  );\n\n"
    << "  reg [" << cnt_bits - 1 << ":0] fill;\n"
    << "  always @(posedge clk) begin\n"
    << "    if (rst) begin\n"
    << "      fill <= " << cnt_bits << "'d0;\n"
    << "      load <= 1'b0;\n"
    << "      slice <= " << chains << "'d0;\n"
    << "    end else begin\n"
    << "      load <= 1'b0;\n"
    << "      if (scan_en) begin\n"
    << "        slice <= {slice[" << chains - 2 << ":0], d_out};\n"
    << "        if (fill == " << cnt_bits << "'d" << chains - 1 << ") begin\n"
    << "          fill <= " << cnt_bits << "'d0;\n"
    << "          load <= 1'b1;  // slice parallel-loads into the chains\n"
    << "        end else begin\n"
    << "          fill <= fill + 1'b1;\n"
    << "        end\n"
    << "      end\n"
    << "    end\n"
    << "  end\n\n"
    << "endmodule\n";
  return v.str();
}

bool verilog_tokens_balanced(const std::string& source) {
  // Token-level counting; identifiers containing the keywords (e.g.
  // "endmodule") are split on non-alphanumerics first.
  long module_depth = 0, case_depth = 0, begin_depth = 0;
  std::string token;
  auto flush = [&] {
    if (token == "module") ++module_depth;
    if (token == "endmodule") --module_depth;
    if (token == "case" || token == "casez") ++case_depth;
    if (token == "endcase") --case_depth;
    if (token == "begin") ++begin_depth;
    if (token == "end") --begin_depth;
    token.clear();
  };
  bool in_comment = false;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    if (in_comment) {
      if (c == '\n') in_comment = false;
      continue;
    }
    if (c == '/' && i + 1 < source.size() && source[i + 1] == '/') {
      flush();
      in_comment = true;
      continue;
    }
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$')
      token += c;
    else
      flush();
    if (module_depth < 0 || case_depth < 0 || begin_depth < 0) return false;
  }
  flush();
  return module_depth == 0 && case_depth == 0 && begin_depth == 0;
}

}  // namespace nc::rtl
