#include "rtl/verilog.h"

#include <gtest/gtest.h>

#include "codec/nine_coded.h"

namespace nc::rtl {
namespace {

using codec::CodewordTable;

TEST(Verilog, RejectsBadK) {
  EXPECT_THROW(generate_decoder_verilog(CodewordTable::standard(), 2),
               std::invalid_argument);
  EXPECT_THROW(generate_decoder_verilog(CodewordTable::standard(), 9),
               std::invalid_argument);
}

TEST(Verilog, ModuleInterface) {
  const std::string v =
      generate_decoder_verilog(CodewordTable::standard(), 8);
  EXPECT_NE(v.find("module ninec_decoder ("), std::string::npos);
  for (const char* port : {"clk", "rst", "ate_tick", "dec_en", "data_in",
                           "ack", "scan_en", "d_out"})
    EXPECT_NE(v.find(port), std::string::npos) << port;
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Verilog, StandardTableHasEightRecognitionStates) {
  const std::string v =
      generate_decoder_verilog(CodewordTable::standard(), 8);
  EXPECT_NE(v.find("localparam S_R7"), std::string::npos);
  EXPECT_EQ(v.find("localparam S_R8"), std::string::npos);
  EXPECT_NE(v.find("S_HALF_A"), std::string::npos);
  EXPECT_NE(v.find("S_ACK"), std::string::npos);
}

TEST(Verilog, CommentsListEveryCodeword) {
  const CodewordTable table = CodewordTable::standard();
  const std::string v = generate_decoder_verilog(table, 8);
  for (std::size_t c = 0; c < codec::kNumClasses; ++c) {
    const std::string tag =
        "// C" + std::to_string(c + 1) + " \"" +
        table.at(static_cast<codec::BlockClass>(c)).to_string() + "\"";
    EXPECT_NE(v.find(tag), std::string::npos) << tag;
  }
}

TEST(Verilog, CounterWidthFollowsK) {
  // K=8: half 4 -> 2-bit counter, last = 2'd3. K=32: half 16 -> 4-bit.
  const std::string v8 = generate_decoder_verilog(CodewordTable::standard(), 8);
  EXPECT_NE(v8.find("cnt == 2'd3"), std::string::npos);
  const std::string v32 =
      generate_decoder_verilog(CodewordTable::standard(), 32);
  EXPECT_NE(v32.find("cnt == 4'd15"), std::string::npos);
}

TEST(Verilog, TokensBalanced) {
  for (std::size_t k : {4u, 8u, 16u, 48u}) {
    const std::string v =
        generate_decoder_verilog(CodewordTable::standard(), k);
    EXPECT_TRUE(verilog_tokens_balanced(v)) << "K=" << k;
  }
}

TEST(Verilog, FrequencyDirectedTableEmits) {
  std::array<std::size_t, codec::kNumClasses> counts = {10, 5, 1, 1, 1,
                                                        1, 1, 40, 20};
  const CodewordTable table = CodewordTable::frequency_directed(counts);
  const std::string v = generate_decoder_verilog(table, 8);
  EXPECT_TRUE(verilog_tokens_balanced(v));
  // The 1-bit codeword now belongs to C8: its comment shows codeword "0".
  EXPECT_NE(v.find("// C8 \"0\""), std::string::npos);
}

TEST(Verilog, CustomModuleName) {
  VerilogOptions options;
  options.module_name = "my_dec";
  const std::string v =
      generate_decoder_verilog(CodewordTable::standard(), 8, options);
  EXPECT_NE(v.find("module my_dec ("), std::string::npos);
}

TEST(Verilog, TestbenchInstantiatesDut) {
  const std::string tb =
      generate_decoder_testbench(8, "ninec_decoder");
  EXPECT_NE(tb.find("module ninec_decoder_tb;"), std::string::npos);
  EXPECT_NE(tb.find("ninec_decoder dut ("), std::string::npos);
  EXPECT_TRUE(verilog_tokens_balanced(tb));
}

TEST(VerilogMultiscan, WrapperShape) {
  const std::string v = generate_multiscan_verilog(32, "ninec_decoder");
  EXPECT_NE(v.find("module ninec_multiscan ("), std::string::npos);
  EXPECT_NE(v.find("ninec_decoder decoder ("), std::string::npos);
  EXPECT_NE(v.find("output reg [31:0] slice"), std::string::npos);
  EXPECT_NE(v.find("fill == 5'd31"), std::string::npos);
  EXPECT_TRUE(verilog_tokens_balanced(v));
}

TEST(VerilogMultiscan, RejectsDegenerateChainCount) {
  EXPECT_THROW(generate_multiscan_verilog(1, "d"), std::invalid_argument);
}

TEST(VerilogMultiscan, CustomNames) {
  const std::string v = generate_multiscan_verilog(8, "dec8", "wrap8");
  EXPECT_NE(v.find("module wrap8 ("), std::string::npos);
  EXPECT_NE(v.find("dec8 decoder ("), std::string::npos);
}

TEST(VerilogLint, DetectsImbalance) {
  EXPECT_TRUE(verilog_tokens_balanced("module m (); endmodule"));
  EXPECT_FALSE(verilog_tokens_balanced("module m ();"));
  EXPECT_FALSE(verilog_tokens_balanced("begin begin end"));
  EXPECT_FALSE(verilog_tokens_balanced("case (x) endcase endcase"));
  // Keywords inside comments do not count.
  EXPECT_TRUE(verilog_tokens_balanced(
      "module m (); // begin case\nendmodule"));
  // Keywords inside identifiers do not count.
  EXPECT_TRUE(verilog_tokens_balanced(
      "module m (); wire the_end; endmodule"));
}

}  // namespace
}  // namespace nc::rtl
