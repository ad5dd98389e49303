// Testbench skeleton for ninec_decoder (K = 8).
// Fill `stream` with a 9C-compressed bit string (ninec compress)
// and compare d_out/scan_en against the software decoder's trace.
`timescale 1ns/1ps
module ninec_decoder_tb;
  reg clk = 0, rst = 1, ate_tick = 0, dec_en = 0, data_in = 0;
  wire ack, scan_en, d_out;

  ninec_decoder dut (
    .clk(clk), .rst(rst), .ate_tick(ate_tick), .dec_en(dec_en),
    .data_in(data_in), .ack(ack), .scan_en(scan_en), .d_out(d_out)
  );

  always #5 clk = ~clk;

  initial begin
    repeat (2) @(posedge clk);
    rst = 0;
    dec_en = 1;
    // TODO: drive `data_in` with the compressed stream, one bit per
    // ate_tick, p SoC cycles apart.
    repeat (64) @(posedge clk);
    $finish;
  end
endmodule
