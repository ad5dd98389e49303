// Generated by ninec (nc::rtl): 9C single-scan decompressor,
// K = 8, 8 recognition states. Single clock
// with ate_tick marking valid serial ATE bits (f_scan = p * f_ate).
module ninec_decoder (
  input  wire clk,
  input  wire rst,
  input  wire ate_tick,
  input  wire dec_en,
  input  wire data_in,
  output wire ack,
  output wire scan_en,
  output wire d_out
);

  localparam S_R0 = 4'd0;
  localparam S_R1 = 4'd1;
  localparam S_R2 = 4'd2;
  localparam S_R3 = 4'd3;
  localparam S_R4 = 4'd4;
  localparam S_R5 = 4'd5;
  localparam S_R6 = 4'd6;
  localparam S_R7 = 4'd7;
  localparam S_HALF_A = 4'd8;
  localparam S_HALF_B = 4'd9;
  localparam S_ACK    = 4'd10;

  reg [3:0] state;
  reg [1:0] plan_a, plan_b;
  reg [1:0] cnt;

  wire [1:0] plan = (state == S_HALF_A) ? plan_a : plan_b;
  wire in_half = (state == S_HALF_A) || (state == S_HALF_B);
  // Fill bits stream every SoC cycle; pass-through data only when
  // the tester presents a bit.
  wire emit = in_half && (plan != 2'd2 || ate_tick);
  wire last = (cnt == 2'd3);

  assign scan_en = emit;
  assign d_out   = (plan == 2'd2) ? data_in : plan[0];
  assign ack     = (state == S_ACK);

  always @(posedge clk) begin
    if (rst) begin
      state <= S_R0;
      plan_a <= 2'd0;
      plan_b <= 2'd0;
      cnt <= 2'd0;
    end else begin
      case (state)
        S_R0: if (ate_tick && dec_en) begin
          if (data_in == 1'b0) begin plan_a <= 2'd0; plan_b <= 2'd0; cnt <= 2'd0; state <= S_HALF_A; end  // C1 "0"
          if (data_in == 1'b1) state <= S_R1;
        end
        S_R1: if (ate_tick && dec_en) begin
          if (data_in == 1'b0) begin plan_a <= 2'd1; plan_b <= 2'd1; cnt <= 2'd0; state <= S_HALF_A; end  // C2 "10"
          if (data_in == 1'b1) state <= S_R2;
        end
        S_R2: if (ate_tick && dec_en) begin
          if (data_in == 1'b0) state <= S_R3;
          if (data_in == 1'b1) state <= S_R5;
        end
        S_R3: if (ate_tick && dec_en) begin
          if (data_in == 1'b0) begin plan_a <= 2'd2; plan_b <= 2'd2; cnt <= 2'd0; state <= S_HALF_A; end  // C9 "1100"
          if (data_in == 1'b1) state <= S_R4;
        end
        S_R4: if (ate_tick && dec_en) begin
          if (data_in == 1'b0) begin plan_a <= 2'd0; plan_b <= 2'd1; cnt <= 2'd0; state <= S_HALF_A; end  // C3 "11010"
          if (data_in == 1'b1) begin plan_a <= 2'd1; plan_b <= 2'd0; cnt <= 2'd0; state <= S_HALF_A; end  // C4 "11011"
        end
        S_R5: if (ate_tick && dec_en) begin
          if (data_in == 1'b0) state <= S_R6;
          if (data_in == 1'b1) state <= S_R7;
        end
        S_R6: if (ate_tick && dec_en) begin
          if (data_in == 1'b0) begin plan_a <= 2'd0; plan_b <= 2'd2; cnt <= 2'd0; state <= S_HALF_A; end  // C5 "11100"
          if (data_in == 1'b1) begin plan_a <= 2'd2; plan_b <= 2'd0; cnt <= 2'd0; state <= S_HALF_A; end  // C6 "11101"
        end
        S_R7: if (ate_tick && dec_en) begin
          if (data_in == 1'b0) begin plan_a <= 2'd1; plan_b <= 2'd2; cnt <= 2'd0; state <= S_HALF_A; end  // C7 "11110"
          if (data_in == 1'b1) begin plan_a <= 2'd2; plan_b <= 2'd1; cnt <= 2'd0; state <= S_HALF_A; end  // C8 "11111"
        end
        S_HALF_A: if (emit) begin
          cnt <= last ? 2'd0 : cnt + 1'b1;
          if (last) state <= S_HALF_B;
        end
        S_HALF_B: if (emit) begin
          cnt <= last ? 2'd0 : cnt + 1'b1;
          if (last) state <= S_ACK;
        end
        S_ACK: state <= S_R0;
        default: state <= S_R0;
      endcase
    end
  end

endmodule
