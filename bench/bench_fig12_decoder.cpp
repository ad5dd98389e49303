// Reproduces Fig. 1 / Fig. 2: the single-scan decompressor and its FSM.
// (a) synthesizes the FSM of the paper's table -- the controller the cycle
//     model runs -- with the Quine-McCluskey substrate and prints the
//     two-level cover of every next-state/control function plus the gate
//     count -- the paper's "the FSM was synthesized with Design Compiler
//     and is tiny / independent of K and of the test set" claim;
// (b) sizes the full decoder (FSM + counter + shifter + MUX) across K;
// (c) drives the cycle-accurate decoder on a sample stream as a smoke test.
#include <iostream>

#include "codec/nine_coded.h"
#include "decomp/single_scan.h"
#include "gen/cube_gen.h"
#include "report/table.h"
#include "synth/code_synth.h"

int main() {
  // (a) FSM synthesis.
  const nc::synth::CodeSynthResult fsm = nc::synth::synthesize_code_fsm(
      nc::synth::leaves_for_table(nc::codec::CodewordTable::standard()), 3);
  nc::report::Table logic("FIG. 2 -- decoder FSM synthesized to two-level logic");
  logic.set_header({"output", "product terms", "literals", "gate equivalents"});
  for (const auto& o : fsm.outputs) {
    logic.row()
        .add(o.name)
        .add(o.cover.size())
        .add(o.cost.literals)
        .add(o.cost.gate_equivalents());
  }
  logic.print(std::cout);
  std::cout << "FSM totals: " << fsm.combinational_gates()
            << " combinational GE + " << fsm.state_bits
            << " state flops = " << fsm.total_gate_equivalents()
            << " GE -- independent of K and of the test set.\n\n";

  // (b) Full decoder size across K.
  nc::report::Table size("FIG. 1 -- decoder gate-equivalent estimate vs K");
  size.set_header({"K", "gate equivalents"});
  for (std::size_t k : {4u, 8u, 16u, 32u, 48u})
    size.row().add(k).add(
        nc::synth::decoder_gate_estimate(fsm.total_gate_equivalents(), k));
  size.print(std::cout);

  // (c) Smoke test: the hardware model decodes a calibrated stream.
  const nc::bits::TritVector td =
      nc::gen::calibrated_cubes(nc::gen::iscas89_profile("s9234")).flatten();
  const nc::codec::NineCoded coder(8);
  const nc::bits::TritVector te = coder.encode(td);
  const nc::decomp::SingleScanDecoder decoder(coder, 8);
  const auto trace = decoder.run(te, td.size());
  const bool ok = td.covered_by(trace.scan_stream);
  std::cout << "\ncycle-accurate decode of s9234-like stream: "
            << trace.codewords << " codewords, " << trace.soc_cycles
            << " SoC cycles, care bits reproduced: " << (ok ? "yes" : "NO")
            << '\n';
  return ok ? 0 : 1;
}
