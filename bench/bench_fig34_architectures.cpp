// Reproduces Fig. 3 / Fig. 4: the three scan architectures -- (a) single
// scan, (b) m chains behind one pin and one decoder, (c) m chains behind
// m/K pins and m/K parallel decoders. Expected shape: (b) cuts pins to 1 at
// ~unchanged test time; (c) trades pins and decoder copies for a ~m/K
// speedup.
#include <iostream>

#include "decomp/multi_scan.h"
#include "gen/cube_gen.h"
#include "report/table.h"
#include "synth/code_synth.h"

int main() {
  const nc::bits::TestSet td =
      nc::gen::calibrated_cubes(nc::gen::iscas89_profile("s38417"));
  const std::size_t k = 8;
  const unsigned p = 8;
  const nc::codec::NineCoded coder(k);

  nc::report::Table out(
      "FIG. 3/4 -- scan architectures on an s38417-like set (K=8, p=8)");
  out.set_header({"architecture", "chains", "pins", "decoders", "SoC cycles",
                  "speedup", "CR%", "HW gates"});

  const std::size_t decoder_gates = nc::synth::decoder_gate_estimate(
      nc::synth::synthesize_code_fsm(
          nc::synth::leaves_for_table(coder.table()), 3)
          .total_gate_equivalents(),
      k);
  const auto a = nc::decomp::run_single_scan(td, coder, p);
  auto add_row = [&](const nc::decomp::ArchitectureReport& r) {
    // Hardware: decoder copies plus the staging shifter flops of the
    // single-pin variant (one scan-equivalent flop per chain, ~6 GE).
    const std::size_t staging =
        (r.decoders == 1 && r.chains > 1) ? r.chains * 6 : 0;
    out.row()
        .add(r.name)
        .add(r.chains)
        .add(r.ate_pins)
        .add(r.decoders)
        .add(r.soc_cycles)
        .add(static_cast<double>(a.soc_cycles) /
                 static_cast<double>(r.soc_cycles),
             2)
        .add(r.compression_ratio, 2)
        .add(r.decoders * decoder_gates + staging);
  };
  add_row(a);
  bool ok = true;
  for (std::size_t chains : {16u, 32u, 64u}) {
    const auto b = nc::decomp::run_multi_scan_single_pin(td, chains, coder, p);
    const auto c = nc::decomp::run_multi_scan_banked(td, chains, coder, p);
    add_row(b);
    add_row(c);
    ok = ok && c.soc_cycles < b.soc_cycles && b.ate_pins == 1 &&
         c.ate_pins == chains / k;
  }
  out.print(std::cout);
  std::cout << "\nsingle-pin multi-scan keeps test time while cutting pins "
               "to 1; banked decoders buy speed for pins: "
            << (ok ? "reproduced" : "NOT reproduced") << '\n';
  return ok ? 0 : 1;
}
