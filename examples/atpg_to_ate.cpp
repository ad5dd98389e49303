// End-to-end flow on a real netlist: ATPG generates test cubes with
// don't-cares, 9C compresses them, the on-chip decoder model reproduces the
// scan data, and fault simulation confirms the decompressed (and random-
// filled) patterns still achieve the ATPG's coverage.
//
//   ./atpg_to_ate [gates] [seed]
#include <cstdlib>
#include <iostream>

#include "atpg/atpg.h"
#include "circuit/generator.h"
#include "codec/nine_coded.h"
#include "decomp/single_scan.h"
#include "power/fill.h"
#include "sim/fault_sim.h"

int main(int argc, char** argv) {
  const std::size_t gates = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 300;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  nc::circuit::GeneratorConfig gcfg;
  gcfg.num_inputs = 16;
  gcfg.num_flops = 32;
  gcfg.num_gates = gates;
  gcfg.seed = seed;
  const nc::circuit::Netlist netlist = nc::circuit::generate_circuit(gcfg);
  std::cout << "circuit: " << netlist.inputs().size() << " PIs, "
            << netlist.flops().size() << " scan cells, "
            << netlist.logic_gate_count() << " gates\n";

  // ATPG.
  const auto faults = nc::sim::collapsed_fault_list(netlist);
  const nc::atpg::AtpgResult atpg = nc::atpg::generate_tests(netlist, faults);
  std::cout << "ATPG: " << atpg.tests.pattern_count() << " cubes, "
            << 100.0 * atpg.tests.x_fraction() << "% X, efficiency "
            << atpg.efficiency_percent() << "%\n";

  // Compress / decompress.
  const nc::bits::TritVector td = atpg.tests.flatten();
  const nc::codec::NineCoded coder(8);
  nc::bits::TritVector te;
  const auto stats = coder.analyze(td, &te);
  std::cout << coder.name() << ": CR = " << stats.compression_ratio()
            << "%, leftover X = " << stats.leftover_x_percent() << "%\n";

  const nc::decomp::SingleScanDecoder decoder(coder, 8);
  const nc::decomp::DecoderTrace trace = decoder.run(te, td.size());
  const nc::bits::TestSet decoded = nc::bits::TestSet::unflatten(
      trace.scan_stream, atpg.tests.pattern_count(),
      atpg.tests.pattern_length());

  // The leftover X bits are filled randomly on the tester -- the paper's
  // suggestion for catching non-modeled defects -- then fault-simulated.
  const nc::bits::TestSet applied =
      nc::power::fill(decoded, nc::power::FillStrategy::kRandom, seed);
  nc::sim::FaultSimulator fsim(netlist);
  const auto cover = fsim.run(applied, faults);
  std::cout << "decompressed+filled patterns: stuck-at coverage "
            << cover.coverage_percent() << "% over " << faults.size()
            << " collapsed faults\n";
  return 0;
}
