// Full-stack integration: netlist -> ATPG cubes -> 9C compression -> ATE
// stream -> on-chip decoder model -> scan chains -> fault coverage and MISR
// signature. Exercises every library together the way the paper's flow
// composes them.
#include <gtest/gtest.h>

#include <cstdio>

#include "atpg/atpg.h"
#include "bits/serialize.h"
#include "circuit/generator.h"
#include "circuit/samples.h"
#include "circuit/scan_chains.h"
#include "codec/nine_coded.h"
#include "decomp/multi_scan.h"
#include "decomp/single_scan.h"
#include "power/fill.h"
#include "sim/fault_sim.h"
#include "sim/misr.h"

namespace nc {
namespace {

using bits::TestSet;
using bits::TritVector;

struct Flow {
  circuit::Netlist netlist;
  std::vector<sim::Fault> faults;
  TestSet cubes;
  double atpg_coverage = 0.0;
};

Flow run_atpg_flow(std::uint64_t seed) {
  // Wide scan (many flops relative to gates) keeps the cubes X-rich, the
  // regime the paper's test sets live in.
  circuit::GeneratorConfig cfg;
  cfg.num_inputs = 16;
  cfg.num_flops = 40;
  cfg.num_gates = 220;
  cfg.seed = seed;
  Flow flow{circuit::generate_circuit(cfg), {}, {}, 0.0};
  flow.faults = sim::collapsed_fault_list(flow.netlist);
  // Skip merge compaction: it densifies the cubes (fewer X), which is the
  // regime the paper's X-rich MinTest sets explicitly avoid.
  atpg::AtpgConfig acfg;
  acfg.compact = false;
  const atpg::AtpgResult result =
      atpg::generate_tests(flow.netlist, flow.faults, acfg);
  flow.cubes = result.tests;
  sim::FaultSimulator fsim(flow.netlist);
  flow.atpg_coverage =
      fsim.run(flow.cubes, flow.faults).coverage_percent();
  return flow;
}

TEST(Integration, CompressDecodeKeepsFaultCoverage) {
  const Flow flow = run_atpg_flow(21);
  ASSERT_GT(flow.atpg_coverage, 80.0);

  const codec::NineCoded coder(8);
  const TritVector td = flow.cubes.flatten();
  const TritVector te = coder.encode(td);
  EXPECT_LT(te.size(), td.size());  // the cubes must actually compress

  const decomp::SingleScanDecoder decoder(coder, 8);
  const decomp::DecoderTrace trace = decoder.run(te, td.size());
  const TestSet decoded = TestSet::unflatten(
      trace.scan_stream, flow.cubes.pattern_count(),
      flow.cubes.pattern_length());

  // Coverage through the decompressed patterns equals the ATPG coverage:
  // the decoder reproduced every care bit, and filled bits can only help.
  sim::FaultSimulator fsim(flow.netlist);
  const double decoded_coverage =
      fsim.run(decoded, flow.faults).coverage_percent();
  EXPECT_GE(decoded_coverage, flow.atpg_coverage - 1e-9);
}

TEST(Integration, RandomFilledLeftoverXCanOnlyHelpCoverage) {
  const Flow flow = run_atpg_flow(22);
  const codec::NineCoded coder(16);  // big K -> plenty of leftover X
  const TritVector td = flow.cubes.flatten();
  const TritVector decoded = coder.decode(coder.encode(td), td.size());
  const TestSet survived = TestSet::unflatten(
      decoded, flow.cubes.pattern_count(), flow.cubes.pattern_length());
  ASSERT_GT(survived.x_count(), 0u);

  const TestSet filled =
      power::fill(survived, power::FillStrategy::kRandom, 5);
  sim::FaultSimulator fsim(flow.netlist);
  EXPECT_GE(fsim.run(filled, flow.faults).coverage_percent(),
            fsim.run(survived, flow.faults).coverage_percent() - 1e-9);
}

TEST(Integration, MultiScanDeliversSamePatternsThroughStitchedChains) {
  const Flow flow = run_atpg_flow(23);
  const std::size_t chains = 4;

  // Abstract multi-scan decode of the scan-cell columns...
  const circuit::ScanChains sc =
      circuit::stitch_scan_chains(flow.netlist, chains);
  // Build the flop-only test set (columns after the PIs).
  TestSet flop_cubes(flow.cubes.pattern_count(), sc.cell_count());
  const std::size_t pi = flow.netlist.inputs().size();
  for (std::size_t p = 0; p < flow.cubes.pattern_count(); ++p)
    for (std::size_t c = 0; c < sc.cell_count(); ++c)
      flop_cubes.set(p, c, flow.cubes.at(p, pi + c));

  const codec::NineCoded coder(8);
  const auto report =
      decomp::run_multi_scan_single_pin(flop_cubes, chains, coder, 8);

  // ...must match the netlist-level chain streams cell for cell.
  for (std::size_t p = 0; p < flop_cubes.pattern_count(); ++p) {
    const auto streams =
        circuit::chain_streams(flow.netlist, sc, flow.cubes.pattern(p));
    for (std::size_t c = 0; c < chains; ++c) {
      const std::size_t depth = sc.depth();
      for (std::size_t d = 0; d < sc.chains[c].size(); ++d) {
        const bits::Trit want = streams[c].get(d);
        if (!bits::is_care(want)) continue;
        EXPECT_EQ(report.chain_streams[c].get(p * depth + d), want)
            << "pattern " << p << " chain " << c << " depth " << d;
      }
    }
  }
}

TEST(Integration, SignatureTestingAfterDecompression) {
  // The response side: decompressed + filled patterns produce a golden MISR
  // signature; injected detected faults must disturb it.
  const circuit::Netlist nl = circuit::samples::s27();
  const auto faults = sim::collapsed_fault_list(nl);
  const atpg::AtpgResult result = atpg::generate_tests(nl, faults);

  const codec::NineCoded coder(4);
  const TritVector td = result.tests.flatten();
  const TritVector decoded = coder.decode(coder.encode(td), td.size());
  const TestSet applied = power::fill(
      TestSet::unflatten(decoded, result.tests.pattern_count(),
                         result.tests.pattern_length()),
      power::FillStrategy::kRandom, 9);

  const sim::Misr misr = sim::Misr::standard(20);
  const std::uint64_t golden = sim::good_signature(nl, applied, misr);
  sim::FaultSimulator fsim(nl);
  const auto detected = fsim.run(applied, faults);
  std::size_t checked = 0;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (!detected.detected[f]) continue;
    EXPECT_NE(sim::faulty_signature(nl, applied, misr, faults[f]), golden)
        << faults[f].to_string(nl);
    ++checked;
  }
  EXPECT_GT(checked, 10u);
}

TEST(Integration, SerializedStreamSurvivesDiskRoundTrip) {
  const Flow flow = run_atpg_flow(24);
  const codec::NineCoded coder(8);
  const TritVector td = flow.cubes.flatten();
  const TritVector te = coder.encode(td);

  const std::string path = "/tmp/nc_integration_stream.bin";
  bits::save_trits_file(path, te);
  const TritVector loaded = bits::load_trits_file(path);
  EXPECT_EQ(loaded, te);
  EXPECT_TRUE(td.covered_by(coder.decode(loaded, td.size())));
  std::remove(path.c_str());
}

TEST(Integration, FrequencyDirectedEndToEnd) {
  const Flow flow = run_atpg_flow(25);
  const TritVector td = flow.cubes.flatten();
  const codec::NineCoded tuned = codec::NineCoded::tuned_for(td, 8);
  const TritVector te = tuned.encode(td);
  const decomp::SingleScanDecoder decoder(tuned, 8);
  EXPECT_TRUE(td.covered_by(decoder.run(te, td.size()).scan_stream));
}

}  // namespace
}  // namespace nc
