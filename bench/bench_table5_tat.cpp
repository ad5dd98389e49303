// Reproduces Table V: test-application-time reduction TAT% for SoC scan
// clocks p = 8, 16, 24 times the ATE clock. The analytic model is cross-
// checked cycle-for-cycle against the decoder simulator on every circuit.
// Expected shape: TAT% is bounded above by CR% and approaches it as p grows.
#include <iostream>

#include "bench_common.h"
#include "codec/nine_coded.h"
#include "decomp/single_scan.h"
#include "decomp/timing.h"
#include "report/table.h"

int main() {
  const std::vector<unsigned> ps = {8, 16, 24};
  const std::size_t k = 8;
  const nc::codec::NineCoded coder(k);

  nc::report::Table out(
      "TABLE V -- test application time reduction TAT% (K=8)");
  out.set_header({"circuit", "CR%", "p=8", "p=16", "p=24", "sim==model"});

  std::vector<double> sum(ps.size(), 0.0);
  double sum_cr = 0.0;
  bool all_match = true;
  for (const auto& profile : nc::gen::iscas89_profiles()) {
    const nc::bits::TritVector td =
        nc::bench::benchmark_cubes(profile).flatten();
    nc::bits::TritVector te;
    const auto stats = coder.analyze(td, &te);
    out.row().add(profile.name).add(stats.compression_ratio(), 2);
    sum_cr += stats.compression_ratio();
    bool match = true;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const double tat = nc::decomp::tat_percent(stats, coder.table(), ps[i]);
      out.add(tat, 2);
      sum[i] += tat;
      const nc::decomp::SingleScanDecoder decoder(coder, ps[i]);
      match = match && decoder.run(te, td.size()).soc_cycles ==
                           nc::decomp::comp_soc_cycles(stats, coder.table(),
                                                       ps[i]);
    }
    out.add(match ? "yes" : "NO");
    all_match = all_match && match;
  }
  out.separator().row().add("Avg");
  const double n = static_cast<double>(nc::gen::iscas89_profiles().size());
  out.add(sum_cr / n, 2);
  for (std::size_t i = 0; i < ps.size(); ++i) out.add(sum[i] / n, 2);
  out.add(all_match ? "yes" : "NO");
  out.print(std::cout);

  std::cout << "\nTAT% is bounded by CR% and approaches it as p grows "
               "(paper: avg TAT ~56% already at p=8 on a slow ATE).\n";
  return all_match ? 0 : 1;
}
