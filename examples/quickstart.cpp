// Quickstart: compress a precomputed test set with the 9C code, inspect the
// statistics behind the paper's tables, and verify the round trip.
//
//   ./quickstart [K]
#include <cstdlib>
#include <iostream>

#include "codec/nine_coded.h"
#include "decomp/single_scan.h"
#include "decomp/timing.h"
#include "gen/cube_gen.h"

int main(int argc, char** argv) {
  const std::size_t k = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8;

  // A test set in the style of the paper's benchmarks: mostly don't-cares.
  const nc::gen::BenchmarkProfile& profile = nc::gen::iscas89_profile("s5378");
  const nc::bits::TestSet cubes = nc::gen::calibrated_cubes(profile);
  const nc::bits::TritVector td = cubes.flatten();
  std::cout << "test set " << profile.name << ": " << cubes.pattern_count()
            << " patterns x " << cubes.pattern_length() << " cells = "
            << td.size() << " bits, " << 100.0 * cubes.x_fraction()
            << "% X\n\n";

  // Encode.
  const nc::codec::NineCoded coder(k);
  nc::bits::TritVector te;
  const nc::codec::NineCodedStats stats = coder.analyze(td, &te);
  std::cout << coder.name() << ": |TE| = " << stats.encoded_bits
            << " bits, CR = " << stats.compression_ratio() << "%\n";
  std::cout << "leftover don't-cares: " << stats.leftover_x << " ("
            << stats.leftover_x_percent() << "% of TD)\n";
  std::cout << "codeword counts N1..N9:";
  for (std::size_t n : stats.counts) std::cout << ' ' << n;
  std::cout << "\n\n";

  // Decode in software and through the cycle-accurate decoder model.
  const nc::bits::TritVector decoded = coder.decode(te, td.size());
  std::cout << "software decode covers every care bit: "
            << (td.covered_by(decoded) ? "yes" : "NO") << '\n';

  const unsigned p = 8;  // SoC scan clock is 8x the ATE clock
  const nc::decomp::SingleScanDecoder decoder(coder, p);
  const nc::decomp::DecoderTrace trace = decoder.run(te, td.size());
  std::cout << "on-chip decoder model: " << trace.soc_cycles
            << " SoC cycles (vs " << nc::decomp::nocomp_soc_cycles(td.size(), p)
            << " uncompressed), TAT = "
            << nc::decomp::tat_percent(stats, coder.table(), p) << "%\n";
  std::cout << "hardware decode matches software decode: "
            << (trace.scan_stream == decoded ? "yes" : "NO") << '\n';
  return 0;
}
