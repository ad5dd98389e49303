// Ablation: why split the block into two halves at all? Compare against a
// "3C" whole-block code (classes: 0-compatible '0', 1-compatible '10',
// mismatch '11'+K raw bits). Expected shape: the half split pays for its
// extra codewords by rescuing half of every block whose other half
// mismatches -- 9C beats 3C at every K on realistic cubes, and the gap
// widens with K (bigger blocks mismatch more often).
#include <iostream>

#include "bench_common.h"
#include "codec/nine_coded.h"
#include "report/table.h"

namespace {

/// |TE| of the whole-block 3C code: blocks classified with the same
/// compatibility rules, sizes 1 / 2 / 2+K.
std::size_t three_coded_bits(const nc::bits::TritVector& td, std::size_t k) {
  nc::bits::TritVector padded = td;
  if (padded.size() % k != 0)
    padded.append_run(k - padded.size() % k, nc::bits::Trit::X);
  std::size_t total = 0;
  for (std::size_t b = 0; b < padded.size(); b += k) {
    const auto kind = nc::codec::NineCoded::scan_half(padded, b, k).kind;
    if (kind.zero_compatible)
      total += 1;
    else if (kind.one_compatible)
      total += 2;
    else
      total += 2 + k;
  }
  return total;
}

}  // namespace

int main() {
  nc::report::Table out(
      "ABLATION -- two-half 9C vs whole-block 3C, CR% (9C / 3C)");
  std::vector<std::string> header = {"circuit"};
  const std::vector<std::size_t> ks = {8, 16, 32};
  for (std::size_t k : ks) header.push_back("K=" + std::to_string(k));
  out.set_header(header);

  bool nine_always_wins = true;
  for (const auto& profile : nc::gen::iscas89_profiles()) {
    const nc::bits::TritVector td =
        nc::bench::benchmark_cubes(profile).flatten();
    out.row().add(profile.name);
    for (std::size_t k : ks) {
      const double nine = nc::codec::compression_ratio_percent(
          td.size(), nc::codec::NineCoded(k).encode(td).size());
      const double three = nc::codec::compression_ratio_percent(
          td.size(), three_coded_bits(td, k));
      nine_always_wins = nine_always_wins && nine > three;
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.1f / %.1f", nine, three);
      out.add(std::string(buf));
    }
  }
  out.print(std::cout);
  std::cout << "\n9C beats the whole-block code everywhere: "
            << (nine_always_wins ? "yes" : "NO")
            << " -- the half split is what makes large blocks viable.\n";
  return nine_always_wins ? 0 : 1;
}
