#include "compact/roundtrip.h"

#include <stdexcept>

#include "codec/nine_coded.h"

namespace nc::compact {

RoundtripResult run_roundtrip(const circuit::Netlist& netlist,
                              const bits::TestSet& td,
                              const std::vector<sim::Fault>& faults,
                              const RoundtripConfig& config) {
  if (td.pattern_length() != netlist.pattern_width())
    throw std::invalid_argument("roundtrip: TD width (" +
                                std::to_string(td.pattern_length()) +
                                ") != circuit pattern width (" +
                                std::to_string(netlist.pattern_width()) + ")");

  const codec::NineCoded coder(config.block_size);
  const bits::TritVector te = coder.encode(td.flatten());
  const bits::TritVector decoded = coder.decode(te, td.bit_count());
  // The decoded stream is the decompressor's legal fill of TD; the scan
  // chains shift in exactly these values.
  const bits::TestSet applied = bits::TestSet::unflatten(
      decoded, td.pattern_count(), td.pattern_length());

  XCodeSpec spec = config.xcode;
  spec.inputs = netlist.response_width();
  const ResponseAnalyzer analyzer(netlist, XCode::build(spec),
                                  config.analyzer);

  RoundtripResult result;
  result.patterns = td.pattern_count();
  result.pattern_width = td.pattern_length();
  result.td_bits = td.bit_count();
  result.te_bits = te.size();
  result.compression_percent =
      result.td_bits == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(result.te_bits) /
                               static_cast<double>(result.td_bits));
  result.xcode_kind = spec.kind;
  result.report = analyzer.analyze(applied, faults);
  return result;
}

}  // namespace nc::compact
