#include "decomp/multi_scan.h"

#include <algorithm>
#include <stdexcept>

#include "codec/decode_error.h"

namespace nc::decomp {

using bits::TestSet;
using bits::Trit;
using bits::TritVector;

namespace {

/// Splits a decoded scan stream into `chains` per-chain streams, undoing the
/// vertical slicing (bit i of the stream belongs to chain i mod chains).
std::vector<TritVector> deinterleave(const TritVector& stream,
                                     std::size_t chains) {
  std::vector<TritVector> out(chains);
  for (std::size_t i = 0; i < stream.size(); ++i)
    out[i % chains].push_back(stream.get(i));
  return out;
}

}  // namespace

ArchitectureReport run_single_scan(const TestSet& td,
                                   const codec::NineCoded& coder, unsigned p,
                                   core::Watchdog* watchdog) {
  ArchitectureReport report;
  report.name = "single-scan single-pin (Fig. 4a)";
  report.ate_pins = 1;
  report.decoders = 1;
  report.chains = 1;

  const TritVector stream = td.flatten();
  const TritVector te = coder.encode(stream);
  const SingleScanDecoder decoder(coder, p);
  DecoderTrace trace;
  try {
    trace = decoder.run(te, stream.size(), watchdog);
  } catch (const codec::DecodeError& e) {
    throw e.with_pin(0);
  }

  report.soc_cycles = trace.soc_cycles;
  report.encoded_bits = te.size();
  report.compression_ratio =
      codec::compression_ratio_percent(stream.size(), te.size());
  report.chain_streams = {trace.scan_stream};
  return report;
}

ArchitectureReport run_multi_scan_single_pin(const TestSet& td,
                                             std::size_t chains,
                                             const codec::NineCoded& coder,
                                             unsigned p,
                                             core::Watchdog* watchdog) {
  if (chains == 0) throw std::invalid_argument("need at least one chain");
  ArchitectureReport report;
  report.name = "multi-scan single-pin (Fig. 4b)";
  report.ate_pins = 1;
  report.decoders = 1;
  report.chains = chains;

  // Vertical slicing: the decoder output fills the m-bit staging shifter;
  // every m bits parallel-load one slice into the chains. Decoder timing is
  // identical to the single-scan case (the paper's claim): the staging
  // shifter runs in the SoC domain in lockstep with D_out.
  const TritVector stream = td.flatten_sliced(chains);
  const TritVector te = coder.encode(stream);
  const SingleScanDecoder decoder(coder, p);
  DecoderTrace trace;
  try {
    trace = decoder.run(te, stream.size(), watchdog);
  } catch (const codec::DecodeError& e) {
    throw e.with_pin(0);  // the architecture's only ATE pin
  }

  report.soc_cycles = trace.soc_cycles;
  report.encoded_bits = te.size();
  report.compression_ratio =
      codec::compression_ratio_percent(stream.size(), te.size());
  report.chain_streams = deinterleave(trace.scan_stream, chains);
  return report;
}

ArchitectureReport run_multi_scan_banked(const TestSet& td, std::size_t chains,
                                         const codec::NineCoded& coder,
                                         unsigned p,
                                         core::Watchdog* watchdog) {
  const std::size_t k = coder.block_size();
  if (chains == 0 || chains % k != 0)
    throw std::invalid_argument(
        "banked architecture needs chains to be a multiple of K");
  const std::size_t banks = chains / k;

  ArchitectureReport report;
  report.name = "multi-scan banked (Fig. 4c)";
  report.ate_pins = banks;
  report.decoders = banks;
  report.chains = chains;
  report.chain_streams.resize(chains);

  // Each bank owns K consecutive chains and receives its own 9C stream on
  // its own pin; the banks run in parallel, so test time is the slowest
  // bank's time.
  const std::size_t depth = (td.pattern_length() + chains - 1) / chains;
  const SingleScanDecoder decoder(coder, p);
  std::size_t original_total = 0;
  for (std::size_t bank = 0; bank < banks; ++bank) {
    // The bank's slice of TD: for each pattern and each depth position, the
    // K cells of chains [bank*K, (bank+1)*K).
    TritVector slice;
    for (std::size_t row = 0; row < td.pattern_count(); ++row)
      for (std::size_t d = 0; d < depth; ++d)
        for (std::size_t c = 0; c < k; ++c) {
          const std::size_t chain = bank * k + c;
          const std::size_t cell = chain * depth + d;
          slice.push_back(cell < td.pattern_length() ? td.at(row, cell)
                                                     : Trit::X);
        }
    const TritVector te = coder.encode(slice);
    DecoderTrace trace;
    try {
      // One shared watchdog across banks: the budget bounds the whole
      // architecture run, not each pin separately.
      trace = decoder.run(te, slice.size(), watchdog);
    } catch (const codec::DecodeError& e) {
      throw e.with_pin(bank);  // each bank streams on its own ATE pin
    }
    report.encoded_bits += te.size();
    report.soc_cycles = std::max(report.soc_cycles, trace.soc_cycles);
    original_total += slice.size();
    const std::vector<TritVector> bank_chains =
        deinterleave(trace.scan_stream, k);
    for (std::size_t c = 0; c < k; ++c)
      report.chain_streams[bank * k + c] = bank_chains[c];
  }
  report.compression_ratio =
      codec::compression_ratio_percent(original_total, report.encoded_bits);
  return report;
}

}  // namespace nc::decomp
