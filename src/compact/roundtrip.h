// Closed-loop tester round trip: both directions of the pin-count budget.
//
// The paper compresses the stimulus side; this driver closes the loop the
// way a reduced-pin-count tester does:
//
//   TD (ATPG cubes or a parsed test set)
//     -> 9C encode                      (compressed stimulus, |TE| bits in)
//     -> 9C decode                      (the decompressor's legal fill of TD)
//     -> scan simulation                (good machine + every fault)
//     -> X-code compaction              (m of n response bits out per cycle)
//     -> per-fault verdicts             (ResponseAnalyzer)
//
// The decoded stimulus is exactly what the on-chip decompressor applies:
// compatible 9C halves collapse to constants, so it is a fill of TD (every
// care bit preserved, fewer X) -- fault coverage is measured on what the
// hardware really shifts in, not on the pre-compression cubes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bits/test_set.h"
#include "circuit/netlist.h"
#include "codec/nine_coded.h"
#include "compact/analyzer.h"
#include "compact/xcode.h"
#include "sim/fault.h"

namespace nc::compact {

struct RoundtripConfig {
  /// 9C block size K for the stimulus side.
  std::size_t block_size = 8;
  /// Response-side X-code; `inputs` is filled in from the circuit.
  XCodeSpec xcode;
  AnalyzerConfig analyzer;
};

struct RoundtripResult {
  // Stimulus side.
  std::size_t patterns = 0;
  std::size_t pattern_width = 0;
  std::uint64_t td_bits = 0;  // |TD|
  std::uint64_t te_bits = 0;  // |TE|
  double compression_percent = 0.0;

  // Response side.
  XCodeKind xcode_kind = XCodeKind::kIdentity;
  AnalyzerReport report;
};

/// Runs the full loop: encodes `td`, decodes it back (throws
/// codec::DecodeError on a corrupt stream -- impossible here by
/// construction, but the decode is the real validating one), simulates the
/// decoded stimulus against `faults` and scores the compacted responses.
RoundtripResult run_roundtrip(const circuit::Netlist& netlist,
                              const bits::TestSet& td,
                              const std::vector<sim::Fault>& faults,
                              const RoundtripConfig& config = {});

}  // namespace nc::compact
