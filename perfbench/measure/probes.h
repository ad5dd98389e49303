// Per-layer probes of the traced run: the benchmark times, from its own
// files, the public calls each layer makes on a real request, on the same
// generated inputs the workload sends through the program.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bits/test_set.h"
#include "harness.h"
#include "report/json.h"
#include "serve/frame.h"

namespace perfbench {

struct ProbeInputs {
  /// Test set for the bits/codec stages of `ninec compress`/`decompress`,
  /// coded at block size `big_k`.
  const nc::bits::TestSet* big_td = nullptr;
  std::size_t big_k = 8;
  /// Serve requests, alternating encode and decode (build_workloads order),
  /// all under `spec`.
  const std::vector<Item>* items = nullptr;
  nc::serve::CodecSpec spec;
  /// Capacity of the probed L1 cache and skew of the keys drawn from it.
  std::size_t l1_bytes = 256 << 10;
  double zipf_s = 1.1;
  /// Test set the tuner's fitness evaluations run on.
  const nc::bits::TestSet* tune_td = nullptr;
  /// Scratch directory for the probes' files and store.
  std::string dir;
  /// Store directory to time open/replay on; empty = the probe's own.
  std::string populated_store;
  bool smoke = false;
  std::uint64_t seed = 1;
};

/// Runs every probe; returns {"<layer>.<call>_<unit>": [samples...]}.
/// Throws std::runtime_error if a probed call returns a wrong result.
nc::report::Json run_probes(const ProbeInputs& in, Tracer& tracer);

}  // namespace perfbench
