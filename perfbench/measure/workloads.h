// The four benchmark workloads. Each drives the shipped `ninec` binary from
// outside, checks every output, and fills the raw-result document that
// run.py turns into metrics.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"
#include "report/json.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny pools, one set-up, one probe iteration: validates the harness in
  /// a fraction of a second per workload.
  bool smoke = false;
  std::string ninec;  // path of the binary under test
  std::string work;   // scratch directory, relative to the checkout
};

/// Raw results of one run (the schema run.py reads).
struct Run {
  Run(const Options& o, Launcher& l) : opt(o), launcher(l), tracer(o.trace) {}

  const Options& opt;
  Launcher& launcher;  // runs the CLI commands
  Tracer tracer;
  nc::report::Json doc = nc::report::Json::object();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  nc::report::Json failures = nc::report::Json::array();

  void fail(const std::string& why);
  /// Folds a closed-loop result's counts and failures into the run.
  void absorb(const LoadResult& r);
};

void run_cli_bulk(Run& run);
void run_serve_miss(Run& run);
void run_serve_warm(Run& run);
void run_tune_iscas(Run& run);

}  // namespace perfbench
