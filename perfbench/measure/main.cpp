// perfbench_measure -- measurement half of the repository benchmark.
//
//   perfbench_measure --workload cli_bulk|serve_miss|serve_warm|tune_iscas
//                    --seed N --seconds S --trace 0|1 [--smoke]
//                    --ninec PATH --work DIR --out FILE
//
// Runs one workload against the `ninec` binary at PATH, checks every
// output, and writes the raw samples, counters, server Stats replies and
// (with --trace 1) per-layer probe samples and spans to FILE as JSON.
// run.py builds this program, runs it and turns FILE into the metrics.
// Exit status: 0 = FILE written (failures are counted inside it),
// 1 = the run could not complete, 2 = usage error, 3 = sanitizer build.
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "report/json.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench_measure: " << error << '\n'
            << "usage: perfbench_measure --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] --ninec PATH --work DIR --out FILE\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::Options;
  if (std::string(PERFBENCH_SANITIZE).size() > 0) {
    std::cerr << "perfbench_measure: refusing to report from an NC_SANITIZE="
              << PERFBENCH_SANITIZE
              << " build; it measures a different program\n";
    return 3;
  }
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      args["smoke"] = "1";
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key.substr(2)] = argv[++i];
    } else {
      usage("unexpected argument " + key);
    }
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "ninec", "work", "out"})
    if (args.count(required) == 0) usage(std::string("missing --") + required);

  Options opt;
  opt.workload = args["workload"];
  opt.ninec = args["ninec"];
  opt.work = args["work"];
  opt.smoke = args.count("smoke") > 0;
  try {
    opt.seed = std::stoull(args["seed"]);
    opt.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    usage("--seed and --seconds take numbers");
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (args["trace"] != "0" && args["trace"] != "1")
    usage("--trace takes 0 or 1");
  opt.trace = args["trace"] == "1";

  using Workload = void (*)(perfbench::Run&);
  const std::map<std::string, Workload> workloads = {
      {"cli_bulk", perfbench::run_cli_bulk},
      {"serve_miss", perfbench::run_serve_miss},
      {"serve_warm", perfbench::run_serve_warm},
      {"tune_iscas", perfbench::run_tune_iscas}};
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) usage("unknown workload " + opt.workload);

  try {
    // First, while this process is still small (see Launcher).
    perfbench::Launcher launcher;
    std::filesystem::create_directories(opt.work);
    perfbench::Run run(opt, launcher);
    run.doc["workload"] = opt.workload;
    run.doc["seed"] = static_cast<std::uint64_t>(opt.seed);
    run.doc["seconds"] = opt.seconds;
    run.doc["trace"] = opt.trace;
    run.doc["smoke"] = opt.smoke;
    run.doc["build"]["type"] = PERFBENCH_BUILD_TYPE;
    run.doc["build"]["compiler"] = __VERSION__;
    it->second(run);
    run.doc["attempted"] = run.attempted;
    run.doc["failed"] = run.failed;
    run.doc["failures"] = run.failures;
    if (opt.trace) run.doc["trace_spans"] = run.tracer.to_json();
    nc::report::write_json_file(args["out"], run.doc);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_measure: " << opt.workload << ": " << e.what()
              << '\n';
    return 1;
  }
  return 0;
}
