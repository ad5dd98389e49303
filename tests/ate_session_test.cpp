#include "decomp/ate_session.h"

#include <gtest/gtest.h>

#include "atpg/atpg.h"
#include "circuit/samples.h"
#include "codec/nine_coded.h"
#include "decomp/single_scan.h"
#include "sim/fault_sim.h"

namespace nc::decomp {
namespace {

using bits::TestSet;
using circuit::Netlist;

struct Fixture {
  Netlist netlist = circuit::samples::s27();
  std::vector<sim::Fault> faults = sim::collapsed_fault_list(netlist);
  TestSet tests;

  Fixture() {
    atpg::AtpgConfig cfg;
    tests = atpg::generate_tests(netlist, faults, cfg).tests;
  }
};

TEST(AteSession, FaultFreeDevicePasses) {
  Fixture fx;
  const SessionResult r = run_test_session(fx.netlist, fx.tests, {});
  EXPECT_TRUE(r.device_passes());
  EXPECT_EQ(r.patterns_applied, fx.tests.pattern_count());
  EXPECT_EQ(r.failing_patterns, 0u);
  EXPECT_EQ(r.pattern_failed.size(), fx.tests.pattern_count());
}

TEST(AteSession, EveryCoveredFaultFailsTheSession) {
  Fixture fx;
  sim::FaultSimulator fsim(fx.netlist);
  const auto cover = fsim.run(fx.tests, fx.faults);
  for (std::size_t f = 0; f < fx.faults.size(); ++f) {
    if (!cover.detected[f]) continue;
    const SessionResult r =
        run_test_session(fx.netlist, fx.tests, {}, fx.faults[f]);
    EXPECT_FALSE(r.device_passes()) << fx.faults[f].to_string(fx.netlist);
  }
}

TEST(AteSession, FailingPatternMatchesFaultSim) {
  Fixture fx;
  sim::FaultSimulator fsim(fx.netlist);
  // The device sees the *decoded* patterns (the decoder fills matched-half
  // X bits), so compare against fault simulation of exactly those.
  const codec::NineCoded coder(8);
  const bits::TritVector td = fx.tests.flatten();
  const TestSet applied =
      TestSet::unflatten(coder.decode(coder.encode(td), td.size()),
                         fx.tests.pattern_count(), fx.tests.pattern_length());
  const auto cover = fsim.run(applied, fx.faults);
  // For each detected fault, the first failing pattern in the session is
  // the first detecting pattern the fault simulator reports.
  for (std::size_t f = 0; f < fx.faults.size(); ++f) {
    if (!cover.detected[f]) continue;
    const SessionResult r =
        run_test_session(fx.netlist, fx.tests, {}, fx.faults[f]);
    std::size_t first = r.pattern_failed.size();
    for (std::size_t p = 0; p < r.pattern_failed.size(); ++p)
      if (r.pattern_failed[p]) {
        first = p;
        break;
      }
    EXPECT_EQ(first, cover.first_detecting_pattern[f])
        << fx.faults[f].to_string(fx.netlist);
  }
}

TEST(AteSession, CycleAccountingIsDecoderPlusCaptures) {
  Fixture fx;
  const SessionConfig cfg{.block_size = 8, .p = 4};
  const SessionResult r = run_test_session(fx.netlist, fx.tests, cfg);

  const codec::NineCoded coder(cfg.block_size);
  const bits::TritVector td = fx.tests.flatten();
  const bits::TritVector te = coder.encode(td);
  const SingleScanDecoder decoder(coder, cfg.p);
  const DecoderTrace trace = decoder.run(te, td.size());
  EXPECT_EQ(r.soc_cycles, trace.soc_cycles + fx.tests.pattern_count());
  EXPECT_EQ(r.ate_bits, te.size());
}

TEST(AteSession, EmptyTestSetTriviallyPasses) {
  Fixture fx;
  const SessionResult r = run_test_session(fx.netlist, TestSet{}, {});
  EXPECT_TRUE(r.device_passes());
  EXPECT_EQ(r.patterns_applied, 0u);
  EXPECT_EQ(r.soc_cycles, 0u);
}

TEST(AteSession, UndetectedFaultSlipsThrough) {
  // Test escapes are real: a fault the pattern set does not cover must
  // leave the session passing -- that is what coverage numbers mean.
  Fixture fx;
  sim::FaultSimulator fsim(fx.netlist);
  // Use a single weak pattern so some faults stay undetected.
  const TestSet weak = TestSet::from_strings({"0000000"});
  const auto cover = fsim.run(weak, fx.faults);
  bool found_escape = false;
  for (std::size_t f = 0; f < fx.faults.size() && !found_escape; ++f) {
    if (cover.detected[f]) continue;
    const SessionResult r =
        run_test_session(fx.netlist, weak, {}, fx.faults[f]);
    EXPECT_TRUE(r.device_passes());
    found_escape = true;
  }
  EXPECT_TRUE(found_escape);
}

}  // namespace
}  // namespace nc::decomp
