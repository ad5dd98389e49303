// Differential tests for the parallel sharded pipeline: the parallel paths
// (any jobs, any shard count) must be bit-identical to their serial jobs=1
// counterparts, a 1-shard container must degenerate to the plain codec
// stream, and the pipelined ATE session must report exactly what the serial
// session reports. Plus the determinism guarantee: containers depend only
// on (codec, test set, shard count) -- never on thread count, scheduling or
// repetition.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "atpg/atpg.h"
#include "circuit/samples.h"
#include "codec/nine_coded.h"
#include "codec/sharded.h"
#include "decomp/ate_session.h"
#include "gen/cube_gen.h"
#include "gen/profiles.h"
#include "reference/nine_coded_reference.h"
#include "sim/fault_sim.h"

namespace nc::codec {
namespace {

using bits::TestSet;
using bits::TritVector;

const std::vector<std::size_t> kJobSweep = {2, 4, 8};

/// The pipeline under test always runs the production coder. The sweep
/// picks the coder of its serial oracle: production itself ("bitplane") or
/// the per-trit reference ("scalar", tests/reference), so the parallel
/// production pipeline is also held to the specification bit for bit.
/// CTest names each case with GetParam()'s bytes, so the one-byte values 1
/// and 2 are part of the test IDs and must stay.
enum class Oracle : unsigned char { kScalarReference = 1, kBitplane = 2 };

class ParallelPipelineSweep : public ::testing::TestWithParam<Oracle> {
 protected:
  /// The serial oracle for `coder`: a copy of it, or the reference with
  /// its K and table.
  std::unique_ptr<Codec> oracle(const NineCoded& coder) const {
    if (GetParam() == Oracle::kBitplane)
      return std::make_unique<NineCoded>(coder);
    return std::make_unique<ReferenceCodec>(coder);
  }
};

std::vector<std::size_t> shard_sweep(std::size_t patterns) {
  return {1, 3, 16, patterns};
}

/// A small randomized test set (not tied to any profile's structure).
TestSet random_cubes(std::uint64_t seed, std::size_t patterns,
                     std::size_t width, double x_density) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  TestSet ts(patterns, width);
  for (std::size_t p = 0; p < patterns; ++p)
    for (std::size_t c = 0; c < width; ++c) {
      if (uni(rng) < x_density) continue;  // stays X
      ts.set(p, c, bits::trit_from_bit(rng() & 1u));
    }
  return ts;
}

TEST_P(ParallelPipelineSweep, EncodeIsBitIdenticalToSerialOnEveryIscasSet) {
  const NineCoded coder(8);
  const auto serial_coder = oracle(coder);
  for (const auto& profile : gen::iscas89_profiles()) {
    const TestSet td = gen::calibrated_cubes(profile, /*seed=*/1);
    for (const std::size_t shards : shard_sweep(td.pattern_count())) {
      const TritVector serial =
          encode_sharded(*serial_coder, td, shards, /*jobs=*/1);
      for (const std::size_t jobs : kJobSweep) {
        const TritVector parallel = encode_sharded(coder, td, shards, jobs);
        ASSERT_TRUE(parallel == serial)
            << profile.name << " shards=" << shards << " jobs=" << jobs;
      }
    }
  }
}

TEST_P(ParallelPipelineSweep, DecodeReproducesSerialDecodeExactly) {
  const NineCoded coder(8);
  const auto serial_coder = oracle(coder);
  for (const auto& profile : gen::iscas89_profiles()) {
    const TestSet td = gen::calibrated_cubes(profile, /*seed=*/2);
    for (const std::size_t shards : shard_sweep(td.pattern_count())) {
      const TritVector container = encode_sharded(coder, td, shards);
      const TestSet serial =
          decode_sharded(*serial_coder, container, /*jobs=*/1);
      // The decode is a legal expansion of the cubes (the 9C contract).
      ASSERT_TRUE(td.flatten().covered_by(serial.flatten())) << profile.name;
      for (const std::size_t jobs : kJobSweep) {
        const TestSet parallel = decode_sharded(coder, container, jobs);
        ASSERT_TRUE(parallel == serial)
            << profile.name << " shards=" << shards << " jobs=" << jobs;
      }
    }
  }
}

TEST_P(ParallelPipelineSweep, RandomizedCubeSetsRoundTripAtEveryShardCount) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t patterns = 1 + rng() % 40;
    const std::size_t width = 1 + rng() % 90;
    const double density = (trial % 4) * 0.3;
    const TestSet td = random_cubes(rng(), patterns, width, density);
    const NineCoded coder(trial % 2 == 0 ? 8 : 4);
    const auto serial_coder = oracle(coder);
    for (const std::size_t shards : shard_sweep(patterns)) {
      const TritVector serial = encode_sharded(*serial_coder, td, shards, 1);
      for (const std::size_t jobs : kJobSweep)
        ASSERT_TRUE(encode_sharded(coder, td, shards, jobs) == serial)
            << "trial " << trial << " shards=" << shards << " jobs=" << jobs;
      const TestSet back = decode_sharded(coder, serial, 4);
      ASSERT_EQ(back.pattern_count(), patterns);
      ASSERT_EQ(back.pattern_length(), width);
      ASSERT_TRUE(td.flatten().covered_by(back.flatten()));
      ASSERT_TRUE(back == decode_sharded(*serial_coder, serial, 1));
    }
  }
}

TEST_P(ParallelPipelineSweep, OneShardPayloadEqualsPlainCodecStream) {
  // Index stripping on a 1-shard container must yield exactly the serial
  // codec.encode() of the whole flattened set -- same padding, same bits.
  const NineCoded coder(8);
  const auto serial_coder = oracle(coder);
  for (const auto& profile : gen::iscas89_profiles()) {
    const TestSet td = gen::calibrated_cubes(profile, /*seed=*/3);
    const TritVector container = encode_sharded(coder, td, /*shards=*/1, 4);
    ASSERT_TRUE(strip_shard_index(container) ==
                serial_coder->encode(td.flatten()))
        << profile.name;
  }
}

TEST_P(ParallelPipelineSweep, ContainersAreDeterministicAcrossRunsAndThreadCounts) {
  // Same input + same shard count -> byte-identical container, across
  // repeated runs and every thread count (no iteration-order leakage).
  const NineCoded coder(8);
  const TestSet td = random_cubes(99, 33, 120, 0.6);
  const TritVector reference = encode_sharded(*oracle(coder), td, 5, 1);
  for (int run = 0; run < 3; ++run)
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                   std::size_t{3}, std::size_t{8}})
      ASSERT_TRUE(encode_sharded(coder, td, 5, jobs) == reference)
          << "run " << run << " jobs " << jobs;
}

TEST(ParallelPipeline, ShardPlanIsBalancedAndPatternAligned) {
  for (const std::size_t patterns : {0u, 1u, 7u, 99u, 100u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 16u, 250u}) {
      const auto plan = shard_plan(patterns, shards);
      ASSERT_GE(plan.size(), 1u);
      ASSERT_LE(plan.size(), std::max<std::size_t>(patterns, 1));
      std::size_t next = 0, lo = patterns, hi = 0;
      for (const auto& [first, count] : plan) {
        EXPECT_EQ(first, next);  // contiguous, in order
        next += count;
        lo = std::min(lo, count);
        hi = std::max(hi, count);
      }
      EXPECT_EQ(next, patterns);    // covers every pattern exactly once
      EXPECT_LE(hi - lo, 1u);       // balanced
      if (patterns > 0 && shards <= patterns) {
        EXPECT_EQ(plan.size(), shards);
      }
    }
  }
}

TEST_P(ParallelPipelineSweep, EmptyAndSinglePatternSetsSurvive) {
  const NineCoded coder(4);
  const auto serial_coder = oracle(coder);
  const TestSet empty;
  const TritVector c0 = encode_sharded(coder, empty, 4, 4);
  EXPECT_TRUE(c0 == encode_sharded(*serial_coder, empty, 4, 1));
  EXPECT_EQ(decode_sharded(coder, c0, 4).pattern_count(), 0u);

  const TestSet one = random_cubes(5, 1, 17, 0.5);
  const TritVector c1 = encode_sharded(coder, one, 16, 8);
  EXPECT_TRUE(c1 == encode_sharded(*serial_coder, one, 16, 1));
  const TestSet back = decode_sharded(coder, c1, 8);
  EXPECT_TRUE(one.flatten().covered_by(back.flatten()));
}

// ---------------------------------------------------------------- session

struct SessionFixture {
  circuit::Netlist netlist = circuit::samples::s27();
  std::vector<sim::Fault> faults = sim::collapsed_fault_list(netlist);
  bits::TestSet tests;

  SessionFixture() {
    atpg::AtpgConfig cfg;
    tests = atpg::generate_tests(netlist, faults, cfg).tests;
  }
};

TEST_P(ParallelPipelineSweep, PipelinedSessionMatchesSerialSession) {
  SessionFixture fx;
  const decomp::SessionResult serial =
      decomp::run_test_session(fx.netlist, fx.tests, {});
  // The serial session streams exactly the oracle's TE.
  EXPECT_EQ(serial.ate_bits,
            oracle(NineCoded(8))->encode(fx.tests.flatten()).size());

  for (const std::size_t jobs : kJobSweep) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                     fx.tests.pattern_count()}) {
      decomp::SessionConfig cfg;
      cfg.jobs = jobs;
      cfg.shards = shards;
      const decomp::SessionResult parallel =
          decomp::run_test_session(fx.netlist, fx.tests, cfg);
      EXPECT_EQ(parallel.patterns_applied, serial.patterns_applied);
      EXPECT_EQ(parallel.failing_patterns, serial.failing_patterns);
      EXPECT_EQ(parallel.pattern_failed, serial.pattern_failed);
      EXPECT_TRUE(parallel.device_passes());
      if (shards == 1) {
        // One shard = one TE: the accounting matches the paper's serial
        // model bit for bit, not just the verdicts.
        EXPECT_EQ(parallel.ate_bits, serial.ate_bits);
        EXPECT_EQ(parallel.soc_cycles, serial.soc_cycles);
      }
    }
  }
}

TEST_P(ParallelPipelineSweep, PipelinedSessionDetectsFaultsLikeSerial) {
  // Two guarantees, exercised on faulty devices where the decoded X-fill
  // actually shows up in the verdicts:
  //  1. shards=1 is the serial session: one TE, bit-identical stimulus,
  //     so every per-pattern verdict matches regardless of jobs.
  //  2. For a fixed shard count (>1 re-pads at shard boundaries, which may
  //     legally change X-fills vs the single-TE stream), verdicts are a
  //     pure function of the sharding -- never of jobs or scheduling.
  SessionFixture fx;
  const std::size_t oracle_te_bits =
      oracle(NineCoded(8))->encode(fx.tests.flatten()).size();
  for (std::size_t f = 0; f < fx.faults.size(); f += 3) {
    const decomp::SessionResult serial =
        decomp::run_test_session(fx.netlist, fx.tests, {}, fx.faults[f]);
    EXPECT_EQ(serial.ate_bits, oracle_te_bits);

    decomp::SessionConfig one_shard;
    one_shard.jobs = 8;
    one_shard.shards = 1;
    const decomp::SessionResult single = decomp::run_test_session(
        fx.netlist, fx.tests, one_shard, fx.faults[f]);
    EXPECT_EQ(single.pattern_failed, serial.pattern_failed)
        << fx.faults[f].to_string(fx.netlist);
    EXPECT_EQ(single.ate_bits, serial.ate_bits);

    decomp::SessionConfig sharded_ref;
    sharded_ref.jobs = 1;
    sharded_ref.shards = 3;
    const decomp::SessionResult reference = decomp::run_test_session(
        fx.netlist, fx.tests, sharded_ref, fx.faults[f]);
    // Sharded or not, the decoded stimulus covers the same cubes, so the
    // fault either fails some pattern in both runs or in neither.
    EXPECT_EQ(reference.failing_patterns > 0, serial.failing_patterns > 0)
        << fx.faults[f].to_string(fx.netlist);
    for (const std::size_t jobs : kJobSweep) {
      decomp::SessionConfig cfg;
      cfg.jobs = jobs;
      cfg.shards = 3;
      const decomp::SessionResult parallel =
          decomp::run_test_session(fx.netlist, fx.tests, cfg, fx.faults[f]);
      EXPECT_EQ(parallel.pattern_failed, reference.pattern_failed)
          << fx.faults[f].to_string(fx.netlist) << " jobs=" << jobs;
      EXPECT_EQ(parallel.ate_bits, reference.ate_bits);
      EXPECT_EQ(parallel.soc_cycles, reference.soc_cycles);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothImpls, ParallelPipelineSweep,
                         ::testing::Values(Oracle::kScalarReference,
                                           Oracle::kBitplane),
                         [](const ::testing::TestParamInfo<Oracle>& info) {
                           return info.param == Oracle::kBitplane ? "bitplane"
                                                                  : "scalar";
                         });

}  // namespace
}  // namespace nc::codec
