// The decoder spec and the cycle model against their oracles.
//
// On the paper's table the oracle is the hand-written Fig. 2 FSM and the
// cycle model that ran it (tests/reference/decoder_reference): every
// transition of the spec, and every trace of the model -- scan stream, ATE
// and SoC cycles, codewords, watchdog steps, fault kind and offset -- on
// valid, truncated, noisy, padded and budget-starved streams. For any other
// table (frequency-directed, tuned with odd K, uneven halves and Kraft
// slack) the oracle is the software decoder NineCoded::decode_checked and
// the analytic timing model. Block indices are decode_checked's everywhere:
// the block in flight.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "codec/decode_error.h"
#include "codec/decoder_spec.h"
#include "codec/nine_coded.h"
#include "core/cancel.h"
#include "decomp/single_scan.h"
#include "decomp/timing.h"
#include "gen/cube_gen.h"
#include "gen/profiles.h"
#include "reference/decoder_reference.h"

namespace nc::decomp {
namespace {

using bits::Trit;
using bits::TritVector;
using codec::CodewordTable;
using codec::DecodeError;
using codec::DecodeFault;
using codec::DecoderSpec;
using codec::NineCoded;

/// How one decode ended.
struct Outcome {
  bool ok = false;
  DecoderTrace trace;
  bits::TritVector data;  // decode_checked's output
  DecodeFault fault = DecodeFault::kTruncated;
  std::size_t offset = 0;
  std::size_t block = 0;
  std::size_t steps = 0;  // watchdog steps charged
};

template <class Decoder>
Outcome run(const Decoder& decoder, const TritVector& te, std::size_t n,
            std::size_t budget = 0) {
  Outcome out;
  core::Watchdog watchdog(budget);  // 0: unlimited, still counting
  try {
    out.trace = decoder.run(te, n, &watchdog);
    out.ok = true;
  } catch (const DecodeError& e) {
    out.fault = e.fault();
    out.offset = e.stream_offset();
    out.block = e.block_index();
  }
  out.steps = watchdog.steps();
  return out;
}

Outcome checked(const NineCoded& coder, const TritVector& te, std::size_t n) {
  Outcome out;
  try {
    out.data = coder.decode_checked(te, n).data;
    out.ok = true;
  } catch (const DecodeError& e) {
    out.fault = e.fault();
    out.offset = e.stream_offset();
    out.block = e.block_index();
  }
  return out;
}

/// The model matches the Fig. 2 oracle: the same trace and watchdog steps
/// on success, the same fault and offset on failure.
void expect_matches_oracle(const Outcome& got, const Outcome& want,
                           const std::string& where) {
  ASSERT_EQ(got.ok, want.ok) << where;
  EXPECT_EQ(got.steps, want.steps) << where;
  if (got.ok) {
    EXPECT_EQ(got.trace.scan_stream, want.trace.scan_stream) << where;
    EXPECT_EQ(got.trace.ate_cycles, want.trace.ate_cycles) << where;
    EXPECT_EQ(got.trace.soc_cycles, want.trace.soc_cycles) << where;
    EXPECT_EQ(got.trace.codewords, want.trace.codewords) << where;
  } else {
    EXPECT_EQ(got.fault, want.fault) << where;
    EXPECT_EQ(got.offset, want.offset) << where;
  }
}

/// The model matches decode_checked: its data on success, its fault kind
/// and block index on failure (offsets differ: the model is bit-serial).
void expect_matches_checked(const Outcome& got, const Outcome& want,
                            const std::string& where) {
  ASSERT_EQ(got.ok, want.ok)
      << where << (got.ok ? " checked: " : " model: ")
      << to_string(got.ok ? want.fault : got.fault);
  if (got.ok) {
    EXPECT_EQ(got.trace.scan_stream, want.data) << where;
  } else {
    EXPECT_EQ(got.fault, want.fault) << where;
    EXPECT_EQ(got.block, want.block) << where;
  }
}

TritVector random_trits(std::mt19937_64& rng, std::size_t n, double x_rate) {
  std::bernoulli_distribution x(x_rate);
  TritVector out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(x(rng) ? Trit::X : ((rng() & 1u) ? Trit::One : Trit::Zero));
  return out;
}

/// A test set of about four blocks whose X density varies per call, so
/// every class shows up across calls.
TritVector random_td(std::mt19937_64& rng, std::size_t k) {
  const double x_rate = 0.2 + 0.1 * static_cast<double>(rng() % 8);
  return random_trits(rng, 4 * k + rng() % (k + 1), x_rate);
}

std::string describe(const NineCoded& coder, unsigned p) {
  std::string s = coder.name() + " p=" + std::to_string(p) + " code";
  for (std::size_t c = 0; c < codec::kNumClasses; ++c)
    s += " " + coder.table().at(static_cast<codec::BlockClass>(c)).to_string();
  return s;
}

// ------------------------------------------------- the paper's table

TEST(DecoderDiff, StandardSpecIsTheFig2Table) {
  const DecoderSpec spec(CodewordTable::standard(), 8, 4);
  ASSERT_EQ(spec.state_count(), kFsmStateCount);
  for (std::uint32_t s = 0; s < spec.state_count(); ++s) {
    for (const bool data : {false, true}) {
      for (const bool done : {false, true}) {
        const DecoderSpec::Step got = spec.step(s, data, done);
        const FsmStep want =
            fsm_step(static_cast<FsmState>(s), data, done);
        const std::string where = "state " + std::to_string(s) + " data " +
                                  std::to_string(data) + " done " +
                                  std::to_string(done);
        EXPECT_EQ(got.next, static_cast<std::uint32_t>(want.next)) << where;
        EXPECT_EQ(got.leaf != DecoderSpec::kNoLeaf, want.recognized) << where;
        EXPECT_EQ(s < spec.half_a(), want.consumes_data_bit) << where;
        EXPECT_EQ(got.ack, want.ack) << where;
        EXPECT_FALSE(got.invalid) << where;  // the code is complete
        if (want.recognized) {
          const codec::CodeLeaf& leaf = spec.leaves()[got.leaf];
          EXPECT_EQ(leaf.plan_a, static_cast<unsigned>(want.plan_a)) << where;
          EXPECT_EQ(leaf.plan_b, static_cast<unsigned>(want.plan_b)) << where;
        }
      }
    }
  }
}

TEST(DecoderDiff, ValidStreamsTraceLikeTheOracle) {
  // Every even K from 2 to 64 at every p from 1 to 16.
  std::mt19937_64 rng(1);
  for (std::size_t k = 2; k <= 64; k += 2) {
    const NineCoded coder(k);
    for (unsigned p = 1; p <= 16; ++p) {
      const TritVector td = random_td(rng, k);
      const TritVector te = coder.encode(td);
      const Outcome got = run(SingleScanDecoder(coder, p), te, td.size());
      const Outcome want =
          run(ReferenceSingleScanDecoder(k, p), te, td.size());
      expect_matches_oracle(got, want, describe(coder, p));
      ASSERT_TRUE(got.ok) << describe(coder, p);
      EXPECT_TRUE(td.covered_by(got.trace.scan_stream));
    }
  }
}

TEST(DecoderDiff, EveryTruncationFaultsLikeBothOracles) {
  std::mt19937_64 rng(2);
  for (std::size_t k = 2; k <= 64; k += 2) {
    const NineCoded coder(k);
    const auto p = static_cast<unsigned>(1 + (k / 2) % 16);
    const TritVector td = random_td(rng, k);
    const TritVector te = coder.encode(td);
    const SingleScanDecoder model(coder, p);
    const ReferenceSingleScanDecoder oracle(k, p);
    for (std::size_t cut = 0; cut < te.size(); ++cut) {
      const TritVector prefix = te.slice(0, cut);
      const std::string where = describe(coder, p) + " cut " +
                                std::to_string(cut);
      const Outcome got = run(model, prefix, td.size());
      expect_matches_oracle(got, run(oracle, prefix, td.size()), where);
      expect_matches_checked(got, checked(coder, prefix, td.size()), where);
      EXPECT_EQ(got.fault, DecodeFault::kTruncated) << where;
    }
  }
}

TEST(DecoderDiff, NoiseWithXFaultsLikeBothOracles) {
  std::mt19937_64 rng(3);
  std::size_t decoded = 0;
  for (std::size_t trial = 0; trial < 2000; ++trial) {
    const std::size_t k = 2 * (1 + rng() % 16);
    const NineCoded coder(k);
    const auto p = static_cast<unsigned>(1 + rng() % 16);
    // Pure noise almost never parses to completion, so every tenth trial
    // is a valid stream.
    TritVector te;
    std::size_t n;
    if (trial % 10 == 0) {
      const TritVector td = random_td(rng, k);
      te = coder.encode(td);
      n = td.size();
    } else {
      te = random_trits(rng, rng() % 120, trial % 2 == 0 ? 0.0 : 0.05);
      n = rng() % 64;
    }
    const std::string where = describe(coder, p) + " trial " +
                              std::to_string(trial);
    const Outcome got = run(SingleScanDecoder(coder, p), te, n);
    expect_matches_oracle(got, run(ReferenceSingleScanDecoder(k, p), te, n),
                          where);
    expect_matches_checked(got, checked(coder, te, n), where);
    decoded += got.ok;
  }
  EXPECT_GT(decoded, 0u);  // both exits are exercised
}

TEST(DecoderDiff, AppendedGarbageIsTrailingDataLikeBothOracles) {
  std::mt19937_64 rng(4);
  for (std::size_t k = 2; k <= 64; k += 2) {
    const NineCoded coder(k);
    const TritVector td = random_td(rng, k);
    const TritVector te = coder.encode(td);
    for (std::size_t extra = 1; extra <= 4; ++extra) {
      TritVector stream = te;
      stream.append(random_trits(rng, extra, 0.3));
      const std::string where = describe(coder, 2) + " extra " +
                                std::to_string(extra);
      const Outcome got = run(SingleScanDecoder(coder, 2), stream, td.size());
      expect_matches_oracle(
          got, run(ReferenceSingleScanDecoder(k, 2), stream, td.size()),
          where);
      expect_matches_checked(got, checked(coder, stream, td.size()), where);
      EXPECT_EQ(got.fault, DecodeFault::kTrailingData) << where;
      EXPECT_EQ(got.offset, te.size()) << where;
    }
  }
}

TEST(DecoderDiff, EveryWatchdogBudgetStopsLikeTheOracle) {
  // Budgets from 1 (0 means unlimited) up to the steps of a clean decode:
  // the same step count, and a trip at the same place, for every budget.
  std::mt19937_64 rng(5);
  for (std::size_t k : {2u, 4u, 8u, 16u, 64u}) {
    const NineCoded coder(k);
    const unsigned p = 3;
    const TritVector td = random_td(rng, k);
    const TritVector te = coder.encode(td);
    const SingleScanDecoder model(coder, p);
    const ReferenceSingleScanDecoder oracle(k, p);
    const std::size_t cost = run(model, te, td.size()).steps;
    ASSERT_GT(cost, 0u);
    for (std::size_t budget = 1; budget <= cost; ++budget) {
      const std::string where = describe(coder, p) + " budget " +
                                std::to_string(budget);
      const Outcome got = run(model, te, td.size(), budget);
      expect_matches_oracle(got, run(oracle, te, td.size(), budget), where);
      EXPECT_EQ(got.ok, budget == cost) << where;
      if (!got.ok) EXPECT_EQ(got.fault, DecodeFault::kWatchdogExpired);
    }
  }
}

// ----------------------------------------------------- other tables

/// A bit string that leaves `spec`'s trie through an absent edge, or ""
/// when the code is complete (Kraft equality).
std::string absent_path(const DecoderSpec& spec) {
  std::vector<std::string> paths(spec.recognition_states());
  std::vector<bool> seen(spec.recognition_states(), false);
  std::vector<std::uint32_t> queue = {0};
  seen[0] = true;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const std::uint32_t s = queue[i];
    for (const bool bit : {false, true}) {
      const DecoderSpec::Step step = spec.step(s, bit, false);
      const std::string path = paths[s] + (bit ? '1' : '0');
      if (step.invalid) return path;
      if (step.leaf == DecoderSpec::kNoLeaf && !seen[step.next]) {
        seen[step.next] = true;
        paths[step.next] = path;
        queue.push_back(step.next);
      }
    }
  }
  return "";
}

/// Runs `coder`'s stream of a random TD, clean and damaged, through the
/// model and decode_checked. Damage: every truncation, an X over a random
/// symbol, garbage after the last block, and, for a table with Kraft slack,
/// an invalid codeword at a block boundary followed by max_length specified
/// bits. Only a complete table also gets bit flips and noise: with slack,
/// decode_checked reads up to max_length bits before it calls a codeword
/// invalid, so an X or the stream's end within them is its fault, while
/// the FSM stops at the first absent edge.
void expect_table_decodes_like_checked(const NineCoded& coder, unsigned p,
                                       std::mt19937_64& rng) {
  const std::string where = describe(coder, p);
  const SingleScanDecoder model(coder, p);
  const std::size_t k = coder.block_size();
  const TritVector td = random_td(rng, k);
  TritVector te;
  const codec::NineCodedStats stats = coder.analyze(td, &te);

  const Outcome clean = run(model, te, td.size());
  expect_matches_checked(clean, checked(coder, te, td.size()), where);
  ASSERT_TRUE(clean.ok) << where;
  EXPECT_EQ(clean.trace.soc_cycles, comp_soc_cycles(stats, coder.table(), p))
      << where;
  EXPECT_EQ(clean.trace.ate_cycles, te.size()) << where;
  EXPECT_EQ(clean.trace.codewords, stats.blocks()) << where;

  const auto expect_damage = [&](const TritVector& stream,
                                 const std::string& what) {
    expect_matches_checked(run(model, stream, td.size()),
                           checked(coder, stream, td.size()),
                           where + " " + what);
  };
  for (std::size_t cut = 0; cut < te.size(); ++cut)
    expect_damage(te.slice(0, cut), "cut " + std::to_string(cut));
  for (int i = 0; i < 16; ++i) {
    TritVector stream = te;
    const std::size_t at = rng() % te.size();
    stream.set(at, Trit::X);
    expect_damage(stream, "X at " + std::to_string(at));
  }
  for (std::size_t extra = 1; extra <= 3; ++extra) {
    TritVector stream = te;
    stream.append(random_trits(rng, extra, 0.2));
    expect_damage(stream, "extra " + std::to_string(extra));
  }

  const std::string invalid = absent_path(model.spec());
  if (!invalid.empty()) {
    // Block b's codeword starts where the encode of the first b blocks
    // ends.
    const std::size_t b = rng() % (td.size() / k);
    const std::size_t start = coder.encode(td.slice(0, b * k)).size();
    TritVector stream = te.slice(0, start);
    stream.append(TritVector::from_string(
        invalid + std::string(coder.table().max_length(), '0')));
    stream.append(te.slice(start, te.size() - start));
    const Outcome got = run(model, stream, td.size());
    expect_matches_checked(got, checked(coder, stream, td.size()),
                           where + " invalid " + invalid);
    EXPECT_EQ(got.fault, DecodeFault::kInvalidCodeword) << where;
    EXPECT_EQ(got.offset, start) << where;
    EXPECT_EQ(got.block, b) << where;
    return;
  }
  for (int i = 0; i < 16; ++i) {
    TritVector stream = te;
    const std::size_t at = rng() % te.size();
    if (!bits::is_care(stream.get(at))) continue;
    stream.set(at, stream.get(at) == Trit::One ? Trit::Zero : Trit::One);
    expect_damage(stream, "flip at " + std::to_string(at));
  }
  for (int i = 0; i < 16; ++i)
    expect_damage(random_trits(rng, te.size(), 0.05), "noise");
}

TEST(DecoderDiff, FrequencyDirectedTablesDecodeLikeTheSoftwareDecoder) {
  std::mt19937_64 rng(6);
  for (const gen::BenchmarkProfile& profile : gen::iscas89_profiles()) {
    const TritVector td = gen::calibrated_cubes(profile).flatten();
    const NineCoded tuned = NineCoded::tuned_for(td, 8);
    for (unsigned p : {1u, 8u})
      expect_table_decodes_like_checked(tuned, p, rng);
  }
}

TEST(DecoderDiff, RandomTunedGenomesDecodeLikeTheSoftwareDecoder) {
  // Codeword lengths up to 8, K up to 32 with odd K and any split.
  std::mt19937_64 rng(7);
  std::size_t genomes = 0;
  std::size_t odd = 0;
  std::size_t slack = 0;
  while (genomes < 80) {
    std::array<unsigned, codec::kNumClasses> lengths{};
    for (unsigned& len : lengths) len = 1 + static_cast<unsigned>(rng() % 8);
    CodewordTable table;
    try {
      table = CodewordTable::from_lengths(lengths);
    } catch (const codec::CodeSpecError&) {
      continue;
    }
    const std::size_t k = 2 + rng() % 31;
    const NineCoded coder(k, table, 1 + rng() % (k - 1));
    expect_table_decodes_like_checked(
        coder, static_cast<unsigned>(1 + rng() % 16), rng);
    ++genomes;
    odd += k % 2;
    slack += !absent_path(DecoderSpec(table, k, coder.split())).empty();
  }
  EXPECT_GE(odd, 10u);
  EXPECT_GE(slack, 10u);
}

}  // namespace
}  // namespace nc::decomp
