// Differential fuzzing of the production 9C coder against its reference.
//
// The per-trit reference (tests/reference) is the executable
// specification; the word-parallel production NineCoded must be
// indistinguishable from it on every input: identical TE streams
// (word-compare, so the packed representation is canonical too), identical
// statistics, identical decode output, and -- on corrupted streams -- the
// identical typed DecodeError down to the fault kind, TE offset and block
// index. Runs under the ASan/UBSan and TSan legs of tools/check.sh, so any
// out-of-bounds word arithmetic at half boundaries or odd tails surfaces
// here first.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <random>
#include <vector>

#include "codec/nine_coded.h"
#include "codec/sharded.h"
#include "reference/nine_coded_reference.h"

namespace nc::codec {
namespace {

using bits::TestSet;
using bits::Trit;
using bits::TritVector;

TritVector random_cube(std::mt19937& rng, std::size_t n, double x_density) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  TritVector v(n, Trit::Zero);
  for (std::size_t i = 0; i < n; ++i) {
    if (uni(rng) < x_density)
      v.set(i, Trit::X);
    else
      v.set(i, bits::trit_from_bit(rng() & 1u));
  }
  return v;
}

/// Everything observable from one decode attempt. Differential equality of
/// this struct is the whole contract: both coders succeed with the same
/// bits, or both fail with the same typed error.
struct DecodeResult {
  std::optional<TritVector> data;
  std::size_t blocks = 0;
  std::size_t consumed = 0;
  std::optional<DecodeFault> fault;
  std::size_t fault_offset = 0;
  std::size_t fault_block = 0;

  bool operator==(const DecodeResult&) const = default;
};

template <typename Coder>  // NineCoded or ReferenceCodec
DecodeResult try_decode(const Coder& coder, const TritVector& te,
                        std::size_t original_bits) {
  DecodeResult r;
  try {
    DecodeOutcome out = coder.decode_checked(te, original_bits);
    r.data = std::move(out.data);
    r.blocks = out.blocks;
    r.consumed = out.consumed;
  } catch (const DecodeError& e) {
    r.fault = e.fault();
    r.fault_offset = e.stream_offset();
    r.fault_block = e.block_index();
  }
  return r;
}

/// One full differential check: encode with the reference and production,
/// compare streams and stats field by field, then decode the stream with
/// both. `split` 0 is the paper's K/2.
void expect_identical(std::size_t k, const TritVector& td,
                      const char* context, std::size_t split = 0) {
  const NineCoded production(k, CodewordTable::standard(), split);
  const ReferenceCodec reference(production);

  TritVector te_r, te_p;
  const NineCodedStats sr = reference_analyze(production, td, &te_r);
  const NineCodedStats sp = production.analyze(td, &te_p);

  ASSERT_TRUE(te_r == te_p) << context << " K=" << k << " split=" << split
                            << " n=" << td.size()
                            << "\nreference =" << te_r.to_string()
                            << "\nproduction=" << te_p.to_string();
  ASSERT_EQ(sr.encoded_bits, sp.encoded_bits) << context;
  ASSERT_EQ(sr.padded_bits, sp.padded_bits) << context;
  ASSERT_EQ(sr.filled_x, sp.filled_x) << context;
  ASSERT_EQ(sr.leftover_x, sp.leftover_x) << context;
  ASSERT_EQ(sr.counts, sp.counts) << context;

  const DecodeResult dr = try_decode(reference, te_r, td.size());
  const DecodeResult dp = try_decode(production, te_r, td.size());
  ASSERT_FALSE(dr.fault.has_value())
      << context << ": clean stream failed to decode";
  ASSERT_TRUE(dr == dp) << context << " K=" << k
                        << ": decoders disagree on a clean stream";
  ASSERT_TRUE(td.covered_by(*dr.data)) << context;
}

// ------------------------------------------------- randomized bulk trials

// >= 500 seeded trials spanning the K values where word handling is
// hardest: K=2 (single-trit halves), K=62/64/66 (half spans exactly one
// word, just under, just over), plus the paper's mid-range sizes; lengths
// are deliberately non-block-aligned so every trial exercises the padded
// odd tail.
TEST(CodecDiffFuzz, RandomizedTrialsAcrossKAndDensity) {
  const std::size_t ks[] = {2, 4, 6, 8, 16, 30, 32, 62, 64, 66, 128};
  const double densities[] = {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0};
  int trials = 0;
  for (std::size_t k : ks) {
    for (double d : densities) {
      std::mt19937 rng(static_cast<unsigned>(k * 1009 + d * 131));
      for (int t = 0; t < 7; ++t, ++trials) {
        const std::size_t n = 1 + rng() % 800;
        const TritVector td = random_cube(rng, n, d);
        ASSERT_NO_FATAL_FAILURE(expect_identical(k, td, "random"));
      }
    }
  }
  ASSERT_GE(trials, 500);
}

// Frequency-directed tables permute the codeword lengths; the two coders
// must agree under every table they can be handed, not just the default.
TEST(CodecDiffFuzz, FrequencyDirectedTablesAgree) {
  std::mt19937 rng(4242);
  for (int t = 0; t < 40; ++t) {
    const std::size_t k = 2 + 2 * (rng() % 24);
    const TritVector td = random_cube(rng, 500 + rng() % 500, 0.6);
    // The reference runs the two passes of NineCoded::tuned_for itself.
    const NineCoded tuned_r(k, CodewordTable::frequency_directed(
                                   reference_analyze(NineCoded(k), td).counts));
    const NineCoded tuned_p = NineCoded::tuned_for(td, k);
    ASSERT_TRUE(tuned_r.table() == tuned_p.table())
        << "two-pass tuning diverged at K=" << k;
    ASSERT_TRUE(ReferenceCodec(tuned_r).encode(td) == tuned_p.encode(td));
  }
}

// ------------------------------------------------------- adversarial data

TEST(CodecDiffFuzz, AllXAllCareAndAlternating) {
  for (std::size_t k : {2u, 8u, 62u, 64u, 66u}) {
    for (std::size_t n : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 1000u}) {
      TritVector all_x(n, Trit::X);
      TritVector all0(n, Trit::Zero);
      TritVector all1(n, Trit::One);
      TritVector alt01(n, Trit::Zero);
      TritVector alt_x1(n, Trit::Zero);
      for (std::size_t i = 0; i < n; ++i) {
        if (i % 2 == 1) alt01.set(i, Trit::One);
        alt_x1.set(i, i % 2 == 0 ? Trit::X : Trit::One);
      }
      expect_identical(k, all_x, "all-X");
      expect_identical(k, all0, "all-0");
      expect_identical(k, all1, "all-1");
      expect_identical(k, alt01, "alternating-01");
      expect_identical(k, alt_x1, "alternating-X1");
    }
  }
}

// Single conflicting trits placed at every position of one block: flushes
// out any off-by-one in the half boundary masks (the conflict must flip
// exactly one half's compatibility, never the neighbour's).
TEST(CodecDiffFuzz, SingleTritConflictSweep) {
  for (std::size_t k : {2u, 4u, 8u, 64u, 66u}) {
    for (std::size_t pos = 0; pos < k; ++pos) {
      TritVector zeros(k, Trit::Zero);
      zeros.set(pos, Trit::One);
      expect_identical(k, zeros, "single-one");
      TritVector ones(k, Trit::One);
      ones.set(pos, Trit::Zero);
      expect_identical(k, ones, "single-zero");
      TritVector xs(k, Trit::X);
      xs.set(pos, Trit::One);
      expect_identical(k, xs, "single-one-in-X");
    }
  }
}

TEST(CodecDiffFuzz, EmptyInput) {
  for (std::size_t k : {2u, 8u, 64u}) {
    expect_identical(k, TritVector(), "empty");
    // A length near SIZE_MAX fails the same way in both (kTruncated).
    const NineCoded production(k);
    const std::size_t huge = std::numeric_limits<std::size_t>::max();
    const DecodeResult dr =
        try_decode(ReferenceCodec(production), TritVector(), huge);
    EXPECT_EQ(dr.fault, DecodeFault::kTruncated);
    EXPECT_TRUE(dr == try_decode(production, TritVector(), huge));
  }
}

// ------------------------------------------- corrupted-stream differential

/// One random mutation of a non-empty TE: truncation, a symbol flipped to
/// X (codeword positions must detect it), a flipped value, or trailing
/// garbage.
void corrupt(std::mt19937& rng, TritVector& te) {
  switch (rng() % 4) {
    case 0:
      te.resize(rng() % te.size());
      break;
    case 1:
      te.set(rng() % te.size(), Trit::X);
      break;
    case 2: {
      const std::size_t i = rng() % te.size();
      te.set(i, te.get(i) == Trit::One ? Trit::Zero : Trit::One);
      break;
    }
    default:
      te.append_run(1 + rng() % 5, bits::trit_from_bit(rng() & 1u));
      break;
  }
}

// Mutates clean TE streams -- truncation, trit flips to X, symbol flips,
// appended garbage -- and requires the two decoders to agree on the full
// outcome: either both recover identical bits or both throw the same fault
// at the same offset and block.
TEST(CodecDiffFuzz, CorruptedStreamsFailIdentically) {
  std::mt19937 rng(31337);
  int faults_seen = 0;
  for (int t = 0; t < 200; ++t) {
    const std::size_t k = 2 + 2 * (rng() % 32);
    const NineCoded production(k);
    const ReferenceCodec reference(production);
    const TritVector td = random_cube(rng, 64 + rng() % 400, 0.5);
    TritVector te = reference.encode(td);
    if (te.empty()) continue;

    corrupt(rng, te);

    const DecodeResult dr = try_decode(reference, te, td.size());
    const DecodeResult dp = try_decode(production, te, td.size());
    ASSERT_TRUE(dr == dp)
        << "decoders disagree on corrupted stream, K=" << k << " trial " << t
        << (dr.fault ? std::string(" reference fault ") +
                           to_string(*dr.fault) + " @" +
                           std::to_string(dr.fault_offset)
                     : std::string(" reference succeeded"))
        << (dp.fault ? std::string(" production fault ") +
                           to_string(*dp.fault) + " @" +
                           std::to_string(dp.fault_offset)
                     : std::string(" production succeeded"));
    if (dr.fault.has_value()) ++faults_seen;
  }
  // The mutation mix must actually exercise the error paths, not decay
  // into a round-trip test (complete code: value flips often still parse).
  ASSERT_GT(faults_seen, 20);
}

// Asymmetric splits whose halves straddle the 32-trit packed word: K in
// [2, 130] with a left or right half of 31, 32 or 33 trits where K allows
// it (any split in [1, K-1] otherwise), on clean streams and on corrupted
// ones.
TEST(CodecDiffFuzz, SplitsStraddlingThePackedWord) {
  std::mt19937 rng(2026);
  int faults_seen = 0;
  for (int t = 0; t < 300; ++t) {
    const std::size_t k = 2 + rng() % 129;
    std::vector<std::size_t> splits;
    for (std::size_t half : {31u, 32u, 33u}) {
      if (half < k) {
        splits.push_back(half);
        splits.push_back(k - half);
      }
    }
    const std::size_t split =
        splits.empty() ? 1 + rng() % (k - 1) : splits[rng() % splits.size()];
    const double density = (rng() % 5) / 4.0;
    const TritVector td = random_cube(rng, 1 + rng() % 600, density);
    ASSERT_NO_FATAL_FAILURE(expect_identical(k, td, "split", split));

    const NineCoded production(k, CodewordTable::standard(), split);
    const ReferenceCodec reference(production);
    TritVector te = reference.encode(td);  // not empty: |TD| >= 1
    corrupt(rng, te);
    const DecodeResult dr = try_decode(reference, te, td.size());
    ASSERT_TRUE(dr == try_decode(production, te, td.size()))
        << "decoders disagree on corrupted stream, K=" << k
        << " split=" << split << " trial " << t;
    if (dr.fault.has_value()) ++faults_seen;
  }
  ASSERT_GT(faults_seen, 30);
}

// ------------------------------------------- sharded/parallel differential

// The sharded container runs whatever Codec it is handed; run the full
// parallel encode/decode pipeline with the reference and with production
// and require identical containers. With jobs=4 this also puts the
// production word paths under TSan's eye via check.sh's tsan leg.
TEST(CodecDiffFuzz, ShardedParallelPipelineAgrees) {
  std::mt19937 rng(777);
  TestSet td(40, 96);
  for (std::size_t p = 0; p < td.pattern_count(); ++p)
    for (std::size_t c = 0; c < td.pattern_length(); ++c) {
      const auto r = rng() % 10;
      td.set(p, c, r < 6 ? Trit::X : bits::trit_from_bit(r & 1u));
    }
  for (std::size_t k : {8u, 64u}) {
    const NineCoded production(k);
    const ReferenceCodec reference(production);
    const TritVector c_r = encode_sharded(reference, td, 8, 4);
    const TritVector c_p = encode_sharded(production, td, 8, 4);
    ASSERT_TRUE(c_r == c_p) << "sharded containers differ at K=" << k;
    const TestSet back_r = decode_sharded(reference, c_p, 4);
    const TestSet back_p = decode_sharded(production, c_p, 4);
    ASSERT_EQ(back_r.pattern_count(), back_p.pattern_count());
    ASSERT_TRUE(back_r.flatten() == back_p.flatten());
    ASSERT_TRUE(td.flatten().covered_by(back_p.flatten()));
  }
}

}  // namespace
}  // namespace nc::codec
