// Round-trip contracts for everything a tuned genome travels through:
// JSON table files, the fixed-width byte form inside serve payloads and
// artifacts, and -- most importantly -- the encoder/decoder pair under
// asymmetric splits and fill policies, where the production coder must stay
// byte-identical to the per-trit reference.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "codec/nine_coded.h"
#include "gen/cube_gen.h"
#include "reference/nine_coded_reference.h"
#include "serve/frame.h"
#include "tune/genome.h"

namespace nc::tune {
namespace {

using bits::TestSet;
using bits::TritVector;

TuneGenome sample_genome() {
  TuneGenome g;
  g.k = 10;
  g.split = 3;
  g.lengths = {1, 2, 5, 5, 4, 5, 5, 5, 5};
  g.fill = FillPolicy::kRandom;
  g.fill_seed = 0xDEADBEEFCAFEF00Dull;
  return g;
}

TEST(GenomeJson, RoundTripsEveryField) {
  const TuneGenome g = sample_genome();
  EXPECT_EQ(TuneGenome::from_json(g.to_json()), g);
  const TuneGenome d;  // defaults round-trip too
  EXPECT_EQ(TuneGenome::from_json(d.to_json()), d);
}

TEST(GenomeJson, AcceptsUnknownKeysAndAnyKeyOrder) {
  const TuneGenome g = TuneGenome::from_json(
      "{\"future_extension\": {\"nested\": [1, 2]}, \"fill_seed\": 9,"
      " \"lengths\": [1,2,5,5,5,5,5,5,4], \"fill\": \"zero\","
      " \"split\": 0, \"k\": 12, \"format\": \"nc9-tune-genome\"}");
  EXPECT_EQ(g.k, 12u);
  EXPECT_EQ(g.fill, FillPolicy::kZero);
  EXPECT_EQ(g.fill_seed, 9u);
}

TEST(GenomeJson, RejectsMalformedDocuments) {
  EXPECT_THROW(TuneGenome::from_json(""), GenomeParseError);
  EXPECT_THROW(TuneGenome::from_json("not json"), GenomeParseError);
  EXPECT_THROW(TuneGenome::from_json("{\"k\": 8"), GenomeParseError);
  // Wrong format tag.
  EXPECT_THROW(
      TuneGenome::from_json("{\"format\": \"something-else\", \"k\": 8}"),
      GenomeParseError);
  // lengths must carry exactly nine entries.
  EXPECT_THROW(TuneGenome::from_json(
                   "{\"format\": \"nc9-tune-genome\", \"k\": 8,"
                   " \"lengths\": [1,2,3]}"),
               GenomeParseError);
  // Unknown fill policy name.
  EXPECT_THROW(TuneGenome::from_json(
                   "{\"format\": \"nc9-tune-genome\", \"k\": 8,"
                   " \"fill\": \"sideways\"}"),
               GenomeParseError);
  // split must stay below k; symmetric split needs even k.
  EXPECT_THROW(TuneGenome::from_json(
                   "{\"format\": \"nc9-tune-genome\", \"k\": 8,"
                   " \"split\": 8}"),
               GenomeParseError);
  EXPECT_THROW(TuneGenome::from_json(
                   "{\"format\": \"nc9-tune-genome\", \"k\": 9}"),
               GenomeParseError);
}

TEST(GenomeBytes, RoundTripsAndIsFixedWidth) {
  const TuneGenome g = sample_genome();
  std::vector<std::uint8_t> bytes;
  g.append_bytes(bytes);
  const std::size_t one = bytes.size();
  g.append_bytes(bytes);  // append twice: offsets must advance exactly
  EXPECT_EQ(bytes.size(), 2 * one);
  std::size_t off = 0;
  EXPECT_EQ(TuneGenome::from_bytes(bytes, off), g);
  EXPECT_EQ(off, one);
  EXPECT_EQ(TuneGenome::from_bytes(bytes, off), g);
  EXPECT_EQ(off, bytes.size());
}

TEST(GenomeBytes, RejectsTruncationAndBadFill) {
  const TuneGenome g = sample_genome();
  std::vector<std::uint8_t> bytes;
  g.append_bytes(bytes);
  std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 1);
  std::size_t off = 0;
  EXPECT_THROW(TuneGenome::from_bytes(cut, off), GenomeParseError);
  // The fill byte sits after k, split and the nine lengths.
  std::vector<std::uint8_t> bad = bytes;
  bad[8 + 8 + 9] = 0xFF;
  off = 0;
  EXPECT_THROW(TuneGenome::from_bytes(bad, off), GenomeParseError);
}

TEST(GenomeCoder, AsymmetricSplitsDecodeByteIdentically) {
  gen::CubeGenConfig cfg;
  cfg.patterns = 20;
  cfg.width = 63;  // deliberately not a multiple of any K under test
  cfg.x_fraction = 0.6;
  const TestSet td = gen::generate_cubes(cfg);
  const TritVector stream = td.flatten();
  for (const std::size_t k : {5u, 9u, 10u, 12u}) {
    for (std::size_t split = 1; split < k; ++split) {
      TuneGenome g;
      g.k = k;
      g.split = split;
      const codec::NineCoded coder = g.make_coder();
      TritVector te_r, te_p;
      codec::reference_analyze(coder, stream, &te_r);
      coder.analyze(stream, &te_p);
      ASSERT_EQ(te_r, te_p) << "K=" << k << " split=" << split;
      const TritVector back_r =
          codec::reference_decode_checked(coder, te_r, stream.size()).data;
      const TritVector back_p = coder.decode(te_p, stream.size());
      ASSERT_EQ(back_r, back_p) << "K=" << k << " split=" << split;
      // Decode restores TD exactly where TD was specified; X positions may
      // come back refined, which the TestSet comparison below tolerates by
      // re-flattening through covers().
      ASSERT_TRUE(stream.covered_by(back_r)) << "K=" << k << " s=" << split;
    }
  }
}

TEST(GenomeCoder, FillPoliciesProduceDecodableStreams) {
  gen::CubeGenConfig cfg;
  cfg.patterns = 16;
  cfg.width = 48;
  cfg.x_fraction = 0.75;
  const TestSet td = gen::generate_cubes(cfg);
  for (const FillPolicy fill :
       {FillPolicy::kZero, FillPolicy::kOne, FillPolicy::kRandom,
        FillPolicy::kMinTransition}) {
    TuneGenome g;
    g.fill = fill;
    g.fill_seed = 77;
    const TestSet filled = g.apply_fill(td);
    EXPECT_EQ(filled.pattern_count(), td.pattern_count());
    EXPECT_EQ(filled.pattern_length(), td.pattern_length());
    const TritVector stream = filled.flatten();
    // Filled TD has no X left, so decode must be a bit-exact inverse.
    const codec::NineCoded coder = g.make_coder();
    TritVector te;
    coder.analyze(stream, &te);
    EXPECT_EQ(coder.decode(te, stream.size()), stream)
        << fill_policy_name(fill);
  }
  // kNone is the identity.
  TuneGenome keep;
  EXPECT_EQ(keep.apply_fill(td), td);
}

TEST(TunePayload, RequestRoundTripsExactly) {
  gen::CubeGenConfig cfg;
  cfg.patterns = 6;
  cfg.width = 32;
  serve::TuneRequest req;
  req.seed = 99;
  req.generations = 7;
  req.population = 12;
  req.weight_cr = 1.5;
  req.weight_tat = 0.125;
  req.weight_gates = 0.03125;
  req.p = 16;
  req.tests = gen::generate_cubes(cfg);
  const std::vector<std::uint8_t> payload = serve::to_payload(req);
  const serve::TuneRequest back = serve::parse_tune_request(payload);
  EXPECT_EQ(back.seed, req.seed);
  EXPECT_EQ(back.generations, req.generations);
  EXPECT_EQ(back.population, req.population);
  EXPECT_EQ(back.weight_cr, req.weight_cr);
  EXPECT_EQ(back.weight_tat, req.weight_tat);
  EXPECT_EQ(back.weight_gates, req.weight_gates);
  EXPECT_EQ(back.p, req.p);
  EXPECT_EQ(back.tests, req.tests);
  // The payload bytes are the artifact key: identical requests must
  // serialize identically.
  EXPECT_EQ(serve::to_payload(req), payload);
}

TEST(TunePayload, RequestEnforcesSearchCaps) {
  gen::CubeGenConfig cfg;
  cfg.patterns = 2;
  cfg.width = 16;
  serve::TuneRequest req;
  req.tests = gen::generate_cubes(cfg);
  req.generations = serve::kMaxTuneGenerations + 1;
  EXPECT_THROW(serve::parse_tune_request(serve::to_payload(req)),
               std::runtime_error);
  req.generations = 4;
  req.population = serve::kMaxTunePopulation + 1;
  EXPECT_THROW(serve::parse_tune_request(serve::to_payload(req)),
               std::runtime_error);
  req.population = 8;
  req.weight_cr = std::numeric_limits<double>::infinity();
  EXPECT_THROW(serve::parse_tune_request(serve::to_payload(req)),
               std::runtime_error);
  req.weight_cr = 1.0;
  req.tests = bits::TestSet();
  EXPECT_THROW(serve::parse_tune_request(serve::to_payload(req)),
               std::runtime_error);
}

TEST(TunePayload, ReplyRoundTripsExactly) {
  serve::TuneReplyData reply;
  reply.genome = sample_genome();
  reply.score = 61.25;
  reply.cr_percent = 57.5;
  reply.tat_percent = 46.0;
  reply.fsm_gates = 130;
  reply.datapath_gates = 175;
  reply.evaluations = 240;
  reply.invalid_genomes = 3;
  const std::vector<std::uint8_t> payload = serve::to_payload(reply);
  const serve::TuneReplyData back = serve::parse_tune_reply(payload);
  EXPECT_EQ(back.genome, reply.genome);
  EXPECT_EQ(back.score, reply.score);
  EXPECT_EQ(back.cr_percent, reply.cr_percent);
  EXPECT_EQ(back.tat_percent, reply.tat_percent);
  EXPECT_EQ(back.fsm_gates, reply.fsm_gates);
  EXPECT_EQ(back.datapath_gates, reply.datapath_gates);
  EXPECT_EQ(back.evaluations, reply.evaluations);
  EXPECT_EQ(back.invalid_genomes, reply.invalid_genomes);
  // Trailing junk must be rejected, not ignored -- the reply is an
  // artifact value validated by CRC plus exact length.
  std::vector<std::uint8_t> longer = payload;
  longer.push_back(0);
  EXPECT_THROW(serve::parse_tune_reply(longer), std::runtime_error);
}

}  // namespace
}  // namespace nc::tune
