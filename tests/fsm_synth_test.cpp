// The synthesized decoder controller. On the paper's table it is Fig. 2's
// FSM input for input and a handful of gates; clocked as a sequential
// machine, the covers of any table -- the paper's, the frequency-directed
// ones, tuned genomes with odd K and uneven halves -- decode a stream
// exactly like the cycle model, so the gates the tuner prices run.
#include <gtest/gtest.h>

#include <random>

#include "codec/nine_coded.h"
#include "decomp/single_scan.h"
#include "gen/cube_gen.h"
#include "gen/profiles.h"
#include "reference/decoder_reference.h"
#include "synth/code_synth.h"

namespace nc::synth {
namespace {

using bits::Trit;
using bits::TritVector;
using codec::CodewordTable;
using codec::NineCoded;

CodeSynthResult standard_fsm() {
  return synthesize_code_fsm(leaves_for_table(CodewordTable::standard()), 3);
}

bool covered(const std::vector<Cube>& cover, std::uint32_t in) {
  for (const Cube& c : cover)
    if (c.covers(in)) return true;
  return false;
}

TEST(FsmSynth, ProducesAllOutputFunctions) {
  const CodeSynthResult r = standard_fsm();
  EXPECT_EQ(r.outputs.size(), 10u);  // 4 next-state + latch + 4 plan + ack
  EXPECT_EQ(r.state_bits, 4u);
}

TEST(FsmSynth, CoversMatchTheFsmExactly) {
  const CodeSynthResult r = standard_fsm();
  // Replay every reachable (state, data, done) input and compare the cover
  // output against the hand-written Fig. 2 table -- the synthesized logic
  // must be the FSM.
  for (unsigned in = 0; in < 64; ++in) {
    const unsigned state_code = in & 0xF;
    if (state_code >= decomp::kFsmStateCount) continue;
    const bool data_bit = (in >> 4) & 1u;
    const bool done = (in >> 5) & 1u;
    const decomp::FsmStep step = decomp::fsm_step(
        static_cast<decomp::FsmState>(state_code), data_bit, done);
    const unsigned next = static_cast<unsigned>(step.next);
    for (unsigned b = 0; b < 4; ++b)
      EXPECT_EQ(covered(r.outputs[b].cover, in), ((next >> b) & 1u) != 0)
          << "state " << state_code << " bit " << b;
    EXPECT_EQ(covered(r.outputs[4].cover, in), step.recognized);
    if (step.recognized) {
      const unsigned pa = static_cast<unsigned>(step.plan_a);
      const unsigned pb = static_cast<unsigned>(step.plan_b);
      EXPECT_EQ(covered(r.outputs[5].cover, in), (pa & 1u) != 0);
      EXPECT_EQ(covered(r.outputs[6].cover, in), (pa & 2u) != 0);
      EXPECT_EQ(covered(r.outputs[7].cover, in), (pb & 1u) != 0);
      EXPECT_EQ(covered(r.outputs[8].cover, in), (pb & 2u) != 0);
    }
    EXPECT_EQ(covered(r.outputs[9].cover, in), step.ack);
  }
}

TEST(FsmSynth, ControllerIsTiny) {
  // Paper: the FSM synthesizes to a small, K-independent block. Two-level
  // gate-equivalent count lands well under 200.
  const CodeSynthResult r = standard_fsm();
  EXPECT_GT(r.combinational_gates(), 10u);
  EXPECT_LT(r.combinational_gates(), 200u);
  EXPECT_LT(r.total_gate_equivalents(), 250u);
}

TEST(FsmSynth, FsmCostIndependentOfK) {
  // decoder_gate_estimate grows with K only through counter + shifter.
  const std::size_t fsm = standard_fsm().total_gate_equivalents();
  const std::size_t d8 = decoder_gate_estimate(fsm, 8);
  const std::size_t d32 = decoder_gate_estimate(fsm, 32);
  EXPECT_GT(d32, d8);
  // Subtracting the K-dependent parts leaves the same FSM cost.
  EXPECT_EQ(d8 - (4 * 6 + 2 * 8 + 2 + 3), fsm);
}

TEST(FsmSynth, DecoderEstimateMonotonicInK) {
  const std::size_t fsm = standard_fsm().total_gate_equivalents();
  std::size_t prev = 0;
  for (std::size_t k : {4u, 8u, 16u, 32u, 48u}) {
    const std::size_t est = decoder_gate_estimate(fsm, k);
    EXPECT_GT(est, prev);
    prev = est;
  }
}

TEST(FsmSynth, DecoderEstimateSizesTheWiderHalf) {
  // The counter and the shifter span the wider half: 4 | 5 prices like
  // K = 10, and split 0 means K/2.
  EXPECT_EQ(decoder_gate_estimate(100, 9, 4), decoder_gate_estimate(100, 10));
  EXPECT_EQ(decoder_gate_estimate(100, 9, 5), decoder_gate_estimate(100, 10));
  EXPECT_EQ(decoder_gate_estimate(100, 8, 4), decoder_gate_estimate(100, 8));
  EXPECT_EQ(decoder_gate_estimate(100, 8, 0), 100u + 2 * 9 + 4 * 6 + 3);
}

// ------------------------------------------- the covers as a machine

/// What clocking the covers produced.
struct Clocked {
  decomp::DecoderTrace trace;
  std::size_t acks = 0;
};

/// Clocks `fsm`'s covers as a sequential machine: a state register whose
/// next value is the next_state outputs, each output the OR of its cubes,
/// plan registers loaded on latch_plan, and a counter over the half that
/// raises done on its last position. Recognition states take one ATE bit
/// per clock; the MUX drives a fill bit per SoC cycle or shifts one ATE bit
/// per p SoC cycles, as the cycle model accounts them. The state decoder of
/// the datapath knows only the spec's numbering: HalfA and HalfB follow the
/// recognition states.
Clocked clock_covers(const CodeSynthResult& fsm, const NineCoded& coder,
                     unsigned p, const TritVector& te,
                     std::size_t original_bits) {
  const std::size_t sb = fsm.state_bits;
  const std::size_t pb = fsm.plan_bits;
  const auto output = [&](std::size_t i, std::uint32_t in) {
    return covered(fsm.outputs[i].cover, in);
  };
  const auto plan = [&](std::size_t first, std::uint32_t in) {
    unsigned v = 0;
    for (std::size_t b = 0; b < pb; ++b)
      if (output(first + b, in)) v |= 1u << b;
    return v;
  };
  const auto half_a = static_cast<std::uint32_t>(fsm.recognition_states);
  const std::uint32_t half_b = half_a + 1;

  Clocked out;
  decomp::DecoderTrace& trace = out.trace;
  std::uint32_t state = 0;
  unsigned plan_a = 0, plan_b = 0;
  std::size_t pos = 0;    // TE cursor
  std::size_t count = 0;  // the half counter
  const std::size_t clock_limit =
      (te.size() + original_bits + coder.block_size()) * 4;
  for (std::size_t clock = 0;
       trace.scan_stream.size() < original_bits || state != 0; ++clock) {
    if (clock > clock_limit || pos > te.size()) {
      ADD_FAILURE() << "the covers never finish the stream";
      return out;
    }
    bool data = false;
    bool done = false;
    if (state < half_a) {
      if (pos == te.size()) {
        ADD_FAILURE() << "the covers read past TE";
        return out;
      }
      data = te.get(pos++) == Trit::One;
      trace.ate_cycles += 1;
      trace.soc_cycles += p;
    } else if (state == half_a || state == half_b) {
      const bool left = state == half_a;
      const unsigned drive = left ? plan_a : plan_b;
      const std::size_t len =
          left ? coder.split() : coder.block_size() - coder.split();
      if (drive == codec::kPlanData) {
        if (pos == te.size()) {
          ADD_FAILURE() << "the covers read past TE";
          return out;
        }
        trace.scan_stream.push_back(te.get(pos++));
        trace.ate_cycles += 1;
        trace.soc_cycles += p;
      } else {
        trace.scan_stream.push_back(drive == codec::kPlanFill1 ? Trit::One
                                                               : Trit::Zero);
        trace.soc_cycles += 1;
      }
      done = ++count == len;
      if (done) count = 0;
    }
    const std::uint32_t in = state | std::uint32_t{data} << sb |
                             std::uint32_t{done} << (sb + 1);
    std::uint32_t next = 0;
    for (std::size_t b = 0; b < sb; ++b)
      if (output(b, in)) next |= 1u << b;
    if (output(sb, in)) {
      plan_a = plan(sb + 1, in);
      plan_b = plan(sb + 1 + pb, in);
      ++trace.codewords;
    }
    if (output(sb + 1 + 2 * pb, in)) ++out.acks;
    state = next;
  }
  if (pos != te.size()) ADD_FAILURE() << "the covers left TE unread";
  trace.scan_stream.resize(original_bits);
  return out;
}

/// Synthesizes `coder`'s controller, clocks it over an encode of `td` and
/// compares the result with the cycle model's trace.
void expect_covers_run_like_the_model(const NineCoded& coder, unsigned p,
                                      const TritVector& td) {
  const TritVector te = coder.encode(td);
  const CodeSynthResult fsm =
      synthesize_code_fsm(leaves_for_table(coder.table()), 3);
  const Clocked got = clock_covers(fsm, coder, p, te, td.size());
  const decomp::DecoderTrace want =
      decomp::SingleScanDecoder(coder, p).run(te, td.size());
  std::string where = coder.name() + " p=" + std::to_string(p) + " code";
  for (std::size_t c = 0; c < codec::kNumClasses; ++c)
    where += " " + coder.table().at(static_cast<codec::BlockClass>(c)).to_string();
  EXPECT_EQ(got.trace.scan_stream, want.scan_stream) << where;
  EXPECT_EQ(got.trace.ate_cycles, want.ate_cycles) << where;
  EXPECT_EQ(got.trace.soc_cycles, want.soc_cycles) << where;
  EXPECT_EQ(got.trace.codewords, want.codewords) << where;
  EXPECT_EQ(got.acks, want.codewords) << where;
}

TritVector random_td(std::mt19937_64& rng, std::size_t size) {
  gen::CubeGenConfig cfg;
  cfg.patterns = 8;
  cfg.width = size / 8;
  cfg.x_fraction = 0.7;
  cfg.seed = rng();
  return gen::generate_cubes(cfg).flatten();
}

TEST(FsmSynth, SynthesizedDecoderRunsThePapersTable) {
  std::mt19937_64 rng(1);
  for (std::size_t k : {2u, 4u, 8u, 16u, 32u})
    for (unsigned p : {1u, 4u})
      expect_covers_run_like_the_model(NineCoded(k), p, random_td(rng, 800));
}

TEST(FsmSynth, SynthesizedDecoderRunsFrequencyDirectedTables) {
  for (const gen::BenchmarkProfile& profile : gen::iscas89_profiles()) {
    const TritVector td = gen::calibrated_cubes(profile).flatten();
    const NineCoded tuned = NineCoded::tuned_for(td, 8);
    expect_covers_run_like_the_model(tuned, 8,
                                     td.slice(0, std::min<std::size_t>(
                                                     td.size(), 8192)));
  }
}

TEST(FsmSynth, SynthesizedDecoderRunsRandomTunedGenomes) {
  // Codeword lengths up to 8 (the tuner's default cap), some with Kraft
  // slack; K up to 32, odd K, and splits anywhere in [1, K-1].
  std::mt19937_64 rng(29);
  std::size_t genomes = 0;
  std::size_t odd = 0;
  std::size_t uneven = 0;
  while (genomes < 60) {
    std::array<unsigned, codec::kNumClasses> lengths{};
    for (unsigned& len : lengths) len = 1 + static_cast<unsigned>(rng() % 8);
    CodewordTable table;
    try {
      table = CodewordTable::from_lengths(lengths);
    } catch (const codec::CodeSpecError&) {
      continue;
    }
    const std::size_t k = 2 + rng() % 31;
    const std::size_t split = 1 + rng() % (k - 1);
    const NineCoded coder(k, table, split);
    const auto p = static_cast<unsigned>(1 + rng() % 8);
    expect_covers_run_like_the_model(coder, p, random_td(rng, 640));
    ++genomes;
    odd += k % 2;
    uneven += 2 * split != k;
  }
  EXPECT_GE(odd, 10u);
  EXPECT_GE(uneven, 30u);
}

}  // namespace
}  // namespace nc::synth
