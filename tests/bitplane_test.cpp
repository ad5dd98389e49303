// Golden-vector tests for the packed bitplane representation.
//
// Everything here is hand-computed (or pinned from a first verified run):
// the word values of extracted planes at word-straddling offsets, the
// popcount classification at every boundary shape a 64-trit word can take,
// and one frozen TE byte dump for a calibrated ISCAS'89 cube set. The
// differential fuzz suite proves scalar == bitplane; this file proves both
// equal the *intended* bits, so a lockstep regression in the two impls
// cannot hide.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "bits/bitplane.h"
#include "bits/serialize.h"
#include "codec/nine_coded.h"
#include "core/crc.h"
#include "gen/cube_gen.h"
#include "gen/profiles.h"
#include "reference/nine_coded_reference.h"

namespace nc::bits {
namespace {

/// "01X" string -> trits, the order they are appended.
TritVector trits(const std::string& s) {
  TritVector v;
  for (char c : s)
    v.push_back(c == '1' ? Trit::One : (c == 'X' ? Trit::X : Trit::Zero));
  return v;
}

/// The period-4 sequence One,Zero,X,One repeated over `n` trits: its planes
/// have nibble-periodic words that are easy to compute by hand.
TritVector period4(std::size_t n) {
  TritVector v;
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 4) {
      case 0: v.push_back(Trit::One); break;
      case 1: v.push_back(Trit::Zero); break;
      case 2: v.push_back(Trit::X); break;
      default: v.push_back(Trit::One); break;
    }
  }
  return v;
}

// ------------------------------------------------- extraction golden words

TEST(BitplaneGolden, ExtractionFullWord) {
  const Bitplanes p(period4(70));
  // One at i%4 in {0,3} -> value nibble 0b1001 = 0x9; X at i%4==2 -> 0x4.
  EXPECT_EQ(p.value_bits(0, 64), 0x9999999999999999ull);
  EXPECT_EQ(p.x_bits(0, 64), 0x4444444444444444ull);
  // Trits 64..69 = One,Zero,X,One,One,Zero -> value 0b011001, x 0b000100.
  EXPECT_EQ(p.value_bits(64, 6), 0x19ull);
  EXPECT_EQ(p.x_bits(64, 6), 0x04ull);
}

TEST(BitplaneGolden, ExtractionWordStraddlingWindow) {
  const Bitplanes p(period4(70));
  // Bits 60..67 straddle the word boundary: trits 60..63 = 1,0,X,1 and
  // 64..67 = 1,0,X,1 -> value 0x99, x 0x44.
  EXPECT_EQ(p.value_bits(60, 8), 0x99ull);
  EXPECT_EQ(p.x_bits(60, 8), 0x44ull);
  // A 64-bit window at offset 2 re-aligns the period: trits 2,3,4,5,... =
  // X,1,1,0,X,1,1,0,... -> value nibble 0b0110 = 0x6, x nibble 0b0001.
  EXPECT_EQ(p.value_bits(2, 64), 0x6666666666666666ull);
  EXPECT_EQ(p.x_bits(2, 64), 0x1111111111111111ull);
  // Degenerate empty window, including at a word boundary.
  EXPECT_EQ(p.value_bits(64, 0), 0u);
  EXPECT_EQ(p.value_bits(0, 0), 0u);
}

TEST(BitplaneGolden, InjectionIsCanonical) {
  const TritVector original = period4(137);
  const Bitplanes p(original);
  // Word-compare equality: the reconstructed packed words must match a
  // scalar-built vector exactly, including zeroed slack past size().
  EXPECT_TRUE(p.to_trits() == original);
}

TEST(BitplaneGolden, BuiltByAppendEqualsExtracted) {
  const TritVector original = period4(200);
  const Bitplanes extracted(original);
  Bitplanes built;
  // Mixed construction: word appends, runs, and a straddling range copy.
  built.append_word(extracted.value_bits(0, 64), extracted.x_bits(0, 64), 64);
  built.append_word(extracted.value_bits(64, 30), extracted.x_bits(64, 30),
                    30);
  built.append_range(extracted, 94, 106);
  ASSERT_EQ(built.size(), original.size());
  EXPECT_TRUE(built.to_trits() == original);
}

TEST(BitplaneGolden, AppendBitsMsbMatchesCodewordOrder) {
  Bitplanes p;
  p.append_bits_msb(0b1100u, 4);  // transmit order: 1,1,0,0
  EXPECT_TRUE(p.to_trits() == trits("1100"));
}

TEST(BitplaneGolden, AppendRunPatterns) {
  Bitplanes p;
  p.append_run(3, Trit::X);
  p.append_run(70, Trit::One);
  p.append_run(2, Trit::Zero);
  TritVector expect;
  expect.append_run(3, Trit::X);
  expect.append_run(70, Trit::One);
  expect.append_run(2, Trit::Zero);
  EXPECT_TRUE(p.to_trits() == expect);
  EXPECT_EQ(p.x_bits(0, 3), 0x7ull);
  EXPECT_EQ(p.value_bits(0, 64), 0xFFFFFFFFFFFFFFF8ull);
}

// --------------------------------------------- scan classification goldens

/// Per-trit reference scan, the semantics scan() must reproduce.
PlaneScan reference_scan(const Bitplanes& p, std::size_t begin,
                         std::size_t len) {
  PlaneScan s;
  for (std::size_t i = begin; i < begin + len; ++i) {
    switch (p.get(i)) {
      case Trit::One: s.any_one = true; break;
      case Trit::Zero: s.any_zero = true; break;
      default: ++s.x_count; break;
    }
  }
  return s;
}

void expect_scan(const Bitplanes& p, std::size_t begin, std::size_t len) {
  const PlaneScan got = p.scan(begin, len);
  const PlaneScan want = reference_scan(p, begin, len);
  EXPECT_EQ(got.any_one, want.any_one) << "begin=" << begin << " len=" << len;
  EXPECT_EQ(got.any_zero, want.any_zero)
      << "begin=" << begin << " len=" << len;
  EXPECT_EQ(got.x_count, want.x_count) << "begin=" << begin << " len=" << len;
}

TEST(BitplaneScan, HalfExactlyFillsAWord) {
  Bitplanes p(TritVector(256, Trit::X));
  const PlaneScan s = p.scan(64, 64);
  EXPECT_FALSE(s.any_one);
  EXPECT_FALSE(s.any_zero);
  EXPECT_EQ(s.x_count, 64u);
}

TEST(BitplaneScan, BoundaryShapes) {
  // A fixed irregular sequence long enough for every alignment case.
  TritVector v;
  for (std::size_t i = 0; i < 300; ++i)
    v.push_back(i % 7 == 0   ? Trit::One
                : i % 5 == 0 ? Trit::X
                             : Trit::Zero);
  const Bitplanes p(v);
  // Exactly one word; spanning two words from an offset; sub-word head and
  // tail; window ending exactly at a word boundary; empty window.
  expect_scan(p, 0, 64);
  expect_scan(p, 32, 64);
  expect_scan(p, 1, 63);
  expect_scan(p, 63, 2);
  expect_scan(p, 64, 64);
  expect_scan(p, 100, 28);  // ends at 128
  expect_scan(p, 130, 33);
  expect_scan(p, 299, 1);
  expect_scan(p, 150, 0);
  expect_scan(p, 64, 0);
}

TEST(BitplaneScan, SingleConflictAtEveryWordPosition) {
  // One specified 1 in a sea of X: any_one must flip exactly when the
  // window covers it, for every bit position in the word.
  for (std::size_t pos : {0u, 1u, 31u, 32u, 63u, 64u, 65u, 127u}) {
    TritVector v(128, Trit::X);
    v.set(pos, Trit::One);
    const Bitplanes p(v);
    const PlaneScan covering = p.scan(pos, 1);
    EXPECT_TRUE(covering.any_one);
    EXPECT_EQ(covering.x_count, 0u);
    if (pos > 0) {
      const PlaneScan before = p.scan(0, pos);
      EXPECT_FALSE(before.any_one) << pos;
      EXPECT_EQ(before.x_count, pos) << pos;
    }
    const PlaneScan after = p.scan(pos + 1, 128 - pos - 1);
    EXPECT_FALSE(after.any_one) << pos;
    EXPECT_EQ(after.x_count, 128 - pos - 1) << pos;
  }
}

// ----------------------------------------------------------------- reader

TEST(BitplaneReader, MirrorsTritReaderErrorOffsets) {
  const TritVector v = trits("10X10");
  const Bitplanes p(v);
  BitplaneReader r(p);
  EXPECT_TRUE(r.next_bit());
  EXPECT_FALSE(r.next_bit());
  // The X sits at absolute offset 2; InvalidSymbol must carry exactly that.
  try {
    r.next_bit();
    FAIL() << "X in codeword position not detected";
  } catch (const InvalidSymbol& e) {
    EXPECT_EQ(e.offset(), 2u);
  }
  // The cursor consumed the X (TritReader::next_bit does the same), so a
  // 3-symbol copy from position 3 overruns: offset 3, requested 3, have 2.
  Bitplanes out;
  try {
    r.copy_to(out, 3);
    FAIL() << "overrun not detected";
  } catch (const StreamOverrun& e) {
    EXPECT_EQ(e.offset(), 3u);
    EXPECT_EQ(e.requested(), 3u);
    EXPECT_EQ(e.available(), 2u);
  }
  r.copy_to(out, 2);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(out.to_trits() == trits("10"));
}

// ------------------------------------------------------ pinned TE artifact

// One frozen end-to-end artifact: the s5378-calibrated cube set (seed 1)
// encoded at K=8 and serialized with save_trits. Pins |TD|, |TE|, the
// CRC-32 of the serialized bytes and the first bytes of the dump, so any
// change to cube generation, classification, codeword emission, payload
// order or serialization shows up as a concrete byte diff -- from the
// production coder and from the per-trit reference alike.
TEST(PinnedArtifact, S5378StreamBytesAreFrozen) {
  const gen::BenchmarkProfile* s5378 = nullptr;
  for (const auto& profile : gen::iscas89_profiles())
    if (profile.name == "s5378") s5378 = &profile;
  ASSERT_NE(s5378, nullptr);
  const TestSet td = gen::calibrated_cubes(*s5378, 1);
  const TritVector flat = td.flatten();
  ASSERT_EQ(flat.size(), 23754u);

  const codec::NineCoded coder(8);
  TritVector reference_te;
  codec::reference_analyze(coder, flat, &reference_te);
  for (const auto& [name, te] :
       {std::pair<const char*, TritVector>{"production", coder.encode(flat)},
        {"reference", reference_te}}) {
    EXPECT_EQ(te.size(), 10317u) << name;

    std::ostringstream dump;
    save_trits(dump, te);
    const std::string bytes = dump.str();
    EXPECT_EQ(bytes.size(), 2593u) << name;
    const std::uint32_t crc = core::crc32(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
    EXPECT_EQ(crc, 0x780EBDEFu) << name << " actual crc=0x" << std::hex
                                << crc;
    // "NCT1", the trit-stream kind byte, and the little-endian symbol
    // count 10317 = 0x284D.
    const unsigned char head[8] = {0x4E, 0x43, 0x54, 0x31,
                                   0x00, 0x4D, 0x28, 0x00};
    for (std::size_t i = 0; i < sizeof head; ++i)
      EXPECT_EQ(static_cast<unsigned char>(bytes[i]), head[i])
          << name << " byte " << i;
  }
}

}  // namespace
}  // namespace nc::bits
