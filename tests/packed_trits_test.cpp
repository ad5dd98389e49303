// Golden and exhaustive tests of the packed-word primitives the 9C codec
// runs on: TritVector::append_range, packed_bits and append_packed, and
// NineCoded::scan_half.
//
// The goldens are hand-computed (or pinned from a first verified run): the
// value and X lanes a window reads, the scan classification at every
// boundary shape a 64-bit word can take, and one frozen TE byte dump for a
// calibrated ISCAS'89 cube set. The exhaustive tests hold each primitive to
// its per-trit definition for every begin and length up to 130 on seeded
// vectors, comparing whole TritVectors (so the zero tail past size() is
// checked too). The differential fuzz suite proves production == reference;
// this file proves both equal the *intended* bits, so a lockstep regression
// cannot hide. The Bitplane* suite names are kept from the bitplane type
// these tests were first written for, so that test identities survive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <utility>

#include "bits/bitstream.h"
#include "bits/serialize.h"
#include "codec/nine_coded.h"
#include "core/crc.h"
#include "gen/cube_gen.h"
#include "gen/profiles.h"
#include "reference/nine_coded_reference.h"

namespace nc::bits {
namespace {

using codec::HalfScan;
using codec::NineCoded;

/// "01X" string -> trits, the order they are appended.
TritVector trits(const std::string& s) {
  TritVector v;
  for (char c : s)
    v.push_back(c == '1' ? Trit::One : (c == 'X' ? Trit::X : Trit::Zero));
  return v;
}

/// The period-4 sequence One,Zero,X,One repeated over `n` trits: its value
/// and X lanes are nibble-periodic and easy to compute by hand.
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

/// Seeded random trits, a third of each kind.
TritVector random_trits(std::mt19937& rng, std::size_t n) {
  TritVector v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<Trit>(rng() % 3));
  return v;
}

constexpr unsigned kValueLane = 0;
constexpr unsigned kXLane = 1;

/// One lane of v[begin, begin+len), len <= 64, read through packed_bits
/// windows: bit j is the value (kValueLane) or X (kXLane) bit of trit
/// begin+j.
std::uint64_t lane_bits(const TritVector& v, std::size_t begin,
                        std::size_t len, unsigned lane) {
  std::uint64_t bits = 0;
  for (std::size_t j = 0; j < len; j += 32) {
    const auto n = static_cast<unsigned>(std::min<std::size_t>(len - j, 32));
    const std::uint64_t fields = v.packed_bits(begin + j, n);
    for (unsigned t = 0; t < n; ++t)
      bits |= ((fields >> (2 * t + lane)) & 1u) << (j + t);
  }
  return bits;
}

// ------------------------------------------------------ append goldens

TEST(BitplaneGolden, BuiltByAppendEqualsExtracted) {
  const TritVector original = period4(200);
  TritVector built;
  // Mixed construction: window appends, one straddling the word boundary,
  // and a straddling range copy.
  built.append_packed(original.packed_bits(0, 32), 32);
  built.append_packed(original.packed_bits(32, 32), 32);
  built.append_packed(original.packed_bits(64, 30), 30);
  built.append_range(original, 94, 106);
  ASSERT_EQ(built.size(), original.size());
  EXPECT_TRUE(built == original);
}

TEST(BitplaneGolden, AppendBitsMsbMatchesCodewordOrder) {
  TritVector p;
  p.append_packed(codec::Codeword{0b1100u, 4}.packed(), 4);  // sends 1,1,0,0
  EXPECT_TRUE(p == trits("1100"));
}

TEST(BitplaneGolden, AppendRunPatterns) {
  TritVector p;
  p.append_run(3, Trit::X);
  p.append_run(70, Trit::One);
  p.append_run(2, Trit::Zero);
  TritVector expect;
  for (int i = 0; i < 3; ++i) expect.push_back(Trit::X);
  for (int i = 0; i < 70; ++i) expect.push_back(Trit::One);
  for (int i = 0; i < 2; ++i) expect.push_back(Trit::Zero);
  EXPECT_TRUE(p == expect);
  EXPECT_EQ(lane_bits(p, 0, 3, kXLane), 0x7ull);
  EXPECT_EQ(lane_bits(p, 0, 64, kValueLane), 0xFFFFFFFFFFFFFFF8ull);
}

// --------------------------------------------- scan classification goldens

/// Per-trit scan, the semantics scan_half must reproduce.
HalfScan reference_scan(const TritVector& v, std::size_t begin,
                        std::size_t len) {
  HalfScan s;
  for (std::size_t i = begin; i < begin + len; ++i) {
    switch (v.get(i)) {
      case Trit::One: s.kind.zero_compatible = false; break;
      case Trit::Zero: s.kind.one_compatible = false; break;
      default: ++s.x_count; break;
    }
  }
  return s;
}

void expect_scan(const TritVector& v, std::size_t begin, std::size_t len) {
  const HalfScan got = NineCoded::scan_half(v, begin, len);
  const HalfScan want = reference_scan(v, begin, len);
  EXPECT_EQ(got.kind.zero_compatible, want.kind.zero_compatible)
      << "begin=" << begin << " len=" << len;
  EXPECT_EQ(got.kind.one_compatible, want.kind.one_compatible)
      << "begin=" << begin << " len=" << len;
  EXPECT_EQ(got.x_count, want.x_count) << "begin=" << begin << " len=" << len;
}

TEST(BitplaneScan, HalfExactlyFillsAWord) {
  const TritVector v(256, Trit::X);
  const HalfScan s = NineCoded::scan_half(v, 64, 64);
  EXPECT_TRUE(s.kind.zero_compatible);  // no specified 1
  EXPECT_TRUE(s.kind.one_compatible);   // no specified 0
  EXPECT_EQ(s.x_count, 64u);
}

TEST(BitplaneScan, BoundaryShapes) {
  // A fixed irregular sequence long enough for every alignment case.
  TritVector v;
  for (std::size_t i = 0; i < 300; ++i)
    v.push_back(i % 7 == 0   ? Trit::One
                : i % 5 == 0 ? Trit::X
                             : Trit::Zero);
  // Exactly one word; spanning two words from an offset; sub-word head and
  // tail; window ending exactly at a word boundary; empty window.
  expect_scan(v, 0, 64);
  expect_scan(v, 32, 64);
  expect_scan(v, 1, 63);
  expect_scan(v, 63, 2);
  expect_scan(v, 64, 64);
  expect_scan(v, 100, 28);  // ends at 128
  expect_scan(v, 130, 33);
  expect_scan(v, 299, 1);
  expect_scan(v, 150, 0);
  expect_scan(v, 64, 0);
}

TEST(BitplaneScan, SingleConflictAtEveryWordPosition) {
  // One specified 1 in a sea of X: zero-compatibility must drop exactly
  // when the window covers it, for every position in the word.
  for (std::size_t pos : {0u, 1u, 31u, 32u, 63u, 64u, 65u, 127u}) {
    TritVector v(128, Trit::X);
    v.set(pos, Trit::One);
    const HalfScan covering = NineCoded::scan_half(v, pos, 1);
    EXPECT_FALSE(covering.kind.zero_compatible);
    EXPECT_EQ(covering.x_count, 0u);
    if (pos > 0) {
      const HalfScan before = NineCoded::scan_half(v, 0, pos);
      EXPECT_TRUE(before.kind.zero_compatible) << pos;
      EXPECT_EQ(before.x_count, pos) << pos;
    }
    const HalfScan after = NineCoded::scan_half(v, pos + 1, 128 - pos - 1);
    EXPECT_TRUE(after.kind.zero_compatible) << pos;
    EXPECT_EQ(after.x_count, 128 - pos - 1) << pos;
  }
}

// ----------------------------------------------------------------- reader

// The decoder claims a payload with TritReader::skip and copies it with
// append_range; the reader's errors carry the offsets the decoder reports.
TEST(BitplaneReader, MirrorsTritReaderErrorOffsets) {
  const TritVector v = trits("10X10");
  TritReader r(v);
  EXPECT_TRUE(r.next_bit());
  EXPECT_FALSE(r.next_bit());
  // The X sits at absolute offset 2; InvalidSymbol must carry exactly that.
  try {
    r.next_bit();
    FAIL() << "X in codeword position not detected";
  } catch (const InvalidSymbol& e) {
    EXPECT_EQ(e.offset(), 2u);
  }
  // The cursor consumed the X, so a 3-symbol payload from position 3
  // overruns: offset 3, requested 3, have 2.
  try {
    r.skip(3);
    FAIL() << "overrun not detected";
  } catch (const StreamOverrun& e) {
    EXPECT_EQ(e.offset(), 3u);
    EXPECT_EQ(e.requested(), 3u);
    EXPECT_EQ(e.available(), 2u);
  }
  TritVector out;
  const std::size_t at = r.position();
  r.skip(2);
  out.append_range(v, at, 2);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(out == trits("10"));
}

// ------------------------------------- exhaustive per-trit definitions

// Sources of 0-200 trits: empty, around the word and window boundaries,
// and long enough for every begin and length up to 130.
constexpr std::size_t kSourceSizes[] = {0, 1, 31, 32, 33, 64, 97, 131, 200};
constexpr std::size_t kMaxOffset = 130;

/// `dst` followed by src[begin, begin+n), appended trit by trit.
TritVector append_per_trit(TritVector dst, const TritVector& src,
                           std::size_t begin, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst.push_back(src.get(begin + i));
  return dst;
}

TEST(PackedTrits, AppendRangeMatchesPerTritCopy) {
  std::mt19937 rng(26);
  for (std::size_t size : kSourceSizes) {
    const TritVector src = random_trits(rng, size);
    // Destination prefixes put the copy at every offset class of a word.
    for (std::size_t prefix : {0u, 1u, 17u, 31u, 32u, 33u}) {
      const TritVector dst = random_trits(rng, prefix);
      for (std::size_t begin = 0; begin <= std::min(size, kMaxOffset);
           ++begin) {
        for (std::size_t n = 0; n <= std::min(size - begin, kMaxOffset);
             ++n) {
          TritVector got = dst;
          got.append_range(src, begin, n);
          ASSERT_TRUE(got == append_per_trit(dst, src, begin, n))
              << "size=" << size << " prefix=" << prefix
              << " begin=" << begin << " n=" << n;
        }
      }
    }
  }
}

TEST(PackedTrits, AppendRangeOfItself) {
  std::mt19937 rng(27);
  for (std::size_t size : kSourceSizes) {
    const TritVector src = random_trits(rng, size);
    for (std::size_t begin = 0; begin <= std::min(size, kMaxOffset); ++begin) {
      for (std::size_t n = 0; n <= std::min(size - begin, kMaxOffset); ++n) {
        TritVector got = src;
        got.append_range(got, begin, n);
        ASSERT_TRUE(got == append_per_trit(src, src, begin, n))
            << "size=" << size << " begin=" << begin << " n=" << n;
      }
    }
    TritVector doubled = src;
    doubled.append(doubled);
    ASSERT_TRUE(doubled == append_per_trit(src, src, 0, size)) << size;
  }
}

TEST(PackedTrits, SliceMatchesPerTritCopy) {
  std::mt19937 rng(28);
  for (std::size_t size : kSourceSizes) {
    const TritVector src = random_trits(rng, size);
    for (std::size_t begin = 0; begin <= kMaxOffset; ++begin) {
      for (std::size_t len = 0; len <= kMaxOffset; ++len) {
        // slice clamps to the end of the source.
        const std::size_t n =
            begin >= size ? 0 : std::min(len, size - begin);
        ASSERT_TRUE(src.slice(begin, len) ==
                    append_per_trit(TritVector(), src, begin, n))
            << "size=" << size << " begin=" << begin << " len=" << len;
      }
    }
  }
}

/// Trits begin..begin+n-1 of `v` as 2-bit fields, built one trit at a time.
std::uint64_t fields_per_trit(const TritVector& v, std::size_t begin,
                              unsigned n) {
  std::uint64_t fields = 0;
  for (unsigned j = 0; j < n; ++j)
    fields |= std::uint64_t{static_cast<std::uint8_t>(v.get(begin + j))}
              << (2 * j);
  return fields;
}

TEST(PackedTrits, PackedBitsMatchesPerTritFields) {
  std::mt19937 rng(29);
  for (std::size_t size : kSourceSizes) {
    const TritVector src = random_trits(rng, size);
    for (std::size_t begin = 0; begin <= std::min(size, kMaxOffset); ++begin) {
      for (unsigned n = 0; n <= std::min<std::size_t>(size - begin, 32); ++n)
        ASSERT_EQ(src.packed_bits(begin, n), fields_per_trit(src, begin, n))
            << "size=" << size << " begin=" << begin << " n=" << n;
    }
  }
}

TEST(PackedTrits, AppendPackedMatchesPerTritAppend) {
  std::mt19937 rng(30);
  const TritVector pool = random_trits(rng, 200);
  for (std::size_t prefix = 0; prefix <= kMaxOffset; ++prefix) {
    const TritVector dst = pool.slice(0, prefix);
    for (unsigned n = 0; n <= 32; ++n) {
      const std::size_t from = rng() % (pool.size() - 32);
      TritVector got = dst;
      got.reserve(prefix + n);
      got.append_packed(fields_per_trit(pool, from, n), n);
      ASSERT_TRUE(got == append_per_trit(dst, pool, from, n))
          << "prefix=" << prefix << " n=" << n;
    }
  }
}

TEST(PackedTrits, ScanHalfMatchesPerTritScan) {
  std::mt19937 rng(31);
  for (std::size_t size : kSourceSizes) {
    // Sparse and dense X, so uniform halves occur as well as mismatches.
    for (unsigned density = 0; density < 3; ++density) {
      TritVector src;
      for (std::size_t i = 0; i < size; ++i) {
        const unsigned r = rng() % 16;
        src.push_back(r < 4 * density + 4 ? Trit::X
                      : r % 5 == 0        ? Trit::One
                                          : Trit::Zero);
      }
      for (std::size_t begin = 0; begin <= std::min(size, kMaxOffset);
           ++begin) {
        for (std::size_t len = 0; len <= std::min(size - begin, kMaxOffset);
             ++len) {
          const HalfScan got = NineCoded::scan_half(src, begin, len);
          const HalfScan want = reference_scan(src, begin, len);
          ASSERT_TRUE(got.kind.zero_compatible == want.kind.zero_compatible &&
                      got.kind.one_compatible == want.kind.one_compatible &&
                      got.x_count == want.x_count)
              << "size=" << size << " begin=" << begin << " len=" << len;
        }
      }
    }
  }
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
