// Differential fuzz of the word-at-a-time NCT1 codecs (bits/serialize.h)
// and the serve payload parsers (serve/frame.h) against the per-trit and
// std::istringstream oracles of tests/reference. Writers must produce the
// oracle's bytes; readers, on every truncation and single-bit flip of valid
// input, must return the oracle's value and consume as many bytes, or throw
// its exception type with its message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <new>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "bits/serialize.h"
#include "reference/serialize_reference.h"
#include "serve/frame.h"

namespace {

// The largest single allocation made while `g_track_allocations` is set:
// pins that a reader sizes its storage by the bytes that arrived, not by
// the length a header claims.
bool g_track_allocations = false;
std::size_t g_largest_allocation = 0;

}  // namespace

// Out of line, so the compiler pairs each delete with its new rather than
// with the malloc/free inside them.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_track_allocations)
    g_largest_allocation = std::max(g_largest_allocation, n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace nc::bits {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// A parse result: the value and the bytes it consumed, or the dynamic type
/// and message of what was thrown.
template <typename T>
struct Outcome {
  std::optional<T> value;
  std::size_t consumed = 0;
  std::string error;
};

template <typename T>
std::string describe(const Outcome<T>& o) {
  return o.value ? "value, " + std::to_string(o.consumed) + " bytes"
                 : "throws " + o.error;
}

template <typename T>
bool same(const Outcome<T>& a, const Outcome<T>& b) {
  return a.value == b.value && a.consumed == b.consumed && a.error == b.error;
}

template <typename T>
Outcome<T> run(const std::function<T(std::size_t&)>& parse) {
  Outcome<T> o;
  try {
    std::size_t consumed = 0;
    o.value = parse(consumed);
    o.consumed = consumed;
  } catch (const std::exception& e) {
    o.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  return o;
}

/// Parses `bytes` through an istream loader.
template <typename T>
Outcome<T> from_stream(T (*load)(std::istream&), const Bytes& bytes) {
  return run<T>([&](std::size_t& consumed) {
    std::istringstream in(std::string(bytes.begin(), bytes.end()));
    T v = load(in);
    consumed = static_cast<std::size_t>(in.tellg());
    return v;
  });
}

/// Parses `bytes` through a span reader.
template <typename T>
Outcome<T> from_span(T (*read)(std::span<const std::uint8_t>&),
                     const Bytes& bytes) {
  return run<T>([&](std::size_t& consumed) {
    std::span<const std::uint8_t> in(bytes);
    T v = read(in);
    consumed = bytes.size() - in.size();
    return v;
  });
}

/// Every loader on `bytes` agrees with its oracle.
void expect_readers_agree(const Bytes& bytes, const std::string& what) {
  const auto ref_trits = from_stream(&reference_load_trits, bytes);
  const auto stream_trits = from_stream(&load_trits, bytes);
  const auto span_trits = from_span(&read_trits, bytes);
  ASSERT_TRUE(same(stream_trits, ref_trits))
      << what << ": load_trits " << describe(stream_trits) << ", oracle "
      << describe(ref_trits);
  ASSERT_TRUE(same(span_trits, ref_trits))
      << what << ": read_trits " << describe(span_trits) << ", oracle "
      << describe(ref_trits);

  const auto ref_set = from_stream(&reference_load_test_set, bytes);
  const auto stream_set = from_stream(&load_test_set, bytes);
  const auto span_set = from_span(&read_test_set, bytes);
  ASSERT_TRUE(same(stream_set, ref_set))
      << what << ": load_test_set " << describe(stream_set) << ", oracle "
      << describe(ref_set);
  ASSERT_TRUE(same(span_set, ref_set))
      << what << ": read_test_set " << describe(span_set) << ", oracle "
      << describe(ref_set);
}

/// Runs `check` on every truncation and every single-bit flip of `bytes`.
void for_each_truncation_and_flip(
    const Bytes& bytes, const std::function<void(const Bytes&)>& check) {
  for (std::size_t len = 0; len < bytes.size(); ++len)
    check(Bytes(bytes.begin(), bytes.begin() + static_cast<long>(len)));
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    Bytes flipped = bytes;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    check(flipped);
  }
}

TritVector random_trits(std::size_t n, std::mt19937_64& rng) {
  TritVector v(n, Trit::Zero);
  for (std::size_t i = 0; i < n; ++i) v.set(i, static_cast<Trit>(rng() % 3));
  return v;
}

/// A test set holding `v`: the widest row of at most 16 trits that divides
/// its size (0 x 3 for an empty vector).
TestSet shaped(const TritVector& v) {
  std::size_t width = v.empty() ? 3 : 1;
  for (std::size_t w = 1; w <= 16 && w <= v.size(); ++w)
    if (v.size() % w == 0) width = w;
  return TestSet::unflatten(v, v.size() / width, width);
}

template <typename Value>
Bytes saved(void (*save)(std::ostream&, const Value&), const Value& v) {
  std::ostringstream out;
  save(out, v);
  const std::string s = out.str();
  return Bytes(s.begin(), s.end());
}

template <typename Value>
Bytes appended(void (*append)(Bytes&, const Value&), const Value& v) {
  Bytes out = {0xA5};  // appends after what the buffer already holds
  append(out, v);
  return Bytes(out.begin() + 1, out.end());
}

void expect_writers_agree(const TritVector& v) {
  const TestSet ts = shaped(v);
  const Bytes ref_trits = saved(&reference_save_trits, v);
  const Bytes ref_set = saved(&reference_save_test_set, ts);
  ASSERT_EQ(saved(&save_trits, v), ref_trits) << "n=" << v.size();
  ASSERT_EQ(appended(&append_trits, v), ref_trits) << "n=" << v.size();
  ASSERT_EQ(saved(&save_test_set, ts), ref_set) << "n=" << v.size();
  ASSERT_EQ(appended(&append_test_set, ts), ref_set) << "n=" << v.size();
}

TEST(SerializeDiffFuzz, WritersMatchOracleForEveryShortLength) {
  std::mt19937_64 rng(1);
  for (std::size_t n = 0; n <= 130; ++n)
    expect_writers_agree(random_trits(n, rng));
}

TEST(SerializeDiffFuzz, WritersMatchOracleOnSeededVectors) {
  std::mt19937_64 rng(2);
  for (int trial = 0; trial < 200; ++trial)
    expect_writers_agree(random_trits(rng() % 5001, rng));
}

TEST(SerializeDiffFuzz, WritersMatchOracleAcrossChunkBoundaries) {
  // 64 KiB of payload is 262144 trits.
  std::mt19937_64 rng(3);
  for (const std::size_t n : {262143u, 262144u, 262145u, 524291u})
    expect_writers_agree(random_trits(n, rng));
}

TEST(SerializeDiffFuzz, ReadersMatchOracleOnEveryCutAndFlipOfShortFiles) {
  std::mt19937_64 rng(4);
  for (std::size_t n = 0; n <= 130; ++n) {
    const TritVector v = random_trits(n, rng);
    for (const Bytes& file : {saved(&save_trits, v),
                              saved(&save_test_set, shaped(v))}) {
      for_each_truncation_and_flip(file, [&](const Bytes& input) {
        expect_readers_agree(input, "n=" + std::to_string(n));
      });
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SerializeDiffFuzz, ReadersMatchOracleOnSeededDamageToPinnedS5378) {
  std::ifstream in(NC_GOLDEN_S5378_NCT1, std::ios::binary);
  ASSERT_TRUE(in) << NC_GOLDEN_S5378_NCT1;
  const Bytes pinned((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  ASSERT_GT(pinned.size(), 21u);
  expect_readers_agree(pinned, "pinned file");
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t len = rng() % pinned.size();
    expect_readers_agree(
        Bytes(pinned.begin(), pinned.begin() + static_cast<long>(len)),
        "truncated to " + std::to_string(len));
    if (HasFatalFailure()) return;
  }
  for (int trial = 0; trial < 500; ++trial) {
    Bytes flipped = pinned;
    const std::size_t bit = rng() % (pinned.size() * 8);
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_readers_agree(flipped, "bit " + std::to_string(bit) + " flipped");
    if (HasFatalFailure()) return;
  }
}

TEST(SerializeDiffFuzz, ReadersMatchOracleAtChunkBoundaries) {
  // A 2-chunk payload cut at, and damaged just after, the first chunk.
  std::mt19937_64 rng(6);
  const Bytes file = saved(&save_trits, random_trits(262144 + 37, rng));
  const std::size_t chunk_end = 13 + 65536;
  expect_readers_agree(file, "whole");
  for (const std::size_t len : {chunk_end - 1, chunk_end, chunk_end + 1})
    expect_readers_agree(
        Bytes(file.begin(), file.begin() + static_cast<long>(len)),
        "cut at " + std::to_string(len));
  for (const std::size_t at : {chunk_end - 1, chunk_end, file.size() - 1}) {
    Bytes bad = file;
    bad[at] = 0xFF;  // four 0b11 pairs
    expect_readers_agree(bad, "0xFF at " + std::to_string(at));
    bad.resize(at + 1);  // and the stream ends right after it
    expect_readers_agree(bad, "0xFF then end at " + std::to_string(at));
  }
}

TEST(SerializeDiffFuzz, HugeClaimAllocatesOnlyWhatArrived) {
  // A header claiming 2^60 trits followed by 1000 payload bytes.
  Bytes file = {'N', 'C', 'T', '1', 0};
  constexpr std::uint64_t kClaimed = std::uint64_t{1} << 60;
  for (int i = 0; i < 8; ++i)
    file.push_back(static_cast<std::uint8_t>(kClaimed >> (8 * i)));
  file.resize(file.size() + 1000, 0x24);  // trits 0, 1, 2, 0
  const std::string truncated = "trit stream file truncated";
  std::istringstream stream(std::string(file.begin(), file.end()));
  std::span<const std::uint8_t> span(file);
  for (const bool use_span : {false, true}) {
    g_largest_allocation = 0;
    g_track_allocations = true;
    try {
      if (use_span)
        read_trits(span);
      else
        load_trits(stream);
      ADD_FAILURE() << "a 2^60-trit claim over 1000 bytes loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), truncated);
    }
    g_track_allocations = false;
    EXPECT_LE(g_largest_allocation, 1000u) << (use_span ? "span" : "stream");
  }
}

}  // namespace
}  // namespace nc::bits

namespace nc::serve {
namespace {

template <typename T>
std::string outcome_of(const std::function<T()>& parse, T& value) {
  try {
    value = parse();
    return "";
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
}

bool same_request(const EncodeRequest& a, const EncodeRequest& b) {
  return a.spec == b.spec && a.tests == b.tests;
}

bool same_request(const DecodeRequest& a, const DecodeRequest& b) {
  return a.spec == b.spec && a.patterns == b.patterns && a.width == b.width &&
         a.te == b.te;
}

template <typename Request>
void expect_parser_agrees(Request (*parse)(const std::vector<std::uint8_t>&),
                          Request (*oracle)(const std::vector<std::uint8_t>&),
                          const std::vector<std::uint8_t>& payload,
                          const std::string& what) {
  Request got, want;
  const std::string got_error =
      outcome_of<Request>([&] { return parse(payload); }, got);
  const std::string want_error =
      outcome_of<Request>([&] { return oracle(payload); }, want);
  ASSERT_EQ(got_error, want_error) << what;
  if (want_error.empty()) {
    ASSERT_TRUE(same_request(got, want)) << what;
  }
}

TEST(SerializeDiffFuzz, PayloadParsersMatchOracleOnEveryCutAndFlip) {
  EncodeRequest enc;
  enc.spec.k = 6;
  enc.spec.lengths = {1, 2, 5, 5, 5, 5, 5, 5, 4};
  enc.tests = bits::TestSet::from_strings({"01X10X1", "XX0110X", "1X0X0X1"});
  DecodeRequest dec;
  dec.spec.k = 8;
  dec.spec.lengths = {2, 1, 5, 5, 5, 5, 5, 4, 5};
  dec.patterns = 2;
  dec.width = 5;
  dec.te = bits::TritVector::from_string("0110X10X0011010X1100X1");
  for (const auto& payload : {to_payload(enc), to_payload(dec)}) {
    const auto check = [&](const std::vector<std::uint8_t>& input) {
      const std::string what = std::to_string(input.size()) + "-byte input";
      expect_parser_agrees(&parse_encode_request,
                           &reference_parse_encode_request, input, what);
      expect_parser_agrees(&parse_decode_request,
                           &reference_parse_decode_request, input, what);
    };
    check(payload);
    std::vector<std::uint8_t> longer = payload;
    longer.push_back(0);
    check(longer);  // trailing bytes
    bits::for_each_truncation_and_flip(payload, check);
  }
}

}  // namespace
}  // namespace nc::serve
