#include "bits/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

namespace nc::bits {
namespace {

TEST(Serialize, TritVectorRoundTrip) {
  const TritVector v = TritVector::from_string("01X10XX011X");
  std::stringstream io;
  save_trits(io, v);
  EXPECT_EQ(load_trits(io), v);
}

TEST(Serialize, EmptyVector) {
  std::stringstream io;
  save_trits(io, TritVector{});
  EXPECT_TRUE(load_trits(io).empty());
}

TEST(Serialize, SizesNotMultipleOfFour) {
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 63u, 64u, 65u}) {
    TritVector v;
    for (std::size_t i = 0; i < n; ++i)
      v.push_back(static_cast<Trit>(i % 3));
    std::stringstream io;
    save_trits(io, v);
    EXPECT_EQ(load_trits(io), v) << "n=" << n;
  }
}

TEST(Serialize, TestSetRoundTrip) {
  const TestSet ts = TestSet::from_strings({"01X1", "XX00", "1111"});
  std::stringstream io;
  save_test_set(io, ts);
  EXPECT_EQ(load_test_set(io), ts);
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream io("JUNKDATA");
  EXPECT_THROW(load_trits(io), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedPayload) {
  const TritVector v(100, Trit::One);
  std::stringstream io;
  save_trits(io, v);
  const std::string full = io.str();
  std::stringstream cut(full.substr(0, full.size() - 5));
  EXPECT_THROW(load_trits(cut), std::runtime_error);
}

TEST(Serialize, RejectsKindMismatch) {
  std::stringstream io;
  save_trits(io, TritVector::from_string("01"));
  EXPECT_THROW(load_test_set(io), std::runtime_error);
  std::stringstream io2;
  save_test_set(io2, TestSet::from_strings({"01"}));
  EXPECT_THROW(load_trits(io2), std::runtime_error);
}

TEST(Serialize, RejectsInvalidTritEncoding) {
  std::stringstream io;
  save_trits(io, TritVector::from_string("0000"));
  std::string data = io.str();
  data[data.size() - 1] = '\xFF';  // 0b11 trits
  std::stringstream bad(data);
  EXPECT_THROW(load_trits(bad), std::runtime_error);
}

TEST(Serialize, RejectsOverflowingTestSetGeometry) {
  // patterns x width = 2 x 2^63 wraps to 0 in size_t, so an empty payload
  // would otherwise load as a test set claiming that geometry.
  std::string bytes("NCT1\x01", 5);
  for (const std::uint64_t v : {std::uint64_t{2}, std::uint64_t{1} << 63})
    for (int i = 0; i < 8; ++i)
      bytes.push_back(static_cast<char>(v >> (8 * i)));
  std::stringstream io(bytes);
  EXPECT_THROW(load_test_set(io), std::invalid_argument);
}

TEST(Serialize, FileHelpersRoundTrip) {
  const std::string path = "/tmp/nc_serialize_test.bin";
  const TestSet ts = TestSet::from_strings({"01X", "X10"});
  save_test_set_file(path, ts);
  EXPECT_EQ(load_test_set_file(path), ts);
  std::remove(path.c_str());
  EXPECT_THROW(load_test_set_file(path), std::runtime_error);
}

TEST(Serialize, PayloadIsCompact) {
  // 4 trits/byte: 1000 trits -> 4 + 1 + 8 + 250 bytes.
  const TritVector v(1000, Trit::X);
  std::stringstream io;
  save_trits(io, v);
  EXPECT_EQ(io.str().size(), 4u + 1u + 8u + 250u);
}

}  // namespace
}  // namespace nc::bits
