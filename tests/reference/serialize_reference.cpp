#include "reference/serialize_reference.h"

#include <array>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace nc::bits {

namespace {

constexpr char kMagic[4] = {'N', 'C', 'T', '1'};

void write_u64(std::ostream& out, std::uint64_t v) {
  std::array<char, 8> buf;
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.write(buf.data(), buf.size());
}

std::uint64_t read_u64(std::istream& in) {
  std::array<char, 8> buf;
  in.read(buf.data(), buf.size());
  if (!in) throw std::runtime_error("trit stream file truncated");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  return v;
}

void write_payload(std::ostream& out, const TritVector& v) {
  unsigned char byte = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    byte |= static_cast<unsigned char>(v.get(i)) << ((i % 4) * 2);
    if (i % 4 == 3) {
      out.put(static_cast<char>(byte));
      byte = 0;
    }
  }
  if (v.size() % 4 != 0) out.put(static_cast<char>(byte));
}

TritVector read_payload(std::istream& in, std::size_t size) {
  // Grows as bytes arrive, so a header claiming petabytes fails on the
  // first missing byte instead of exhausting memory.
  TritVector v;
  int byte = 0;
  for (std::size_t i = 0; i < size; ++i) {
    if (i % 4 == 0) {
      byte = in.get();
      if (byte == EOF) throw std::runtime_error("trit stream file truncated");
    }
    const unsigned raw = (static_cast<unsigned>(byte) >> ((i % 4) * 2)) & 0x3u;
    if (raw > 2) throw std::runtime_error("invalid trit in stream file");
    v.push_back(static_cast<Trit>(raw));
  }
  return v;
}

void write_header(std::ostream& out, unsigned char kind) {
  out.write(kMagic, sizeof kMagic);
  out.put(static_cast<char>(kind));
}

unsigned char read_header(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof magic);
  if (!in || std::string_view(magic, 4) != std::string_view(kMagic, 4))
    throw std::runtime_error("not a ninec trit stream file");
  const int kind = in.get();
  if (kind != 0 && kind != 1)
    throw std::runtime_error("unknown trit stream kind");
  return static_cast<unsigned char>(kind);
}

}  // namespace

void reference_save_trits(std::ostream& out, const TritVector& v) {
  write_header(out, 0);
  write_u64(out, v.size());
  write_payload(out, v);
}

TritVector reference_load_trits(std::istream& in) {
  if (read_header(in) != 0)
    throw std::runtime_error("file holds a test set, not a trit stream");
  const std::uint64_t size = read_u64(in);
  return read_payload(in, static_cast<std::size_t>(size));
}

void reference_save_test_set(std::ostream& out, const TestSet& ts) {
  write_header(out, 1);
  write_u64(out, ts.pattern_count());
  write_u64(out, ts.pattern_length());
  write_payload(out, ts.flatten());
}

TestSet reference_load_test_set(std::istream& in) {
  if (read_header(in) != 1)
    throw std::runtime_error("file holds a trit stream, not a test set");
  const std::uint64_t patterns = read_u64(in);
  const std::uint64_t width = read_u64(in);
  const TritVector data =
      read_payload(in, static_cast<std::size_t>(patterns * width));
  return TestSet::unflatten(data, static_cast<std::size_t>(patterns),
                            static_cast<std::size_t>(width));
}

}  // namespace nc::bits

namespace nc::serve {

namespace {

class PayloadStream {
 public:
  explicit PayloadStream(const std::vector<std::uint8_t>& payload)
      : in_(std::string(payload.begin(), payload.end())) {}

  std::istream& stream() { return in_; }

  std::uint64_t u64() { return le(8); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint8_t u8() {
    const int c = in_.get();
    if (c == EOF) throw std::runtime_error("payload truncated");
    return static_cast<std::uint8_t>(c);
  }
  void expect_end() {
    if (in_.peek() != EOF)
      throw std::runtime_error("payload has trailing bytes");
  }

 private:
  std::uint64_t le(int bytes) {
    std::array<char, 8> buf;
    in_.read(buf.data(), bytes);
    if (!in_) throw std::runtime_error("payload truncated");
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
           << (8 * i);
    return v;
  }

  std::istringstream in_;
};

CodecSpec read_spec(PayloadStream& in) {
  CodecSpec spec;
  spec.k = in.u32();
  for (auto& len : spec.lengths) len = in.u8();
  return spec;
}

}  // namespace

EncodeRequest reference_parse_encode_request(
    const std::vector<std::uint8_t>& payload) {
  PayloadStream in(payload);
  EncodeRequest req;
  req.spec = read_spec(in);
  req.tests = bits::reference_load_test_set(in.stream());
  in.expect_end();
  return req;
}

DecodeRequest reference_parse_decode_request(
    const std::vector<std::uint8_t>& payload) {
  PayloadStream in(payload);
  DecodeRequest req;
  req.spec = read_spec(in);
  req.patterns = static_cast<std::size_t>(in.u64());
  req.width = static_cast<std::size_t>(in.u64());
  req.te = bits::reference_load_trits(in.stream());
  in.expect_end();
  return req;
}

}  // namespace nc::serve
