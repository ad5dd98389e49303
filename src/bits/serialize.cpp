#include "bits/serialize.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <initializer_list>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>

namespace nc::bits {

namespace {

constexpr std::string_view kMagic = "NCT1";
/// Payload bytes move in chunks of this size, a whole number of words, so
/// every chunk but the last starts and ends on a word boundary.
constexpr std::size_t kChunkBytes = 64 * 1024;
/// Magic, kind and up to two u64 fields.
constexpr std::size_t kMaxHeaderBytes = 4 + 1 + 2 * 8;

std::size_t payload_bytes(std::size_t trits) {
  return trits / 4 + (trits % 4 != 0);
}

void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Payload bytes [begin, begin+count) of `v` into `dst`; `begin` is a
/// multiple of 8, so byte begin+i is byte i%8 of packed word (begin+i)/8.
void pack(const TritVector& v, std::size_t begin, std::size_t count,
          std::uint8_t* dst) noexcept {
  std::size_t wi = begin / 8;
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) store_le64(dst + i, v.packed_word(wi++));
  if (i < count) {
    const std::uint64_t w = v.packed_word(wi);
    for (std::size_t b = 0; i + b < count; ++b)
      dst[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
  }
}

void write_bytes(std::ostream& out, const std::uint8_t* p, std::size_t n) {
  out.write(reinterpret_cast<const char*>(p), static_cast<std::streamsize>(n));
}

void write_bytes(std::vector<std::uint8_t>& out, const std::uint8_t* p,
                 std::size_t n) {
  out.insert(out.end(), p, p + n);
}

void write_payload(std::ostream& out, const TritVector& v) {
  std::array<std::uint8_t, kChunkBytes> chunk;
  const std::size_t total = payload_bytes(v.size());
  for (std::size_t done = 0; done < total; done += kChunkBytes) {
    const std::size_t count = std::min(kChunkBytes, total - done);
    pack(v, done, count, chunk.data());
    write_bytes(out, chunk.data(), count);
  }
}

void write_payload(std::vector<std::uint8_t>& out, const TritVector& v) {
  const std::size_t at = out.size();
  const std::size_t total = payload_bytes(v.size());
  out.resize(at + total);
  pack(v, 0, total, out.data() + at);
}

/// Header, then payload; `dims` are the kind's u64 fields.
template <typename Sink>
void write_stream(Sink& out, std::uint8_t kind,
                  std::initializer_list<std::uint64_t> dims,
                  const TritVector& v) {
  std::array<std::uint8_t, kMaxHeaderBytes> head{};
  std::copy(kMagic.begin(), kMagic.end(), head.begin());
  head[4] = kind;
  std::size_t len = 5;
  for (const std::uint64_t d : dims) {
    store_le64(head.data() + len, d);
    len += 8;
  }
  write_bytes(out, head.data(), len);
  write_payload(out, v);
}

/// Reads through the stream's own buffer, one chunk at a time.
class StreamSource {
 public:
  explicit StreamSource(std::istream& in) : in_(in) {}

  /// The next `want` (<= kChunkBytes) bytes; fewer only where input ends.
  std::span<const std::uint8_t> next(std::size_t want) {
    in_.read(reinterpret_cast<char*>(chunk_.data()),
             static_cast<std::streamsize>(want));
    return {chunk_.data(), static_cast<std::size_t>(in_.gcount())};
  }
  /// Bytes left before the end of a seekable stream (a file, a string);
  /// 0 when the stream cannot tell. Asks the buffer directly, so a stream
  /// that cannot seek keeps its state and position.
  std::size_t available() {
    std::streambuf& buf = *in_.rdbuf();
    const std::streampos here = buf.pubseekoff(0, std::ios::cur, std::ios::in);
    if (here == std::streampos(-1)) return 0;
    const std::streampos end = buf.pubseekoff(0, std::ios::end, std::ios::in);
    buf.pubseekpos(here, std::ios::in);
    return end > here ? static_cast<std::size_t>(end - here) : 0;
  }

 private:
  std::istream& in_;
  std::array<std::uint8_t, kChunkBytes> chunk_;
};

/// Hands out the caller's bytes in place, advancing the caller's span.
class SpanSource {
 public:
  explicit SpanSource(std::span<const std::uint8_t>& in) : in_(in) {}

  std::span<const std::uint8_t> next(std::size_t want) {
    const auto got = in_.first(std::min(want, in_.size()));
    in_ = in_.subspan(got.size());
    return got;
  }
  std::size_t available() const noexcept { return in_.size(); }

 private:
  std::span<const std::uint8_t>& in_;
};

template <typename Source>
std::uint8_t read_header(Source& src) {
  const auto magic = src.next(kMagic.size());
  if (!std::equal(magic.begin(), magic.end(), kMagic.begin(), kMagic.end()))
    throw std::runtime_error("not a ninec trit stream file");
  const auto kind = src.next(1);
  if (kind.empty() || kind[0] > 1)
    throw std::runtime_error("unknown trit stream kind");
  return kind[0];
}

template <typename Source>
std::uint64_t read_u64(Source& src) {
  const auto bytes = src.next(8);
  if (bytes.size() < 8) throw std::runtime_error("trit stream file truncated");
  return load_le64(bytes.data());
}

/// The payload of `n` trits, validated a word at a time. A word w holds an
/// invalid 0b11 pair iff w & (w >> 1) has a bit at an even position. Faults
/// are reported in stream order: an invalid trit in the bytes that did
/// arrive wins over the truncation after them.
template <typename Source>
TritVector read_payload(Source& src, std::size_t n) {
  constexpr std::uint64_t kPairLowBits = 0x5555555555555555ull;
  const std::size_t total = payload_bytes(n);
  std::vector<std::uint64_t> words;
  // Sized by the bytes the input really holds, never by the header alone.
  words.reserve((std::min(total, src.available()) + 7) / 8);
  for (std::size_t done = 0; done < total;) {
    const std::size_t want = std::min(kChunkBytes, total - done);
    const auto got = src.next(want);
    const std::size_t first = done / 8;  // every earlier chunk was whole
    done += got.size();
    words.resize((done + 7) / 8);
    std::size_t wi = first;
    std::size_t i = 0;
    for (; i + 8 <= got.size(); i += 8) words[wi++] = load_le64(got.data() + i);
    for (std::size_t b = 0; i + b < got.size(); ++b)
      words[wi] |= static_cast<std::uint64_t>(got[i + b]) << (8 * b);
    // Pairs past trit n in the final byte are ignored, not validated.
    if (done == total && n % 32 != 0)
      words.back() &= (std::uint64_t{1} << ((n % 32) * 2)) - 1;
    std::uint64_t invalid = 0;
    for (std::size_t j = first; j < words.size(); ++j)
      invalid |= words[j] & (words[j] >> 1) & kPairLowBits;
    if (invalid != 0) throw std::runtime_error("invalid trit in stream file");
    if (got.size() < want)
      throw std::runtime_error("trit stream file truncated");
  }
  return TritVector::from_packed(std::move(words), n);
}

template <typename Source>
TritVector read_trits_from(Source& src) {
  if (read_header(src) != 0)
    throw std::runtime_error("file holds a test set, not a trit stream");
  const std::uint64_t size = read_u64(src);
  return read_payload(src, static_cast<std::size_t>(size));
}

template <typename Source>
TestSet read_test_set_from(Source& src) {
  if (read_header(src) != 1)
    throw std::runtime_error("file holds a trit stream, not a test set");
  const std::uint64_t patterns = read_u64(src);
  const std::uint64_t width = read_u64(src);
  // The product may wrap; unflatten rejects such a geometry after the
  // (wrapped-size) payload has been read, in the order the format is laid
  // out.
  TritVector data =
      read_payload(src, static_cast<std::size_t>(patterns * width));
  return TestSet::unflatten(std::move(data),
                            static_cast<std::size_t>(patterns),
                            static_cast<std::size_t>(width));
}

}  // namespace

void save_trits(std::ostream& out, const TritVector& v) {
  write_stream(out, 0, {v.size()}, v);
}

TritVector load_trits(std::istream& in) {
  StreamSource src(in);
  return read_trits_from(src);
}

void save_test_set(std::ostream& out, const TestSet& ts) {
  write_stream(out, 1, {ts.pattern_count(), ts.pattern_length()},
               ts.flatten());
}

TestSet load_test_set(std::istream& in) {
  StreamSource src(in);
  return read_test_set_from(src);
}

void append_trits(std::vector<std::uint8_t>& out, const TritVector& v) {
  out.reserve(out.size() + 4 + 1 + 8 + payload_bytes(v.size()));
  write_stream(out, 0, {v.size()}, v);
}

void append_test_set(std::vector<std::uint8_t>& out, const TestSet& ts) {
  out.reserve(out.size() + kMaxHeaderBytes + payload_bytes(ts.bit_count()));
  write_stream(out, 1, {ts.pattern_count(), ts.pattern_length()},
               ts.flatten());
}

TritVector read_trits(std::span<const std::uint8_t>& in) {
  SpanSource src(in);
  return read_trits_from(src);
}

TestSet read_test_set(std::span<const std::uint8_t>& in) {
  SpanSource src(in);
  return read_test_set_from(src);
}

namespace {

template <typename SaveFn, typename Value>
void save_file(const std::string& path, const Value& value, SaveFn fn) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write file: " + path);
  fn(out, value);
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace

void save_trits_file(const std::string& path, const TritVector& v) {
  save_file(path, v, [](std::ostream& o, const TritVector& x) {
    save_trits(o, x);
  });
}

TritVector load_trits_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  return load_trits(in);
}

void save_test_set_file(const std::string& path, const TestSet& ts) {
  save_file(path, ts, [](std::ostream& o, const TestSet& x) {
    save_test_set(o, x);
  });
}

TestSet load_test_set_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  return load_test_set(in);
}

}  // namespace nc::bits
