// The golden serve session format, shared by its generator
// (make_session.cpp) and its replay test (serve_golden_test.cpp).
//
// A session is a list of exchanges, each one request frame and the one
// reply frame the server wrote for it, both as raw wire bytes. On disk it
// is text, three lines per exchange:
//
//   name <label>
//   req <request frame, lowercase hex>
//   rep <reply frame, lowercase hex>
//
// Lines starting with '#' are comments.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/frame.h"
#include "serve/transport.h"

namespace nc::serve::golden {

struct Exchange {
  std::string name;
  std::vector<std::uint8_t> request;
  std::vector<std::uint8_t> reply;
};

inline std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  s.reserve(2 * bytes.size());
  for (const std::uint8_t b : bytes) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xF]);
  }
  return s;
}

inline std::vector<std::uint8_t> from_hex(const std::string& s) {
  const auto nibble = [](char c) -> std::uint8_t {
    if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<std::uint8_t>(c - 'a' + 10);
    throw std::runtime_error(std::string("bad hex digit '") + c + "'");
  };
  if (s.size() % 2 != 0) throw std::runtime_error("odd-length hex");
  std::vector<std::uint8_t> out(s.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<std::uint8_t>(nibble(s[2 * i]) << 4 |
                                       nibble(s[2 * i + 1]));
  return out;
}

inline void write_session(std::ostream& out,
                          const std::vector<Exchange>& session) {
  out << "# Golden serve session: request frames and the reply frames the\n"
         "# server wrote for them, byte for byte. Regenerate with\n"
         "# serve_golden_gen (tests/golden/serve/make_session.cpp).\n";
  for (const Exchange& e : session)
    out << "name " << e.name << "\nreq " << to_hex(e.request) << "\nrep "
        << to_hex(e.reply) << '\n';
}

inline std::vector<Exchange> read_session(std::istream& in) {
  std::vector<Exchange> session;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::string tag = line.substr(0, line.find(' '));
    const std::string value = line.substr(tag.size() + 1);
    if (tag == "name") {
      session.push_back(Exchange{value, {}, {}});
    } else if (tag == "req" && !session.empty()) {
      session.back().request = from_hex(value);
    } else if (tag == "rep" && !session.empty()) {
      session.back().reply = from_hex(value);
    } else {
      throw std::runtime_error("bad session line: " + line);
    }
  }
  return session;
}

/// Reads exactly one whole frame's raw bytes (v1 header, as every reply
/// is) from `stream`; throws on EOF or after `timeout` without progress.
inline std::vector<std::uint8_t> read_raw_frame(
    ByteStream& stream,
    std::chrono::milliseconds timeout = std::chrono::milliseconds(10000)) {
  std::vector<std::uint8_t> bytes;
  std::size_t want = kFrameHeaderSize;
  while (bytes.size() < want) {
    std::uint8_t buf[4096];
    const std::size_t max = std::min(sizeof buf, want - bytes.size());
    const auto n = stream.read_some(buf, max, timeout);
    if (!n.has_value() || *n == 0)
      throw std::runtime_error("no reply frame from the server");
    bytes.insert(bytes.end(), buf, buf + *n);
    if (want == kFrameHeaderSize && bytes.size() >= kFrameHeaderSize) {
      const std::size_t length = static_cast<std::size_t>(bytes[16]) |
                                 static_cast<std::size_t>(bytes[17]) << 8 |
                                 static_cast<std::size_t>(bytes[18]) << 16 |
                                 static_cast<std::size_t>(bytes[19]) << 24;
      want = kFrameHeaderSize + length + kFrameTrailerSize;
    }
  }
  return bytes;
}

}  // namespace nc::serve::golden
