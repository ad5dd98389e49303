#include "serve/frame.h"

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "bits/serialize.h"
#include "codec/codeword_table.h"

namespace nc::serve {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

std::uint32_t read_le32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t read_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void put_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

void put_le64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

/// Payloads reuse the stream formats of bits/serialize.h; these two bridge
/// between byte vectors and the iostream interfaces.
std::vector<std::uint8_t> to_bytes(const std::ostringstream& out) {
  const std::string s = out.str();
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

class PayloadStream {
 public:
  explicit PayloadStream(const std::vector<std::uint8_t>& payload)
      : in_(std::string(payload.begin(), payload.end())) {}

  std::istream& stream() { return in_; }

  std::uint32_t u32() {
    std::array<char, 4> buf;
    in_.read(buf.data(), buf.size());
    if (!in_) throw std::runtime_error("payload truncated");
    return read_le32(reinterpret_cast<const std::uint8_t*>(buf.data()));
  }
  std::uint64_t u64() {
    std::array<char, 8> buf;
    in_.read(buf.data(), buf.size());
    if (!in_) throw std::runtime_error("payload truncated");
    return read_le64(reinterpret_cast<const std::uint8_t*>(buf.data()));
  }
  std::uint8_t u8() {
    const int c = in_.get();
    if (c == EOF) throw std::runtime_error("payload truncated");
    return static_cast<std::uint8_t>(c);
  }
  std::string rest() {
    std::ostringstream out;
    out << in_.rdbuf();
    return out.str();
  }
  void expect_end() {
    if (in_.peek() != EOF)
      throw std::runtime_error("payload has trailing bytes");
  }

 private:
  std::istringstream in_;
};

CodecSpec read_spec(PayloadStream& in) {
  CodecSpec spec;
  spec.k = in.u32();
  for (auto& len : spec.lengths) len = in.u8();
  return spec;
}

void write_spec(std::ostringstream& out, const CodecSpec& spec) {
  std::vector<std::uint8_t> bytes;
  put_le32(bytes, static_cast<std::uint32_t>(spec.k));
  for (const unsigned len : spec.lengths)
    bytes.push_back(static_cast<std::uint8_t>(len));
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadMagic: return "bad frame magic";
    case ErrorCode::kBadVersion: return "unsupported protocol version";
    case ErrorCode::kBadCrc: return "frame CRC mismatch";
    case ErrorCode::kOversized: return "declared payload length over limit";
    case ErrorCode::kTruncated: return "stream ended mid-frame";
    case ErrorCode::kResyncOverrun: return "resync scan budget exhausted";
    case ErrorCode::kBadHeader: return "frame header CRC mismatch";
    case ErrorCode::kBadType: return "unexpected frame type";
    case ErrorCode::kBadPayload: return "malformed request payload";
    case ErrorCode::kOverloaded: return "server overloaded (queue full)";
    case ErrorCode::kInflightLimit: return "client in-flight cap reached";
    case ErrorCode::kDecodeFailed: return "decode failed";
    case ErrorCode::kShuttingDown: return "server shutting down";
    case ErrorCode::kDeadlineExceeded: return "request deadline exceeded";
    case ErrorCode::kSlowClient: return "connection below minimum progress";
    case ErrorCode::kUnknownSignature: return "unknown signature reference";
  }
  return "unknown error";
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  // A frame without a deadline stays version 1, byte-identical to the
  // pre-deadline protocol; only frames that carry one pay the 4 bytes.
  const bool v2 = frame.deadline_ms != 0;
  const std::size_t header_size = v2 ? kFrameHeaderSizeV2 : kFrameHeaderSize;
  std::vector<std::uint8_t> out;
  out.reserve(header_size + frame.payload.size() + kFrameTrailerSize);
  out.insert(out.end(), kFrameMagic.begin(), kFrameMagic.end());
  out.push_back(
      static_cast<std::uint8_t>(v2 ? kFrameVersionDeadline : kFrameVersion));
  out.push_back(static_cast<std::uint8_t>(frame.type));
  out.push_back(0);  // header CRC, patched below
  out.push_back(0);
  put_le64(out, frame.seq);
  put_le32(out, static_cast<std::uint32_t>(frame.payload.size()));
  if (v2) put_le32(out, frame.deadline_ms);
  const std::uint32_t hcrc =
      crc32(out.data() + kFrameMagic.size(),
            header_size - kFrameMagic.size());
  out[6] = static_cast<std::uint8_t>(hcrc & 0xFF);
  out[7] = static_cast<std::uint8_t>((hcrc >> 8) & 0xFF);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  const std::uint32_t crc =
      crc32(out.data() + kFrameMagic.size(), out.size() - kFrameMagic.size());
  put_le32(out, crc);
  return out;
}

void write_frame(ByteStream& stream, const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  stream.write_all(bytes.data(), bytes.size());
}

FrameReader::FrameReader(ByteStream& stream, FrameLimits limits)
    : stream_(stream), limits_(limits) {
  if (limits_.watchdog_steps == 0)
    limits_.watchdog_steps =
        4 * (kFrameHeaderSize + limits_.max_payload + kFrameTrailerSize);
}

void FrameReader::consume(std::size_t n) {
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(n));
}

/// One parse attempt over the current buffer. Returns a Result when a frame
/// or error is ready; otherwise sets `need_more` and returns kTimeout as a
/// "nothing yet" placeholder the caller never surfaces.
FrameReader::Result FrameReader::parse_step(core::Watchdog& watchdog,
                                            bool& need_more) {
  Result r;
  while (true) {
    if (buffer_.size() < kFrameMagic.size()) {
      need_more = true;
      r.status = Status::kTimeout;
      return r;
    }
    // Locate the frame anchor. The common case -- buffer starts with the
    // magic -- is a four-byte compare; only junk is ever scanned.
    std::size_t anchor = 0;
    if (!std::equal(kFrameMagic.begin(), kFrameMagic.end(), buffer_.begin())) {
      const auto it = std::search(buffer_.begin() + 1, buffer_.end(),
                                  kFrameMagic.begin(), kFrameMagic.end());
      anchor = static_cast<std::size_t>(it - buffer_.begin());
      const std::size_t scanned =
          std::min(anchor, buffer_.size());
      if (watchdog.tick(scanned) != core::WatchdogTrip::kNone) {
        buffer_.clear();
        resyncing_ = false;
        r.status = Status::kProtocolError;
        r.error = ErrorCode::kResyncOverrun;
        r.detail = "resync scan exceeded its step budget";
        return r;
      }
      if (it == buffer_.end()) {
        // No anchor: drop the junk but keep a possible partial magic tail.
        const std::size_t keep =
            std::min(buffer_.size(), kFrameMagic.size() - 1);
        const std::size_t dropped = buffer_.size() - keep;
        if (dropped > 0) consume(dropped);
        if (!resyncing_ && dropped > 0) {
          resyncing_ = true;
          r.status = Status::kProtocolError;
          r.error = ErrorCode::kBadMagic;
          r.detail = "skipped " + std::to_string(dropped) +
                     " bytes hunting for a frame";
          return r;
        }
        need_more = true;
        r.status = Status::kTimeout;
        return r;
      }
      consume(anchor);
      if (!resyncing_) {
        resyncing_ = true;
        r.status = Status::kProtocolError;
        r.error = ErrorCode::kBadMagic;
        r.detail = "skipped " + std::to_string(anchor) +
                   " bytes hunting for a frame";
        return r;
      }
      // Resyncing: the junk belonged to an already-reported bad frame.
    }
    // Buffer starts with the magic: one error report per bad frame from
    // here on, and the next failure is a fresh one.
    resyncing_ = false;
    if (buffer_.size() < kFrameHeaderSize) {
      need_more = true;
      r.status = Status::kTimeout;
      return r;
    }
    const unsigned version = buffer_[4];
    if (version != kFrameVersion && version != kFrameVersionDeadline) {
      consume(1);
      resyncing_ = true;
      r.status = Status::kProtocolError;
      r.error = ErrorCode::kBadVersion;
      r.detail = "frame version " + std::to_string(version);
      return r;
    }
    const std::size_t header_size =
        version == kFrameVersionDeadline ? kFrameHeaderSizeV2
                                         : kFrameHeaderSize;
    if (buffer_.size() < header_size) {
      need_more = true;
      r.status = Status::kTimeout;
      return r;
    }
    // Header CRC before the length is trusted: a flipped length field must
    // not send the reader waiting for payload bytes that will never come.
    {
      std::array<std::uint8_t, kFrameHeaderSizeV2> header{};
      std::copy(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(header_size),
                header.begin());
      const std::uint16_t want_hcrc =
          static_cast<std::uint16_t>(header[6] | (header[7] << 8));
      header[6] = 0;
      header[7] = 0;
      const std::uint16_t got_hcrc = static_cast<std::uint16_t>(
          crc32(header.data() + kFrameMagic.size(),
                header_size - kFrameMagic.size()) &
          0xFFFF);
      if (want_hcrc != got_hcrc) {
        consume(1);
        resyncing_ = true;
        r.status = Status::kProtocolError;
        r.error = ErrorCode::kBadHeader;
        r.detail = "frame header CRC mismatch";
        return r;
      }
    }
    const std::uint32_t length = read_le32(buffer_.data() + 16);
    if (length > limits_.max_payload) {
      // Rejected before any payload is buffered: a forged length cannot
      // make the reader allocate.
      r.frame.seq = read_le64(buffer_.data() + 8);  // header CRC vouched
      consume(1);
      resyncing_ = true;
      r.status = Status::kProtocolError;
      r.error = ErrorCode::kOversized;
      r.detail = "declared payload of " + std::to_string(length) +
                 " bytes (limit " + std::to_string(limits_.max_payload) + ")";
      return r;
    }
    const std::size_t total = header_size + length + kFrameTrailerSize;
    if (buffer_.size() < total) {
      need_more = true;
      r.status = Status::kTimeout;
      return r;
    }
    const std::size_t crc_region = header_size + length;
    const std::uint32_t want = read_le32(buffer_.data() + crc_region);
    const std::uint32_t got = crc32(buffer_.data() + kFrameMagic.size(),
                                    crc_region - kFrameMagic.size());
    if (watchdog.tick(length + header_size) != core::WatchdogTrip::kNone) {
      buffer_.clear();
      r.status = Status::kProtocolError;
      r.error = ErrorCode::kResyncOverrun;
      r.detail = "frame parse exceeded its step budget";
      return r;
    }
    if (want != got) {
      r.frame.seq = read_le64(buffer_.data() + 8);  // header CRC vouched
      consume(1);
      resyncing_ = true;
      r.status = Status::kProtocolError;
      r.error = ErrorCode::kBadCrc;
      r.detail = "frame CRC mismatch";
      return r;
    }
    r.status = Status::kFrame;
    r.frame.type = static_cast<FrameType>(buffer_[5]);
    r.frame.seq = read_le64(buffer_.data() + 8);
    r.frame.deadline_ms = version == kFrameVersionDeadline
                              ? read_le32(buffer_.data() + 20)
                              : 0;
    r.frame.payload.assign(buffer_.begin() +
                               static_cast<std::ptrdiff_t>(header_size),
                           buffer_.begin() +
                               static_cast<std::ptrdiff_t>(crc_region));
    consume(total);
    return r;
  }
}

FrameReader::Result FrameReader::read(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  core::Watchdog watchdog(limits_.watchdog_steps);
  while (true) {
    bool need_more = false;
    Result r = parse_step(watchdog, need_more);
    if (!need_more) return r;

    if (eof_) {
      if (buffer_.empty()) {
        Result end;
        end.status = Status::kEof;
        return end;
      }
      // Partial frame (or junk) at end of stream.
      const bool already_reported = resyncing_;
      buffer_.clear();
      resyncing_ = false;
      if (already_reported) continue;  // reports kEof next iteration
      Result trunc;
      trunc.status = Status::kProtocolError;
      trunc.error = ErrorCode::kTruncated;
      trunc.detail = "stream ended mid-frame";
      return trunc;
    }

    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      Result t;
      t.status = Status::kTimeout;
      return t;
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    std::array<std::uint8_t, kReadChunk> chunk;
    const auto n = stream_.read_some(
        chunk.data(), chunk.size(),
        std::max(remaining, std::chrono::milliseconds(1)));
    if (!n.has_value()) {
      Result t;
      t.status = Status::kTimeout;
      return t;
    }
    if (*n == 0) {
      eof_ = true;
      continue;
    }
    bytes_consumed_ += *n;
    buffer_.insert(buffer_.end(), chunk.begin(), chunk.begin() + *n);
  }
}

// ------------------------------------------------------- message payloads

codec::NineCoded CodecSpec::make_coder(codec::CodecImpl impl) const {
  return codec::NineCoded(k, codec::CodewordTable::from_lengths(lengths),
                          impl);
}

std::vector<std::uint8_t> to_payload(const EncodeRequest& req) {
  std::ostringstream out;
  write_spec(out, req.spec);
  bits::save_test_set(out, req.tests);
  return to_bytes(out);
}

EncodeRequest parse_encode_request(const std::vector<std::uint8_t>& payload) {
  PayloadStream in(payload);
  EncodeRequest req;
  req.spec = read_spec(in);
  req.tests = bits::load_test_set(in.stream());
  in.expect_end();
  return req;
}

std::vector<std::uint8_t> to_payload(const DecodeRequest& req) {
  std::ostringstream out;
  write_spec(out, req.spec);
  std::vector<std::uint8_t> geo;
  put_le64(geo, req.patterns);
  put_le64(geo, req.width);
  out.write(reinterpret_cast<const char*>(geo.data()),
            static_cast<std::streamsize>(geo.size()));
  bits::save_trits(out, req.te);
  return to_bytes(out);
}

DecodeRequest parse_decode_request(const std::vector<std::uint8_t>& payload) {
  PayloadStream in(payload);
  DecodeRequest req;
  req.spec = read_spec(in);
  req.patterns = static_cast<std::size_t>(in.u64());
  req.width = static_cast<std::size_t>(in.u64());
  req.te = bits::load_trits(in.stream());
  in.expect_end();
  return req;
}

std::vector<std::uint8_t> trits_payload(const bits::TritVector& v) {
  std::ostringstream out;
  bits::save_trits(out, v);
  return to_bytes(out);
}

bits::TritVector parse_trits_payload(
    const std::vector<std::uint8_t>& payload) {
  PayloadStream in(payload);
  bits::TritVector v = bits::load_trits(in.stream());
  in.expect_end();
  return v;
}

std::vector<std::uint8_t> test_set_payload(const bits::TestSet& ts) {
  std::ostringstream out;
  bits::save_test_set(out, ts);
  return to_bytes(out);
}

bits::TestSet parse_test_set_payload(
    const std::vector<std::uint8_t>& payload) {
  PayloadStream in(payload);
  bits::TestSet ts = bits::load_test_set(in.stream());
  in.expect_end();
  return ts;
}

std::vector<std::uint8_t> session_payload(const std::string& name) {
  std::vector<std::uint8_t> out;
  put_le32(out, static_cast<std::uint32_t>(name.size()));
  out.insert(out.end(), name.begin(), name.end());
  return out;
}

std::string parse_session_payload(const std::vector<std::uint8_t>& payload) {
  PayloadStream in(payload);
  const std::uint32_t len = in.u32();
  std::string name = in.rest();
  if (name.size() != len) throw std::runtime_error("bad session name length");
  return name;
}

std::vector<std::uint8_t> session_grant_payload(const SessionGrant& grant) {
  std::vector<std::uint8_t> out;
  put_le64(out, grant.client_id);
  put_le32(out, grant.inflight_cap);
  return out;
}

SessionGrant parse_session_grant(const std::vector<std::uint8_t>& payload) {
  PayloadStream in(payload);
  SessionGrant grant;
  grant.client_id = in.u64();
  grant.inflight_cap = in.u32();
  in.expect_end();
  return grant;
}

std::vector<std::uint8_t> to_payload(const SignaturePublish& pub) {
  if (pub.expected.size() !=
      static_cast<std::uint64_t>(pub.outputs_per_cycle) * pub.cycles)
    throw std::invalid_argument("signature publish: geometry mismatch");
  std::ostringstream out;
  std::vector<std::uint8_t> head;
  put_le32(head, pub.outputs_per_cycle);
  put_le64(head, pub.cycles);
  out.write(reinterpret_cast<const char*>(head.data()),
            static_cast<std::streamsize>(head.size()));
  bits::save_trits(out, pub.expected);
  return to_bytes(out);
}

SignaturePublish parse_signature_publish(
    const std::vector<std::uint8_t>& payload) {
  PayloadStream in(payload);
  SignaturePublish pub;
  pub.outputs_per_cycle = in.u32();
  pub.cycles = in.u64();
  pub.expected = bits::load_trits(in.stream());
  in.expect_end();
  if (pub.outputs_per_cycle == 0)
    throw std::runtime_error("signature publish: zero outputs per cycle");
  if (pub.expected.size() !=
      static_cast<std::uint64_t>(pub.outputs_per_cycle) * pub.cycles)
    throw std::runtime_error("signature publish: geometry mismatch");
  return pub;
}

std::vector<std::uint8_t> signature_ref_payload(const SignatureRef& ref) {
  std::vector<std::uint8_t> out;
  put_le64(out, ref.lo);
  put_le64(out, ref.hi);
  return out;
}

SignatureRef parse_signature_ref(const std::vector<std::uint8_t>& payload) {
  PayloadStream in(payload);
  SignatureRef ref;
  ref.lo = in.u64();
  ref.hi = in.u64();
  in.expect_end();
  return ref;
}

std::vector<std::uint8_t> to_payload(const SignatureCheck& chk) {
  std::ostringstream out;
  std::vector<std::uint8_t> head;
  put_le64(head, chk.ref.lo);
  put_le64(head, chk.ref.hi);
  out.write(reinterpret_cast<const char*>(head.data()),
            static_cast<std::streamsize>(head.size()));
  bits::save_trits(out, chk.observed);
  return to_bytes(out);
}

SignatureCheck parse_signature_check(const std::vector<std::uint8_t>& payload) {
  PayloadStream in(payload);
  SignatureCheck chk;
  chk.ref.lo = in.u64();
  chk.ref.hi = in.u64();
  chk.observed = bits::load_trits(in.stream());
  in.expect_end();
  return chk;
}

std::vector<std::uint8_t> check_verdict_payload(
    const compact::CheckVerdict& verdict) {
  std::vector<std::uint8_t> out;
  out.push_back(verdict.pass ? 1 : 0);
  put_le64(out, verdict.cycles);
  put_le64(out, verdict.mismatched_cycles);
  put_le64(out, verdict.mismatched_outputs);
  put_le64(out, verdict.unknown_outputs);
  put_le64(out, verdict.first_mismatch_cycle);
  return out;
}

compact::CheckVerdict parse_check_verdict(
    const std::vector<std::uint8_t>& payload) {
  PayloadStream in(payload);
  compact::CheckVerdict v;
  const std::uint8_t pass = in.u8();
  if (pass > 1) throw std::runtime_error("check verdict: bad pass flag");
  v.pass = pass == 1;
  v.cycles = in.u64();
  v.mismatched_cycles = in.u64();
  v.mismatched_outputs = in.u64();
  v.unknown_outputs = in.u64();
  v.first_mismatch_cycle = in.u64();
  in.expect_end();
  return v;
}

std::vector<std::uint8_t> to_payload(const TuneRequest& req) {
  std::ostringstream out;
  std::vector<std::uint8_t> head;
  put_le64(head, req.seed);
  put_le32(head, req.generations);
  put_le32(head, req.population);
  // Exact double bit patterns: this payload is the artifact key, so the
  // serialization must be canonical, not printf-rounded.
  put_le64(head, std::bit_cast<std::uint64_t>(req.weight_cr));
  put_le64(head, std::bit_cast<std::uint64_t>(req.weight_tat));
  put_le64(head, std::bit_cast<std::uint64_t>(req.weight_gates));
  put_le32(head, req.p);
  out.write(reinterpret_cast<const char*>(head.data()),
            static_cast<std::streamsize>(head.size()));
  bits::save_test_set(out, req.tests);
  return to_bytes(out);
}

TuneRequest parse_tune_request(const std::vector<std::uint8_t>& payload) {
  PayloadStream in(payload);
  TuneRequest req;
  req.seed = in.u64();
  req.generations = in.u32();
  req.population = in.u32();
  req.weight_cr = std::bit_cast<double>(in.u64());
  req.weight_tat = std::bit_cast<double>(in.u64());
  req.weight_gates = std::bit_cast<double>(in.u64());
  req.p = in.u32();
  req.tests = bits::load_test_set(in.stream());
  in.expect_end();
  // Budget validation: a request is a compute grant; cap it.
  if (req.generations == 0 || req.generations > kMaxTuneGenerations)
    throw std::runtime_error("tune request: generations out of range");
  if (req.population < 2 || req.population > kMaxTunePopulation)
    throw std::runtime_error("tune request: population out of range");
  if (req.p == 0 || req.p > 1024)
    throw std::runtime_error("tune request: clock ratio out of range");
  const auto finite = [](double v) { return v == v && v - v == 0.0; };
  if (!finite(req.weight_cr) || !finite(req.weight_tat) ||
      !finite(req.weight_gates))
    throw std::runtime_error("tune request: non-finite weight");
  if (req.tests.flatten().size() == 0)
    throw std::runtime_error("tune request: empty test set");
  return req;
}

std::vector<std::uint8_t> to_payload(const TuneReplyData& reply) {
  std::vector<std::uint8_t> out;
  reply.genome.append_bytes(out);
  put_le64(out, std::bit_cast<std::uint64_t>(reply.score));
  put_le64(out, std::bit_cast<std::uint64_t>(reply.cr_percent));
  put_le64(out, std::bit_cast<std::uint64_t>(reply.tat_percent));
  put_le64(out, reply.fsm_gates);
  put_le64(out, reply.datapath_gates);
  put_le64(out, reply.evaluations);
  put_le64(out, reply.invalid_genomes);
  return out;
}

TuneReplyData parse_tune_reply(const std::vector<std::uint8_t>& payload) {
  std::size_t off = 0;
  TuneReplyData reply;
  try {
    reply.genome = tune::TuneGenome::from_bytes(payload, off);
  } catch (const tune::GenomeParseError& e) {
    throw std::runtime_error(e.what());
  }
  if (payload.size() - off != 7 * 8)
    throw std::runtime_error("tune reply: bad length");
  const auto u64_at = [&](int i) {
    return read_le64(payload.data() + off + 8 * i);
  };
  reply.score = std::bit_cast<double>(u64_at(0));
  reply.cr_percent = std::bit_cast<double>(u64_at(1));
  reply.tat_percent = std::bit_cast<double>(u64_at(2));
  reply.fsm_gates = u64_at(3);
  reply.datapath_gates = u64_at(4);
  reply.evaluations = u64_at(5);
  reply.invalid_genomes = u64_at(6);
  return reply;
}

std::vector<std::uint8_t> error_payload(ErrorCode code,
                                        const std::string& detail) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(static_cast<std::uint16_t>(code) &
                                          0xFF));
  out.push_back(static_cast<std::uint8_t>(
      (static_cast<std::uint16_t>(code) >> 8) & 0xFF));
  out.insert(out.end(), detail.begin(), detail.end());
  return out;
}

ParsedError parse_error_payload(const std::vector<std::uint8_t>& payload) {
  if (payload.size() < 2) throw std::runtime_error("error payload truncated");
  ParsedError e;
  e.code = static_cast<ErrorCode>(
      static_cast<std::uint16_t>(payload[0]) |
      (static_cast<std::uint16_t>(payload[1]) << 8));
  e.detail.assign(payload.begin() + 2, payload.end());
  return e;
}

}  // namespace nc::serve
