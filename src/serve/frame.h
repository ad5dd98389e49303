// Frame protocol of the compression service.
//
// Every message between a client and the server travels as one length-
// prefixed, CRC-guarded frame over a ByteStream (transport.h). Layout
// (little-endian):
//
//   offset size
//   0      4    magic "NC9F"
//   4      1    version (1 or 2)
//   5      1    frame type (FrameType)
//   6      2    header CRC: low 16 bits of CRC-32 over the header bytes
//               [4, header_size) with this field zeroed
//   8      8    seq -- client-chosen request id, echoed in the reply
//   16     4    payload length N (<= FrameLimits::max_payload)
//   [20    4    version 2 only: request deadline budget in milliseconds,
//               relative to frame arrival (0 = no deadline); clocks are
//               never compared across hosts]
//   hdr    N    payload (hdr = 20 for v1, 24 for v2)
//   hdr+N  4    CRC-32 (IEEE 802.3) over bytes [4, hdr+N)
//
// Version 2 adds end-to-end deadlines: a client that knows it will abandon
// a reply after D ms says so in the header, and the server sheds the
// request -- before batching, before computing, and before writing the
// reply -- with a typed kDeadlineExceeded once D expires. The budget is
// RELATIVE (a duration, not a timestamp) because the two ends do not share
// a clock. Version 1 frames remain fully accepted (old clients simply have
// no deadline), and the writer emits v1 whenever no deadline is set, so
// pre-deadline byte streams are bit-identical to what they always were.
//
// Two checksums on purpose. The trailing CRC covers everything after the
// magic, so any bit flip in header, seq, length or payload is detected --
// but only once the full declared payload has arrived. The header CRC
// validates the length field the moment the 20-byte header is buffered: a
// bit flip in the length would otherwise leave the reader waiting
// megabytes for a payload that never comes, wedging a live connection that
// has no EOF to break the wait. The magic itself is the resync anchor.
// FrameReader is an incremental parser built for a faulty world:
//
//  * a frame whose magic/version/length/CRC check fails is reported as ONE
//    typed protocol error, then the reader silently scans forward to the
//    next magic (resync) -- a corrupted frame costs one error reply, never
//    the connection. When the header CRC passed (kBadCrc, kOversized) the
//    error carries the header's seq, so the reply names its request;
//  * a stream that ends mid-frame reports kTruncated, then clean EOF;
//  * an oversized declared length is rejected BEFORE buffering the payload
//    (a forged length cannot make the server allocate or stall);
//  * all scanning is metered by a core::Watchdog step budget, so crafted
//    input yields a typed error within a known bound -- never a hang.
//
// Request/reply payload schemas (EncodeRequest etc.) live here too, built
// on the serialized formats of bits/serialize.h so the service speaks the
// same byte formats as the on-disk tooling.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bits/test_set.h"
#include "bits/trit_vector.h"
#include "codec/nine_coded.h"
#include "compact/compactor.h"
#include "core/cancel.h"
#include "core/crc.h"
#include "serve/transport.h"
#include "tune/genome.h"

namespace nc::serve {

inline constexpr std::array<std::uint8_t, 4> kFrameMagic = {'N', 'C', '9',
                                                            'F'};
inline constexpr unsigned kFrameVersion = 1;
/// Version 2: header carries a relative deadline budget (u32 ms) after the
/// length field. Emitted only when a frame sets one; always accepted.
inline constexpr unsigned kFrameVersionDeadline = 2;
inline constexpr std::size_t kFrameHeaderSize = 20;
inline constexpr std::size_t kFrameHeaderSizeV2 = 24;
inline constexpr std::size_t kFrameTrailerSize = 4;

/// CRC-32 over raw bytes (the shared core::crc32); the frame trailer and
/// the artifact cache's hit validation both use it.
using core::crc32;

enum class FrameType : std::uint8_t {
  kSessionRequest = 1,  // open a named client session
  kSessionReply,
  kEncodeRequest,
  kEncodeReply,
  kDecodeRequest,
  kDecodeReply,
  kStatsRequest,
  kStatsReply,
  kError,  // typed error reply (ErrorCode + detail text)
  // Response-side signature checking (compact/): a tester publishes the
  // expected X-compacted response stream of a session once, then devices
  // upload only their m-bits-per-cycle signatures for a server-side
  // verdict -- response bandwidth drops with the same ratio the compactor
  // achieves on chip.
  kSignaturePublishRequest,  // expected stream -> content-addressed ref
  kSignaturePublishReply,    // the assigned SignatureRef
  kSignatureCheckRequest,    // ref + observed stream
  kSignatureCheckReply,      // serialized compact::CheckVerdict
  // Search-based code tuning (tune/): run the evolutionary optimizer over
  // coding parameters for an uploaded TD. The search is deterministic in
  // the payload bytes, so the winning genome is a content-addressed
  // artifact: a repeated request for the same (TD, weights, seed) is a
  // cache/store hit, surviving warm restart.
  kTuneRequest,
  kTuneReply,
};

/// Wire error codes carried by kError frames. The first group is emitted by
/// the frame layer (FrameReader), the second by the server's request
/// handling.
enum class ErrorCode : std::uint16_t {
  // frame layer
  kBadMagic = 1,    // junk where a frame should start; reader resynced
  kBadVersion,      // unsupported protocol version
  kBadCrc,          // frame failed its CRC
  kOversized,       // declared payload length above the limit
  kTruncated,       // stream ended mid-frame
  kResyncOverrun,   // resync scan exhausted its watchdog budget
  kBadHeader,       // header CRC failed (e.g. a flipped length field)
  // server layer
  kBadType = 32,    // frame type is not a request the server accepts
  kBadPayload,      // request payload failed to parse / validate
  kOverloaded,      // admission control: request queue at capacity
  kInflightLimit,   // admission control: per-client in-flight cap reached
  kDecodeFailed,    // typed codec::DecodeError while serving the request
  kShuttingDown,    // server is stopping
  kDeadlineExceeded,  // the request's deadline expired before its reply
  kSlowClient,      // connection dropped: peer below minimum progress rate
  kUnknownSignature,  // check names a signature ref no tier has
};

const char* to_string(ErrorCode code) noexcept;

struct Frame {
  FrameType type = FrameType::kError;
  std::uint64_t seq = 0;
  /// Relative deadline budget in ms (0 = none). Non-zero makes the frame a
  /// version-2 frame on the wire; replies never carry one.
  std::uint32_t deadline_ms = 0;
  std::vector<std::uint8_t> payload;
};

struct FrameLimits {
  std::size_t max_payload = 16u << 20;  // 16 MiB
  /// Watchdog step budget per read() call: one step per byte scanned or
  /// buffered. 0 derives 4 * (header + max_payload + trailer), which a
  /// well-formed stream can never trip.
  std::size_t watchdog_steps = 0;
};

/// Serializes a frame (header + payload + CRC) ready for write_all.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Serializes and writes `frame` to `stream` as one write_all call (the
/// caller serializes concurrent writers).
void write_frame(ByteStream& stream, const Frame& frame);

/// Incremental, resyncing frame parser over one ByteStream.
class FrameReader {
 public:
  explicit FrameReader(ByteStream& stream, FrameLimits limits = {});

  enum class Status : std::uint8_t {
    kFrame,          // `frame` holds a validated frame
    kProtocolError,  // `error`/`detail` describe it; reader has resynced
    kTimeout,        // nothing parseable within the deadline
    kEof,            // orderly end of stream, buffer empty
  };

  struct Result {
    Status status = Status::kEof;
    /// The frame on kFrame. On a kBadCrc or kOversized protocol error only
    /// `frame.seq` is set: the header's seq, which the header CRC vouched
    /// for, so the reply can name the rejected request. 0 otherwise.
    Frame frame;
    ErrorCode error = ErrorCode::kBadMagic;
    std::string detail;
  };

  /// Returns the next frame, protocol error, timeout or EOF. Each call is
  /// bounded by `timeout` wall-clock and by the configured watchdog step
  /// budget; a single corrupted frame yields exactly one kProtocolError.
  Result read(std::chrono::milliseconds timeout);

  /// Bytes currently buffered (tests assert the oversized-length guard).
  std::size_t buffered() const noexcept { return buffer_.size(); }

  /// Total bytes ever pulled from the stream. The server's per-connection
  /// progress watchdog compares successive readings to tell a live peer
  /// dribbling a frame from a stalled one: any byte counts as progress,
  /// whether or not a whole frame has landed yet.
  std::uint64_t bytes_consumed() const noexcept { return bytes_consumed_; }

 private:
  Result parse_step(core::Watchdog& watchdog, bool& need_more);
  void consume(std::size_t n);

  ByteStream& stream_;
  FrameLimits limits_;
  std::vector<std::uint8_t> buffer_;
  std::uint64_t bytes_consumed_ = 0;
  bool eof_ = false;
  bool resyncing_ = false;  // a reported bad frame is being skipped
};

// ------------------------------------------------------- message payloads
//
// Parse functions throw std::runtime_error / std::invalid_argument on any
// malformed payload; the server maps both to ErrorCode::kBadPayload.

/// The codec configuration a request names: block size K plus the nine
/// codeword lengths (canonical prefix code, codec/codeword_table.h). The
/// batching scheduler groups requests with equal specs; the artifact cache
/// folds the spec into its content address.
struct CodecSpec {
  std::size_t k = 8;
  std::array<unsigned, codec::kNumClasses> lengths =
      {1, 2, 5, 5, 5, 5, 5, 5, 4};  // the paper's Table I assignment

  bool operator==(const CodecSpec&) const = default;

  /// Validates and instantiates the coder; throws std::invalid_argument on
  /// an illegal K or a length set violating Kraft's inequality. `impl` is a
  /// server-local execution choice (never on the wire): both impls produce
  /// byte-identical artifacts, so cache and store entries stay valid across
  /// it.
  codec::NineCoded make_coder(
      codec::CodecImpl impl = codec::CodecImpl::kAuto) const;
};

struct EncodeRequest {
  CodecSpec spec;
  bits::TestSet tests;
};

struct DecodeRequest {
  CodecSpec spec;
  std::size_t patterns = 0;
  std::size_t width = 0;
  bits::TritVector te;
};

std::vector<std::uint8_t> to_payload(const EncodeRequest& req);
EncodeRequest parse_encode_request(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> to_payload(const DecodeRequest& req);
DecodeRequest parse_decode_request(const std::vector<std::uint8_t>& payload);

/// Encode replies carry the serialized TE trit stream; decode replies the
/// serialized test set (both bits/serialize.h formats).
std::vector<std::uint8_t> trits_payload(const bits::TritVector& v);
bits::TritVector parse_trits_payload(const std::vector<std::uint8_t>& payload);
std::vector<std::uint8_t> test_set_payload(const bits::TestSet& ts);
bits::TestSet parse_test_set_payload(const std::vector<std::uint8_t>& payload);

/// Session request payload: the client's self-reported name.
std::vector<std::uint8_t> session_payload(const std::string& name);
std::string parse_session_payload(const std::vector<std::uint8_t>& payload);

/// Session reply payload: assigned client id + granted in-flight cap.
struct SessionGrant {
  std::uint64_t client_id = 0;
  std::uint32_t inflight_cap = 0;
};
std::vector<std::uint8_t> session_grant_payload(const SessionGrant& grant);
SessionGrant parse_session_grant(const std::vector<std::uint8_t>& payload);

/// Signature publish request: geometry plus the expected compacted trit
/// stream (`expected.size() == outputs_per_cycle * cycles`; X trits mark
/// outputs the tester cannot predict). The reply is the stream's content
/// address, so publishing is idempotent and any client that can derive the
/// same expected stream derives the same ref.
struct SignaturePublish {
  std::uint32_t outputs_per_cycle = 0;
  std::uint64_t cycles = 0;
  bits::TritVector expected;
};

std::vector<std::uint8_t> to_payload(const SignaturePublish& pub);
SignaturePublish parse_signature_publish(
    const std::vector<std::uint8_t>& payload);

/// Content address of a published signature stream: the 128-bit digest of
/// its publish payload (computed by `signature_ref`, cache.h).
struct SignatureRef {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool operator==(const SignatureRef&) const = default;
};

std::vector<std::uint8_t> signature_ref_payload(const SignatureRef& ref);
SignatureRef parse_signature_ref(const std::vector<std::uint8_t>& payload);

/// Signature check request: a published ref plus the device's observed
/// signature stream (same geometry as the published one).
struct SignatureCheck {
  SignatureRef ref;
  bits::TritVector observed;
};

std::vector<std::uint8_t> to_payload(const SignatureCheck& chk);
SignatureCheck parse_signature_check(const std::vector<std::uint8_t>& payload);

/// Check reply payload: the verdict of compact::check_signatures, byte for
/// byte -- a client running the shared routine locally builds the exact
/// reply the server sends.
std::vector<std::uint8_t> check_verdict_payload(
    const compact::CheckVerdict& verdict);
compact::CheckVerdict parse_check_verdict(
    const std::vector<std::uint8_t>& payload);

/// Tune request: the optimizer knobs a client may set, plus the workload.
/// Weights travel as exact double bit patterns -- the payload bytes ARE the
/// artifact key, so two clients asking the same question must serialize it
/// identically. Bounds are enforced at parse time (kBadPayload) so a
/// request cannot buy unbounded search work.
struct TuneRequest {
  std::uint64_t seed = 1;
  std::uint32_t generations = 10;
  std::uint32_t population = 24;
  double weight_cr = 1.0;
  double weight_tat = 0.25;
  double weight_gates = 0.05;
  std::uint32_t p = 8;  // ATE:SoC clock ratio for the TAT model
  bits::TestSet tests;
};

/// Caps enforced by parse_tune_request: a tune request is CPU-bound compute,
/// so the server bounds generations * population like it bounds payload
/// bytes.
inline constexpr std::uint32_t kMaxTuneGenerations = 64;
inline constexpr std::uint32_t kMaxTunePopulation = 64;

std::vector<std::uint8_t> to_payload(const TuneRequest& req);
TuneRequest parse_tune_request(const std::vector<std::uint8_t>& payload);

/// Tune reply: the winning genome (tune/genome.h byte form) plus its
/// fitness summary. This is exactly the artifact value the cache/store
/// tiers hold.
struct TuneReplyData {
  tune::TuneGenome genome;
  double score = 0.0;
  double cr_percent = 0.0;
  double tat_percent = 0.0;
  std::uint64_t fsm_gates = 0;
  std::uint64_t datapath_gates = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t invalid_genomes = 0;
};

std::vector<std::uint8_t> to_payload(const TuneReplyData& reply);
TuneReplyData parse_tune_reply(const std::vector<std::uint8_t>& payload);

/// Error payload: wire code + human-readable detail.
std::vector<std::uint8_t> error_payload(ErrorCode code,
                                        const std::string& detail);
struct ParsedError {
  ErrorCode code = ErrorCode::kBadPayload;
  std::string detail;
};
ParsedError parse_error_payload(const std::vector<std::uint8_t>& payload);

}  // namespace nc::serve
