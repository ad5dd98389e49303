// Adversarial tests of the serve frame layer: every truncated, bit-flipped,
// length-forged or junk-injected byte stream must yield a typed protocol
// error within the watchdog budget -- never a hang, a crash, or a silently
// wrong payload.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "serve/chaos.h"
#include "serve/frame.h"
#include "serve/transport.h"

namespace nc::serve {
namespace {

using std::chrono::milliseconds;

Frame make_frame(std::uint64_t seq, std::size_t payload_size) {
  Frame f;
  f.type = FrameType::kEncodeRequest;
  f.seq = seq;
  f.payload.resize(payload_size);
  for (std::size_t i = 0; i < payload_size; ++i)
    f.payload[i] = static_cast<std::uint8_t>((seq * 131 + i * 7) & 0xFF);
  return f;
}

/// Recomputes the header CRC after a deliberate header edit, so a test can
/// reach the checks that run on a structurally valid header.
void patch_header_crc(std::vector<std::uint8_t>& wire) {
  std::array<std::uint8_t, kFrameHeaderSize> header{};
  std::copy(wire.begin(),
            wire.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderSize),
            header.begin());
  header[6] = 0;
  header[7] = 0;
  const std::uint32_t crc = crc32(header.data() + kFrameMagic.size(),
                                  kFrameHeaderSize - kFrameMagic.size());
  wire[6] = static_cast<std::uint8_t>(crc & 0xFF);
  wire[7] = static_cast<std::uint8_t>((crc >> 8) & 0xFF);
}

/// Writes `bytes` into one pipe end and closes it, then drains the reader
/// side to completion, collecting every result.
std::vector<FrameReader::Result> feed(const std::vector<std::uint8_t>& bytes,
                                      FrameLimits limits = {}) {
  auto [writer, reader_end] = make_pipe(1 << 22);
  writer->write_all(bytes.data(), bytes.size());
  writer->close();
  FrameReader reader(*reader_end, limits);
  std::vector<FrameReader::Result> results;
  while (true) {
    FrameReader::Result r = reader.read(milliseconds(2000));
    EXPECT_NE(r.status, FrameReader::Status::kTimeout)
        << "reader stalled on closed input";
    results.push_back(r);
    if (r.status == FrameReader::Status::kEof ||
        r.status == FrameReader::Status::kTimeout ||
        results.size() > 1000)
      break;
  }
  return results;
}

TEST(FrameFuzz, CleanRoundTrip) {
  const Frame sent = make_frame(42, 100);
  const auto results = feed(encode_frame(sent));
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(results[0].status, FrameReader::Status::kFrame);
  EXPECT_EQ(results[0].frame.type, sent.type);
  EXPECT_EQ(results[0].frame.seq, sent.seq);
  EXPECT_EQ(results[0].frame.payload, sent.payload);
  EXPECT_EQ(results[1].status, FrameReader::Status::kEof);
}

TEST(FrameFuzz, EveryTruncationYieldsTypedErrorNeverWrongPayload) {
  const Frame sent = make_frame(7, 64);
  const std::vector<std::uint8_t> wire = encode_frame(sent);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const std::vector<std::uint8_t> part(wire.begin(),
                                         wire.begin() + cut);
    const auto results = feed(part);
    ASSERT_FALSE(results.empty());
    for (const auto& r : results) {
      if (r.status == FrameReader::Status::kFrame)
        FAIL() << "truncation at " << cut << " produced a frame";
      if (r.status == FrameReader::Status::kProtocolError && cut > 0)
        EXPECT_TRUE(r.error == ErrorCode::kTruncated ||
                    r.error == ErrorCode::kBadMagic)
            << "cut=" << cut << " error=" << static_cast<int>(r.error);
    }
    EXPECT_EQ(results.back().status, FrameReader::Status::kEof);
  }
}

TEST(FrameFuzz, EverySingleBitFlipIsDetected) {
  const Frame sent = make_frame(99, 48);
  const std::vector<std::uint8_t> wire = encode_frame(sent);
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = wire;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto results = feed(mutated);
      // A flipped frame must never be delivered as a (different) valid
      // frame: any kFrame result must be byte-identical to the original.
      for (const auto& r : results) {
        if (r.status == FrameReader::Status::kFrame) {
          EXPECT_EQ(r.frame.payload, sent.payload);
          EXPECT_EQ(r.frame.seq, sent.seq);
          EXPECT_EQ(r.frame.type, sent.type);
        }
      }
      // Flips cannot go unnoticed: either a protocol error was reported
      // or (impossible for a single flip) the frame survived intact.
      const bool reported =
          std::any_of(results.begin(), results.end(), [](const auto& r) {
            return r.status == FrameReader::Status::kProtocolError;
          });
      const bool delivered =
          std::any_of(results.begin(), results.end(), [](const auto& r) {
            return r.status == FrameReader::Status::kFrame;
          });
      EXPECT_TRUE(reported && !delivered)
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(FrameFuzz, CorruptedFrameBetweenGoodOnesResyncs) {
  const Frame a = make_frame(1, 32);
  const Frame b = make_frame(2, 32);
  const Frame c = make_frame(3, 32);
  std::vector<std::uint8_t> wire = encode_frame(a);
  std::vector<std::uint8_t> bad = encode_frame(b);
  bad[kFrameHeaderSize + 5] ^= 0x10;  // payload flip -> CRC mismatch
  wire.insert(wire.end(), bad.begin(), bad.end());
  const std::vector<std::uint8_t> good_c = encode_frame(c);
  wire.insert(wire.end(), good_c.begin(), good_c.end());

  const auto results = feed(wire);
  std::vector<std::uint64_t> delivered;
  std::size_t errors = 0;
  for (const auto& r : results) {
    if (r.status == FrameReader::Status::kFrame)
      delivered.push_back(r.frame.seq);
    if (r.status == FrameReader::Status::kProtocolError) ++errors;
  }
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_GE(errors, 1u);  // exactly one report per corrupted frame...
  EXPECT_LE(errors, 2u);  // ...possibly plus the truncated-tail report
}

TEST(FrameFuzz, ErrorsEchoSeqOnlyWhenTheHeaderCrcVouchedForIt) {
  const auto first_error = [](const std::vector<std::uint8_t>& wire,
                              FrameLimits limits = {}) {
    auto [writer, reader_end] = make_pipe(1 << 16);
    writer->write_all(wire.data(), wire.size());
    writer->close();
    FrameReader reader(*reader_end, limits);
    return reader.read(milliseconds(2000));
  };
  // Payload flip: the header CRC passed, so its seq names the request.
  std::vector<std::uint8_t> wire = encode_frame(make_frame(2, 32));
  wire[kFrameHeaderSize + 5] ^= 0x10;
  FrameReader::Result r = first_error(wire);
  ASSERT_EQ(r.status, FrameReader::Status::kProtocolError);
  EXPECT_EQ(r.error, ErrorCode::kBadCrc);
  EXPECT_EQ(r.frame.seq, 2u);

  // Seq flip: the header CRC fails, and a seq it did not vouch for is 0.
  wire = encode_frame(make_frame(2, 32));
  wire[8] ^= 0x01;
  r = first_error(wire);
  ASSERT_EQ(r.status, FrameReader::Status::kProtocolError);
  EXPECT_EQ(r.error, ErrorCode::kBadHeader);
  EXPECT_EQ(r.frame.seq, 0u);

  // A declared length over the limit with an intact header: oversized,
  // and the header CRC vouched for the seq.
  FrameLimits limits;
  limits.max_payload = 16;
  wire = encode_frame(make_frame(5, 32));
  r = first_error(wire, limits);
  ASSERT_EQ(r.status, FrameReader::Status::kProtocolError);
  EXPECT_EQ(r.error, ErrorCode::kOversized);
  EXPECT_EQ(r.frame.seq, 5u);
}

TEST(FrameFuzz, OversizedLengthRejectedWithoutBuffering) {
  FrameLimits limits;
  limits.max_payload = 1024;
  Frame f = make_frame(5, 16);
  std::vector<std::uint8_t> wire = encode_frame(f);
  // Forge the length field to 256 MiB with a consistent header CRC (a
  // misbehaving peer, not line noise); the trailing CRC also breaks, but
  // the length check must fire first, before any payload is buffered.
  const std::uint32_t forged = 256u << 20;
  for (int i = 0; i < 4; ++i)
    wire[16 + i] = static_cast<std::uint8_t>((forged >> (8 * i)) & 0xFF);
  patch_header_crc(wire);

  auto [writer, reader_end] = make_pipe(1 << 16);
  writer->write_all(wire.data(), wire.size());
  FrameReader reader(*reader_end, limits);
  FrameReader::Result r = reader.read(milliseconds(2000));
  ASSERT_EQ(r.status, FrameReader::Status::kProtocolError);
  EXPECT_EQ(r.error, ErrorCode::kOversized);
  EXPECT_LT(reader.buffered(), wire.size() + 1);
  writer->close();
}

TEST(FrameFuzz, LengthFlipOnLiveStreamDetectedImmediately) {
  // A bit flip in the length field on a LIVE connection (no EOF to break a
  // wait): without the header CRC the reader would sit waiting for
  // megabytes of payload that never come. It must instead report a typed
  // header error as soon as the 20-byte header is in.
  Frame f = make_frame(21, 64);
  std::vector<std::uint8_t> wire = encode_frame(f);
  wire[18] ^= 0x40;  // +4 MiB in the little-endian length field

  auto [writer, reader_end] = make_pipe(1 << 16);
  writer->write_all(wire.data(), wire.size());
  FrameReader reader(*reader_end);
  const auto t0 = std::chrono::steady_clock::now();
  FrameReader::Result r = reader.read(milliseconds(2000));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, milliseconds(1500))
      << "a forged length must not stall a live connection";
  ASSERT_EQ(r.status, FrameReader::Status::kProtocolError);
  EXPECT_EQ(r.error, ErrorCode::kBadHeader);
  writer->close();
}

TEST(FrameFuzz, JunkBeforeFrameReportsOnceThenDelivers) {
  const Frame f = make_frame(11, 40);
  std::vector<std::uint8_t> wire(513, 0xAB);  // junk with no magic
  const std::vector<std::uint8_t> good = encode_frame(f);
  wire.insert(wire.end(), good.begin(), good.end());
  const auto results = feed(wire);
  std::size_t errors = 0;
  std::size_t frames = 0;
  for (const auto& r : results) {
    if (r.status == FrameReader::Status::kProtocolError) {
      ++errors;
      EXPECT_EQ(r.error, ErrorCode::kBadMagic);
    }
    if (r.status == FrameReader::Status::kFrame) {
      ++frames;
      EXPECT_EQ(r.frame.payload, f.payload);
    }
  }
  EXPECT_EQ(errors, 1u) << "junk must cost one report, not an error storm";
  EXPECT_EQ(frames, 1u);
}

TEST(FrameFuzz, PureJunkStreamTerminatesWithinWatchdogBudget) {
  FrameLimits limits;
  limits.max_payload = 4096;
  limits.watchdog_steps = 2048;
  std::vector<std::uint8_t> junk(1u << 16);
  std::mt19937 rng(1234);
  for (auto& b : junk) b = static_cast<std::uint8_t>(rng() & 0xFF);
  // Scrub accidental magics so the stream is pure junk.
  for (std::size_t i = 0; i + 4 <= junk.size(); ++i)
    if (junk[i] == 'N' && junk[i + 1] == 'C' && junk[i + 2] == '9' &&
        junk[i + 3] == 'F')
      junk[i] ^= 0xFF;

  const auto results = feed(junk, limits);
  ASSERT_FALSE(results.empty());
  for (const auto& r : results)
    EXPECT_NE(r.status, FrameReader::Status::kFrame);
  // The reader reported (bad magic and/or resync-overrun) and reached EOF.
  EXPECT_EQ(results.back().status, FrameReader::Status::kEof);
}

TEST(FrameFuzz, RandomMutationsNeverHangOrDeliverWrongBytes) {
  std::mt19937 rng(99);
  const Frame base = make_frame(1000, 200);
  const std::vector<std::uint8_t> wire = encode_frame(base);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::uint8_t> mutated = wire;
    const int mutations = 1 + static_cast<int>(rng() % 8);
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng() % mutated.size();
      switch (rng() % 3) {
        case 0: mutated[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8)); break;
        case 1: mutated.resize(pos);  break;  // truncate
        case 2: mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(pos),
                               static_cast<std::uint8_t>(rng() & 0xFF));
                break;
      }
      if (mutated.empty()) break;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = feed(mutated);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::seconds(5)) << "iter " << iter;
    for (const auto& r : results) {
      if (r.status == FrameReader::Status::kFrame) {
        // Anything delivered as valid must be byte-exact.
        EXPECT_EQ(r.frame.payload, base.payload) << "iter " << iter;
      }
    }
  }
}

TEST(FrameFuzz, FragmentedDeliveryReassembles) {
  const Frame f = make_frame(77, 300);
  const std::vector<std::uint8_t> wire = encode_frame(f);
  auto [writer_ptr, reader_end] = make_pipe(1 << 16);
  ByteStream* writer = writer_ptr.get();
  std::thread feeder([&wire, writer] {
    // 1-to-7-byte fragments with pauses: exercises every partial-header
    // and partial-payload resume path.
    std::size_t off = 0;
    std::mt19937 rng(5);
    while (off < wire.size()) {
      const std::size_t n = std::min<std::size_t>(1 + rng() % 7,
                                                  wire.size() - off);
      writer->write_all(wire.data() + off, n);
      off += n;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    writer->close();
  });
  FrameReader reader(*reader_end);
  FrameReader::Result r = reader.read(milliseconds(5000));
  feeder.join();
  ASSERT_EQ(r.status, FrameReader::Status::kFrame);
  EXPECT_EQ(r.frame.payload, f.payload);
}

TEST(FrameFuzz, DeadlineFrameRoundTripsAsV2) {
  Frame sent = make_frame(88, 72);
  sent.deadline_ms = 1500;
  const std::vector<std::uint8_t> wire = encode_frame(sent);
  EXPECT_EQ(wire[4], kFrameVersionDeadline);
  EXPECT_EQ(wire.size(), kFrameHeaderSizeV2 + sent.payload.size() + 4);
  const auto results = feed(wire);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(results[0].status, FrameReader::Status::kFrame);
  EXPECT_EQ(results[0].frame.deadline_ms, 1500u);
  EXPECT_EQ(results[0].frame.payload, sent.payload);
}

TEST(FrameFuzz, ZeroDeadlineStaysByteCompatibleV1) {
  Frame sent = make_frame(89, 72);
  sent.deadline_ms = 0;
  const std::vector<std::uint8_t> wire = encode_frame(sent);
  EXPECT_EQ(wire[4], kFrameVersion);
  EXPECT_EQ(wire.size(), kFrameHeaderSize + sent.payload.size() + 4);
  const auto results = feed(wire);
  ASSERT_EQ(results[0].status, FrameReader::Status::kFrame);
  EXPECT_EQ(results[0].frame.deadline_ms, 0u);
}

TEST(FrameFuzz, V2EverySingleBitFlipIsDetected) {
  Frame sent = make_frame(90, 48);
  sent.deadline_ms = 250;  // forces the 24-byte v2 header
  const std::vector<std::uint8_t> wire = encode_frame(sent);
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = wire;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto results = feed(mutated);
      for (const auto& r : results)
        EXPECT_NE(r.status, FrameReader::Status::kFrame)
            << "v2 flip at byte " << byte << " bit " << bit
            << " delivered a frame";
    }
  }
}

TEST(FrameFuzz, ByteDribbleOneBytePerReadReassembles) {
  // A peer that trickles one byte per read op (slowloris shape) must still
  // yield the exact frame -- the reader's resume paths may never lose or
  // reorder a byte regardless of how reads fragment.
  Frame f = make_frame(91, 257);
  f.deadline_ms = 40;  // dribble the v2 shape too
  const std::vector<std::uint8_t> wire = encode_frame(f);
  auto [writer, reader_raw] = make_pipe(1 << 16);
  writer->write_all(wire.data(), wire.size());
  writer->close();
  std::vector<ChaosRule> rules(1);
  rules[0].op = ChaosRule::Op::kRead;
  rules[0].action = ChaosRule::Action::kDribble;
  rules[0].count = ChaosRule::kForever;
  ChaosStream dribbled(std::move(reader_raw), rules, /*seed=*/7);
  FrameReader reader(dribbled);
  FrameReader::Result r = reader.read(milliseconds(10000));
  ASSERT_EQ(r.status, FrameReader::Status::kFrame);
  EXPECT_EQ(r.frame.payload, f.payload);
  EXPECT_EQ(r.frame.deadline_ms, 40u);
  EXPECT_EQ(reader.bytes_consumed(), wire.size());
  EXPECT_GE(dribbled.counters().dribbles, wire.size());
}

TEST(FrameFuzz, MidFrameStallThenResumeDeliversIntact) {
  // Stall with the header and part of the payload delivered, let the
  // reader time out (NOT error), then resume: the partial frame must
  // survive the stall and complete byte-exact.
  const Frame f = make_frame(92, 300);
  const std::vector<std::uint8_t> wire = encode_frame(f);
  auto [writer, reader_end] = make_pipe(1 << 16);
  const std::size_t half = kFrameHeaderSize + 150;
  writer->write_all(wire.data(), half);

  FrameReader reader(*reader_end);
  FrameReader::Result r = reader.read(milliseconds(50));
  EXPECT_EQ(r.status, FrameReader::Status::kTimeout);
  EXPECT_GT(reader.buffered(), 0u) << "partial frame should be buffered";
  r = reader.read(milliseconds(50));
  EXPECT_EQ(r.status, FrameReader::Status::kTimeout)
      << "a stall must not decay into a protocol error";

  writer->write_all(wire.data() + half, wire.size() - half);
  writer->close();
  r = reader.read(milliseconds(2000));
  ASSERT_EQ(r.status, FrameReader::Status::kFrame);
  EXPECT_EQ(r.frame.payload, f.payload);
  EXPECT_EQ(r.frame.seq, f.seq);
}

TEST(FrameFuzz, ChaosScheduleOfStallsAndPartialsConvergesOnPipelinedFrames) {
  // Ten pipelined frames through a chaos schedule mixing stalls, dribbles
  // and short reads: all ten must come out byte-exact and in order.
  std::vector<std::uint8_t> wire;
  std::vector<Frame> sent;
  for (std::uint64_t s = 1; s <= 10; ++s) {
    Frame f = make_frame(s, 64 + s * 17);
    if (s % 2 == 0) f.deadline_ms = static_cast<std::uint32_t>(s * 100);
    const auto one = encode_frame(f);
    wire.insert(wire.end(), one.begin(), one.end());
    sent.push_back(std::move(f));
  }
  auto [writer, reader_raw] = make_pipe(1 << 20);
  writer->write_all(wire.data(), wire.size());
  writer->close();
  const auto rules = parse_chaos_spec(
      "read:stall=5@3x4,read:dribble@1x40,read:partial=3@0x200");
  ChaosStream chaotic(std::move(reader_raw), rules, /*seed=*/11);
  FrameReader reader(chaotic);
  std::vector<Frame> got;
  while (true) {
    FrameReader::Result r = reader.read(milliseconds(10000));
    ASSERT_NE(r.status, FrameReader::Status::kProtocolError);
    if (r.status == FrameReader::Status::kEof) break;
    if (r.status == FrameReader::Status::kFrame) got.push_back(r.frame);
    ASSERT_LT(got.size(), 100u);
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].seq, sent[i].seq);
    EXPECT_EQ(got[i].payload, sent[i].payload);
    EXPECT_EQ(got[i].deadline_ms, sent[i].deadline_ms);
  }
  EXPECT_GT(chaotic.counters().total(), 0u);
}

TEST(FrameFuzz, ErrorPayloadRoundTrip) {
  const auto payload = error_payload(ErrorCode::kOverloaded, "queue full");
  const ParsedError e = parse_error_payload(payload);
  EXPECT_EQ(e.code, ErrorCode::kOverloaded);
  EXPECT_EQ(e.detail, "queue full");
  EXPECT_THROW(parse_error_payload({0x01}), std::runtime_error);
}

}  // namespace
}  // namespace nc::serve
