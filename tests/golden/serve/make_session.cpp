// Writes the golden serve session (session.txt): a fixed sequence of v1 and
// v2 (deadline-carrying) requests sent one at a time through an in-process
// server, recorded with the reply frame each one got.
//
//   serve_golden_gen tests/golden/serve/session.txt
//
// serve_golden_test replays the file and compares every reply byte for
// byte. Regenerate only for an intended wire change, and say so in the
// change log.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bits/test_set.h"
#include "codec/nine_coded.h"
#include "gen/cube_gen.h"
#include "golden_session.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace {

using namespace nc;
using namespace nc::serve;

/// Far beyond any replay's runtime: v2 framing without ever shedding.
constexpr std::uint32_t kDeadlineMs = 600000;

bits::TestSet small_test_set() {
  return bits::TestSet::from_strings({
      "01XX10X0",
      "XX01XX11",
      "1X0X0X0X",
      "0110XXXX",
  });
}

bits::TestSet cube_set(std::size_t patterns, std::size_t width,
                       std::uint64_t seed) {
  gen::CubeGenConfig cfg;
  cfg.patterns = patterns;
  cfg.width = width;
  cfg.x_fraction = 0.7;
  cfg.seed = seed;
  return gen::generate_cubes(cfg);
}

/// The frequency-directed table for `ts` at block size `k`, as a spec.
CodecSpec frequency_directed(const bits::TestSet& ts, std::size_t k) {
  const codec::NineCoded coder = codec::NineCoded::tuned_for(ts.flatten(), k);
  CodecSpec spec;
  spec.k = k;
  for (std::size_t c = 0; c < codec::kNumClasses; ++c)
    spec.lengths[c] = coder.table().length(static_cast<codec::BlockClass>(c));
  return spec;
}

Frame request(FrameType type, std::uint64_t seq,
              std::vector<std::uint8_t> payload,
              std::uint32_t deadline_ms = 0) {
  Frame f;
  f.type = type;
  f.seq = seq;
  f.deadline_ms = deadline_ms;
  f.payload = std::move(payload);
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: serve_golden_gen OUT.txt\n";
    return 1;
  }
  const bits::TestSet ts8 = small_test_set();
  const bits::TestSet ts16 = cube_set(6, 48, 21);
  const CodecSpec std8{};
  CodecSpec std16;
  std16.k = 16;
  const CodecSpec freq8 = frequency_directed(ts8, 8);
  const CodecSpec freq16 = frequency_directed(ts16, 16);

  DecodeRequest decode;
  decode.spec = std8;
  decode.patterns = ts8.pattern_count();
  decode.width = ts8.pattern_length();
  decode.te = std8.make_coder().encode(ts8.flatten());

  TuneRequest tune;
  tune.seed = 3;
  tune.generations = 2;
  tune.population = 4;
  tune.tests = cube_set(8, 32, 5);

  SignaturePublish publish;
  publish.outputs_per_cycle = 4;
  publish.cycles = 6;
  publish.expected = bits::TritVector::from_string("01X1" "1100" "X0X0"
                                                   "0110" "1X11" "0001");
  const std::vector<std::uint8_t> publish_payload = to_payload(publish);
  const CacheKey ref_key =
      signature_ref_key(publish_payload.data(), publish_payload.size());
  SignatureCheck check;
  check.ref = SignatureRef{ref_key.lo, ref_key.hi};
  check.observed = bits::TritVector::from_string("0101" "1100" "1000"
                                                 "0110" "1011" "0011");
  SignatureCheck unknown = check;
  unknown.ref.lo ^= 1;

  DecodeRequest truncated = decode;
  std::vector<std::uint8_t> truncated_payload = to_payload(truncated);
  truncated_payload.resize(truncated_payload.size() / 2);

  const std::vector<std::pair<std::string, Frame>> requests = {
      {"encode_k8_standard_v1",
       request(FrameType::kEncodeRequest, 1,
               to_payload(EncodeRequest{std8, ts8}))},
      {"encode_k8_standard_v1_repeat",
       request(FrameType::kEncodeRequest, 2,
               to_payload(EncodeRequest{std8, ts8}))},
      {"encode_k8_freq_v2",
       request(FrameType::kEncodeRequest, 3,
               to_payload(EncodeRequest{freq8, ts8}), kDeadlineMs)},
      {"encode_k16_standard_v2",
       request(FrameType::kEncodeRequest, 4,
               to_payload(EncodeRequest{std16, ts16}), kDeadlineMs)},
      {"encode_k16_freq_v1",
       request(FrameType::kEncodeRequest, 5,
               to_payload(EncodeRequest{freq16, ts16}))},
      {"decode_k8_standard_v2",
       request(FrameType::kDecodeRequest, 6, to_payload(decode), kDeadlineMs)},
      {"tune_2x4_v1",
       request(FrameType::kTuneRequest, 7, to_payload(tune))},
      {"signature_publish_v1",
       request(FrameType::kSignaturePublishRequest, 8, publish_payload)},
      {"signature_check_v2",
       request(FrameType::kSignatureCheckRequest, 9, to_payload(check),
               kDeadlineMs)},
      {"signature_check_unknown_ref_v1",
       request(FrameType::kSignatureCheckRequest, 10, to_payload(unknown))},
      {"malformed_short_payload_v1",
       request(FrameType::kEncodeRequest, 11, {0x08, 0x00, 0x01})},
      {"malformed_truncated_decode_v2",
       request(FrameType::kDecodeRequest, 12, truncated_payload,
               kDeadlineMs)},
      {"bad_frame_type_v1",
       request(FrameType::kEncodeReply, 13,
               to_payload(EncodeRequest{std8, ts8}))},
  };

  ServerConfig config;
  config.worker_threads = 2;
  Server server(config);
  auto [client_end, server_end] = make_pipe();
  server.serve(std::move(server_end));

  std::vector<golden::Exchange> session;
  for (const auto& [name, frame] : requests) {
    golden::Exchange e;
    e.name = name;
    e.request = encode_frame(frame);
    client_end->write_all(e.request.data(), e.request.size());
    e.reply = golden::read_raw_frame(*client_end);
    session.push_back(std::move(e));
  }
  server.stop();

  std::ofstream out(argv[1], std::ios::binary);
  golden::write_session(out, session);
  if (!out) {
    std::cerr << "cannot write " << argv[1] << '\n';
    return 1;
  }
  std::cout << "wrote " << session.size() << " exchanges to " << argv[1]
            << '\n';
  return 0;
}
