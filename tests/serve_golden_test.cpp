// Replays the golden serve session (tests/golden/serve/session.txt) through
// an in-process server and requires every reply frame to match the pinned
// bytes exactly: encodes at K=8 and K=16 with the standard and a
// frequency-directed table, an L1 hit, a decode, a tune search, signature
// publish and check, and typed errors -- over v1 and v2 framing.
#include <gtest/gtest.h>

#include <fstream>
#include <vector>

#include "golden/serve/golden_session.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace nc::serve {
namespace {

std::vector<golden::Exchange> load_session() {
  std::ifstream in(NC_SERVE_GOLDEN_SESSION);
  EXPECT_TRUE(in) << "cannot open " << NC_SERVE_GOLDEN_SESSION;
  return golden::read_session(in);
}

TEST(ServeGoldenTest, SessionIsPresent) {
  const std::vector<golden::Exchange> session = load_session();
  EXPECT_EQ(session.size(), 13u);
  for (const golden::Exchange& e : session) {
    EXPECT_FALSE(e.request.empty()) << e.name;
    EXPECT_FALSE(e.reply.empty()) << e.name;
  }
}

TEST(ServeGoldenTest, EveryReplyFrameIsByteIdentical) {
  const std::vector<golden::Exchange> session = load_session();
  ServerConfig config;
  config.worker_threads = 2;
  Server server(config);
  auto [client_end, server_end] = make_pipe();
  server.serve(std::move(server_end));
  for (const golden::Exchange& e : session) {
    client_end->write_all(e.request.data(), e.request.size());
    EXPECT_EQ(golden::to_hex(golden::read_raw_frame(*client_end)),
              golden::to_hex(e.reply))
        << "reply to " << e.name << " changed on the wire";
  }
  server.stop();
}

}  // namespace
}  // namespace nc::serve
