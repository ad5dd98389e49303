// Shared machinery of the benchmark's measurement program: the span
// recorder, child processes of the shipped `ninec` binary, and the
// closed-loop client that drives `ninec serve` (or an in-process Server)
// and checks every reply.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "report/json.h"
#include "serve/frame.h"
#include "serve/loadgen.h"
#include "serve/transport.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock, the clock every span uses).
std::int64_t now_ns();

inline double ns_to_ms(std::int64_t ns) {
  return static_cast<double>(ns) / 1e6;
}
inline double ns_to_us(std::int64_t ns) {
  return static_cast<double>(ns) / 1e3;
}

/// In-memory span log, written out once at the end of a run. A span has a
/// name, start and end, the span that caused it and a request id; spans of
/// one request share the id. Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Records a finished span with an explicit parent (-1 = root); returns
  /// its id, or -1 when disabled. Used for asynchronous work such as
  /// pipelined requests, whose spans do not nest on one thread.
  std::int64_t record(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int64_t parent,
                      std::uint64_t req);

  /// Opens a span on the calling thread, parented to the innermost span
  /// the thread has open. Prefer the RAII `Span`.
  std::int64_t open(const char* name, std::uint64_t req);
  void close(std::int64_t id);

  /// {"names": [...], "spans": [[name, start_ns, end_ns, parent, req, tid]]}
  nc::report::Json to_json() const;

 private:
  struct Rec {
    std::uint32_t name = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t parent = -1;
    std::uint64_t req = 0;
    std::uint32_t tid = 0;
  };
  std::uint32_t intern_locked(const char* name);

  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<Rec> recs_;
};

/// Scoped span; a null tracer makes it a no-op timer.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t req = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int64_t id_ = -1;
};

/// Result of one child process, from wait4.
struct ChildExit {
  bool ok = false;  // exited normally with status 0
  int status = 0;   // raw wait status
  double wall_ms = 0.0;
  /// User plus system CPU time. For the single-threaded CLI commands this
  /// is their wall time on an idle host, without the waits for a CPU that
  /// other tenants of a shared host add.
  double cpu_ms = 0.0;
  long maxrss_kb = 0;
};

/// A child process whose stdout and stderr go to `log_path`. The destructor
/// kills and reaps a child that is still running, and the kernel kills it
/// if the measurement process itself dies, so no process outlives it.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// True once the child has exited (it stays unreaped for wait()).
  bool exited() const;
  /// Blocks until the child exits.
  ChildExit wait();
  /// SIGTERM, then wait.
  ChildExit terminate();

 private:
  pid_t pid_ = -1;
  std::int64_t start_ns_ = 0;
  bool reaped_ = false;
};

/// Runs commands to completion from a small process forked when the
/// measurement process starts. Linux folds the memory of the process that
/// calls exec into the child's ru_maxrss, so forking ninec from this shim,
/// rather than from the measurement process once it holds a workload's
/// inputs, keeps its footprint out of the peak RSS the benchmark reports.
class Launcher {
 public:
  Launcher();
  ~Launcher();
  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  ChildExit run(const std::vector<std::string>& argv,
                const std::string& log_path);

 private:
  pid_t pid_ = -1;
  int to_shim_ = -1;
  int from_shim_ = -1;
};

/// Whole-file helpers.
std::vector<std::uint8_t> read_file(const std::string& path);
std::uint64_t dir_bytes(const std::string& dir);
void remove_tree(const std::string& path);

/// One serve request with its expected reply, as built by
/// serve::build_workloads.
struct Item {
  nc::serve::FrameType type = nc::serve::FrameType::kEncodeRequest;
  std::vector<std::uint8_t> payload;
  nc::serve::FrameType expected_type = nc::serve::FrameType::kEncodeReply;
  std::vector<std::uint8_t> expected;
  std::uint64_t td_bits = 0;   // trits of the test set the request carries
  std::uint64_t te_trits = 0;  // encode requests: trits of the expected TE
};

std::vector<Item> to_items(std::vector<nc::serve::Workload> pool,
                           const nc::serve::LoadgenConfig& config);

/// Trit count of an NCT1 trit-vector payload (bits/serialize.h kind 0).
std::uint64_t nct1_trit_count(const std::uint8_t* data, std::size_t len);

/// What a closed-loop run saw from the client side.
struct LoadResult {
  std::vector<double> lat_ms;         // untraced requests, submit -> verified
  std::vector<double> lat_traced_ms;  // traced requests
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few reasons
  std::uint64_t td_bits = 0;          // TD trits of resolved requests
  std::uint64_t encode_td_bits = 0;   // of which encode requests
  std::uint64_t encode_te_trits = 0;  // TE trits those replies carried
  std::uint64_t retransmits = 0;
  double wall_s = 0.0;

  void add_failure(const std::string& why);
  void merge(LoadResult&& other);
};

using Connect = std::function<std::unique_ptr<nc::serve::ByteStream>()>;
/// Chooses the next item for connection `conn`; false ends that connection.
using Picker = std::function<bool(std::size_t conn, std::size_t& index)>;

/// Closed loop: `conns` client threads, each a serve::RetryingClient with
/// up to `depth` requests in flight; the next request goes out as soon as a
/// reply has been checked byte for byte against its item. With a tracer,
/// every other request records spans; latencies of traced and untraced
/// requests are kept apart so the tracing overhead can be read off.
LoadResult run_closed_loop(const Connect& connect,
                           const std::vector<Item>& items, std::size_t conns,
                           std::size_t depth, const Picker& next,
                           Tracer* tracer, std::uint64_t req_base);

/// One Stats request on a fresh connection; returns the reply JSON text.
/// Throws std::runtime_error when the server does not answer.
std::string fetch_stats(const Connect& connect);

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t operator()(std::uint64_t& state) const;

 private:
  std::vector<double> cdf_;
};

/// splitmix64 step on `state`, returning a uniform 64-bit draw.
std::uint64_t next_random(std::uint64_t& state);

}  // namespace perfbench
