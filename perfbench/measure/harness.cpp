#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "serve/client.h"

namespace perfbench {

namespace {

thread_local std::int64_t tl_open_span = -1;
std::atomic<std::uint32_t> g_next_tid{1};
thread_local const std::uint32_t tl_tid = g_next_tid.fetch_add(1);

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ Tracer

std::uint32_t Tracer::intern_locked(const char* name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return i;
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t Tracer::record(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::int64_t parent,
                            std::uint64_t req) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  recs_.push_back(Rec{intern_locked(name), start_ns, end_ns, parent, req,
                      tl_tid});
  return static_cast<std::int64_t>(recs_.size() - 1);
}

std::int64_t Tracer::open(const char* name, std::uint64_t req) {
  if (!enabled_) return -1;
  const std::int64_t start = now_ns();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    recs_.push_back(Rec{intern_locked(name), start, -1, tl_open_span, req,
                        tl_tid});
    id = static_cast<std::int64_t>(recs_.size() - 1);
  }
  tl_open_span = id;
  return id;
}

void Tracer::close(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  Rec& r = recs_[static_cast<std::size_t>(id)];
  r.end = end;
  tl_open_span = r.parent;
}

nc::report::Json Tracer::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  nc::report::Json doc = nc::report::Json::object();
  nc::report::Json names = nc::report::Json::array();
  for (const std::string& n : names_) names.push_back(n);
  nc::report::Json spans = nc::report::Json::array();
  for (const Rec& r : recs_) {
    nc::report::Json s = nc::report::Json::array();
    s.push_back(r.name);
    s.push_back(static_cast<long long>(r.start));
    s.push_back(static_cast<long long>(r.end));
    s.push_back(static_cast<long long>(r.parent));
    s.push_back(static_cast<unsigned long long>(r.req));
    s.push_back(r.tid);
    spans.push_back(std::move(s));
  }
  doc["names"] = std::move(names);
  doc["spans"] = std::move(spans);
  return doc;
}

Span::Span(Tracer* tracer, const char* name, std::uint64_t req)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->open(name, req);
}

Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

// ------------------------------------------------------------------- Child

Child::Child(const std::vector<std::string>& argv,
             const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv)
    args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const char* log = log_path.c_str();
  const pid_t parent = ::getpid();
  start_ns_ = now_ns();
  pid_ = ::fork();
  if (pid_ < 0)
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(errno));
  if (pid_ == 0) {
    // Async-signal-safe calls only. The parent-death signal makes the
    // kernel kill the child if the measurement process dies first, on any path.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log, O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0 || ::dup2(fd, STDOUT_FILENO) < 0 ||
        ::dup2(fd, STDERR_FILENO) < 0)
      ::_exit(127);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
}

Child::~Child() {
  if (reaped_ || pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

bool Child::exited() const {
  if (reaped_) return true;
  siginfo_t info{};
  if (::waitid(P_PID, static_cast<id_t>(pid_), &info,
               WEXITED | WNOHANG | WNOWAIT) != 0)
    return true;
  return info.si_pid != 0;
}

ChildExit Child::wait() {
  ChildExit e;
  if (reaped_) throw std::logic_error("child already reaped");
  struct rusage ru {};
  int status = 0;
  pid_t r = -1;
  do {
    r = ::wait4(pid_, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  e.wall_ms = ns_to_ms(now_ns() - start_ns_);
  if (r < 0) throw std::runtime_error("wait4 failed");
  reaped_ = true;
  e.status = status;
  e.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  e.cpu_ms = (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                  1e6 +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec)) /
             1e3;
  e.maxrss_kb = ru.ru_maxrss;
  return e;
}

ChildExit Child::terminate() {
  if (!reaped_) ::kill(pid_, SIGTERM);
  return wait();
}

namespace {

bool write_fd(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_fd(int fd, void* data, std::size_t len) {
  auto* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_string(int fd, const std::string& s) {
  const auto len = static_cast<std::uint32_t>(s.size());
  return write_fd(fd, &len, sizeof len) && write_fd(fd, s.data(), s.size());
}

bool read_string(int fd, std::string& s) {
  std::uint32_t len = 0;
  if (!read_fd(fd, &len, sizeof len)) return false;
  s.resize(len);
  return read_fd(fd, s.data(), len);
}

/// The shim: runs each requested command and answers with its ChildExit,
/// until the measurement process closes the request pipe.
[[noreturn]] void shim_loop(int in, int out) {
  for (;;) {
    std::uint32_t argc = 0;
    if (!read_fd(in, &argc, sizeof argc)) ::_exit(0);
    std::vector<std::string> argv(argc);
    std::string log;
    for (std::string& a : argv)
      if (!read_string(in, a)) ::_exit(1);
    if (!read_string(in, log)) ::_exit(1);
    ChildExit e;
    try {
      Child child(argv, log);
      e = child.wait();
    } catch (const std::exception&) {
      e.ok = false;
      e.status = -1;
    }
    if (!write_fd(out, &e, sizeof e)) ::_exit(1);
  }
}

}  // namespace

Launcher::Launcher() {
  int to[2] = {-1, -1};
  int from[2] = {-1, -1};
  if (::pipe2(to, O_CLOEXEC) != 0 || ::pipe2(from, O_CLOEXEC) != 0)
    throw std::runtime_error("cannot create launcher pipes");
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("cannot fork the launcher");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::close(to[1]);
    ::close(from[0]);
    shim_loop(to[0], from[1]);
  }
  ::close(to[0]);
  ::close(from[1]);
  to_shim_ = to[1];
  from_shim_ = from[0];
}

Launcher::~Launcher() {
  ::close(to_shim_);
  ::close(from_shim_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

ChildExit Launcher::run(const std::vector<std::string>& argv,
                        const std::string& log_path) {
  const auto argc = static_cast<std::uint32_t>(argv.size());
  bool sent = write_fd(to_shim_, &argc, sizeof argc);
  for (const std::string& a : argv) sent = sent && write_string(to_shim_, a);
  sent = sent && write_string(to_shim_, log_path);
  ChildExit e;
  if (!sent || !read_fd(from_shim_, &e, sizeof e))
    throw std::runtime_error("the launcher process is gone");
  return e;
}

// ------------------------------------------------------------------- files

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

// ------------------------------------------------------------------- items

std::uint64_t nct1_trit_count(const std::uint8_t* data, std::size_t len) {
  if (len < 13 || std::memcmp(data, "NCT1", 4) != 0 || data[4] != 0)
    throw std::runtime_error("not an NCT1 trit-vector payload");
  std::uint64_t n = 0;
  for (int i = 0; i < 8; ++i)
    n |= static_cast<std::uint64_t>(data[5 + i]) << (8 * i);
  return n;
}

std::vector<Item> to_items(std::vector<nc::serve::Workload> pool,
                           const nc::serve::LoadgenConfig& config) {
  std::vector<Item> items;
  items.reserve(pool.size());
  for (nc::serve::Workload& w : pool) {
    Item it;
    it.type = w.request_type;
    it.expected_type = w.expected_type;
    it.payload = std::move(w.request_payload);
    it.expected = std::move(w.expected_payload);
    it.td_bits = static_cast<std::uint64_t>(config.patterns) * config.width;
    if (it.type == nc::serve::FrameType::kEncodeRequest)
      it.te_trits = nct1_trit_count(it.expected.data(), it.expected.size());
    items.push_back(std::move(it));
  }
  return items;
}

// ------------------------------------------------------------- closed loop

void LoadResult::add_failure(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void LoadResult::merge(LoadResult&& o) {
  lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
  lat_traced_ms.insert(lat_traced_ms.end(), o.lat_traced_ms.begin(),
                       o.lat_traced_ms.end());
  attempted += o.attempted;
  failed += o.failed;
  for (std::string& f : o.failures)
    if (failures.size() < 8) failures.push_back(std::move(f));
  td_bits += o.td_bits;
  encode_td_bits += o.encode_td_bits;
  encode_te_trits += o.encode_te_trits;
  retransmits += o.retransmits;
  wall_s = std::max(wall_s, o.wall_s);
}

namespace {

using nc::serve::RetryingClient;

// A request that stays unresolved this long is abandoned as a failure;
// healthy replies take milliseconds.
constexpr std::chrono::seconds kStuckAfter{30};

LoadResult run_connection(const Connect& connect,
                          const std::vector<Item>& items, std::size_t conn,
                          std::size_t depth, const Picker& next,
                          Tracer* tracer, std::uint64_t req_base) {
  LoadResult res;
  struct Flight {
    std::size_t index = 0;
    std::int64_t start = 0;
    std::uint64_t req = 0;
  };
  std::map<std::uint64_t, Flight> flights;
  std::uint64_t sent = 0;
  bool more = true;
  const std::int64_t t0 = now_ns();
  try {
    RetryingClient client(connect);
    std::int64_t last_progress = now_ns();
    while (more || !flights.empty()) {
      while (more && flights.size() < depth) {
        std::size_t index = 0;
        if (!next(conn, index)) {
          more = false;
          break;
        }
        Flight f;
        f.index = index;
        f.req = req_base + conn * 1000000000ull + sent++;
        f.start = now_ns();
        const std::uint64_t seq =
            client.submit(items[index].type, items[index].payload);
        flights.emplace(seq, f);
        ++res.attempted;
      }
      if (flights.empty()) break;
      for (auto& [seq, outcome] : client.poll(std::chrono::milliseconds(20))) {
        const auto it = flights.find(seq);
        if (it == flights.end()) continue;
        const Flight f = it->second;
        flights.erase(it);
        const Item& item = items[f.index];
        const std::int64_t verify_start = now_ns();
        bool ok = false;
        if (outcome.status == RetryingClient::Outcome::Status::kTypedError)
          res.add_failure("typed error " +
                          std::string(nc::serve::to_string(outcome.error)) +
                          ": " + outcome.detail);
        else if (outcome.status != RetryingClient::Outcome::Status::kReply)
          res.add_failure("request unresolved: " + outcome.detail);
        else if (outcome.reply.type != item.expected_type ||
                 outcome.reply.payload != item.expected)
          res.add_failure("reply differs from the build_workloads reference");
        else
          ok = true;
        const std::int64_t end = now_ns();
        last_progress = end;
        if (!ok) continue;
        res.td_bits += item.td_bits;
        if (item.type == nc::serve::FrameType::kEncodeRequest) {
          res.encode_td_bits += item.td_bits;
          res.encode_te_trits += item.te_trits;
        }
        // Every other request is traced, so both latency populations come
        // from the same stretch of the run.
        const bool traced = tracer != nullptr && (f.req & 1u) == 1u;
        if (traced) {
          const std::int64_t id =
              tracer->record("e2e.request", f.start, end, -1, f.req);
          tracer->record("e2e.verify", verify_start, end, id, f.req);
          res.lat_traced_ms.push_back(ns_to_ms(end - f.start));
        } else {
          res.lat_ms.push_back(ns_to_ms(end - f.start));
        }
      }
      if (now_ns() - last_progress >
          std::chrono::duration_cast<std::chrono::nanoseconds>(kStuckAfter)
              .count()) {
        for (std::size_t i = 0; i < flights.size(); ++i)
          res.add_failure("request stayed unresolved");
        flights.clear();
        more = false;
      }
    }
    res.retransmits = client.stats().retransmits;
    client.close();
  } catch (const std::exception& e) {
    res.add_failure(std::string("client error: ") + e.what());
    for (std::size_t i = 0; i < flights.size(); ++i)
      res.add_failure("request lost with its connection");
  }
  res.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return res;
}

}  // namespace

LoadResult run_closed_loop(const Connect& connect,
                           const std::vector<Item>& items, std::size_t conns,
                           std::size_t depth, const Picker& next,
                           Tracer* tracer, std::uint64_t req_base) {
  std::vector<LoadResult> results(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c)
    threads.emplace_back([&, c] {
      results[c] =
          run_connection(connect, items, c, depth, next, tracer, req_base);
    });
  for (std::thread& t : threads) t.join();
  LoadResult total;
  for (LoadResult& r : results) total.merge(std::move(r));
  return total;
}

std::string fetch_stats(const Connect& connect) {
  RetryingClient client(connect);
  const auto outcome = client.call(nc::serve::FrameType::kStatsRequest, {},
                                   std::chrono::milliseconds(10000));
  client.close();
  if (!outcome.has_value() ||
      outcome->status != RetryingClient::Outcome::Status::kReply)
    throw std::runtime_error("server did not answer a Stats request");
  return std::string(outcome->reply.payload.begin(),
                     outcome->reply.payload.end());
}

// -------------------------------------------------------------------- Zipf

std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::operator()(std::uint64_t& state) const {
  const double u =
      static_cast<double>(next_random(state) >> 11) * 0x1.0p-53;
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::size_t>(it - cdf_.begin());
}

}  // namespace perfbench
