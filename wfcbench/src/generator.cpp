// The load generator: one thread, nonblocking sockets, one epoll set.
//
// Closed loop: a connection sends its next request only when one of its
// `window` outstanding requests is answered.  Every response is matched by
// id (exactly once), timed from the moment its request batch was written,
// and checked against the corpus oracle.
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "bench.hpp"
#include "net/socket.hpp"

namespace wfcbench {

namespace {

// Request slots.  A slot stays taken until its own request is answered, so
// a slow answer is matched however many requests overtook it; only the
// drain deadline declares a request lost.
constexpr std::size_t kSlotBits = 12;
constexpr std::size_t kMaxErrors = 8;

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Host CPU time stolen by the hypervisor and all CPU time, in ticks, from
/// the first line of /proc/stat (user nice system idle iowait irq softirq
/// steal ...).
void host_ticks(double* steal, double* total) {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double ticks = 0;
  *steal = 0;
  *total = 0;
  for (int field = 0; field < 8 && stat >> ticks; ++field) {
    *total += ticks;
    if (field == 7) *steal = ticks;
  }
}

/// Wall, CPU and host-steal readings at the start of a measured stretch;
/// finish() adds the differences to a slice.
struct SliceClock {
  std::uint64_t start_ns = Recorder::now_ns();
  double cpu = process_cpu_s();
  double gen = thread_cpu_s();
  double steal = 0;
  double total = 0;
  SliceClock() { host_ticks(&steal, &total); }
  void finish(Slice* slice) const {
    const double gen_cpu = thread_cpu_s() - gen;
    slice->gen_cpu_s += gen_cpu;
    slice->program_cpu_s += process_cpu_s() - cpu - gen_cpu;
    slice->wall_s += static_cast<double>(Recorder::now_ns() - start_ns) / 1e9;
    double steal_now = 0;
    double total_now = 0;
    host_ticks(&steal_now, &total_now);
    slice->host_steal += steal_now - steal;
    slice->host_ticks += total_now - total;
  }
};

/// Value of the member whose `"key":` prefix is `key` in a flat JSON line:
/// the string body (unquoted) or the bare token.  Empty view when absent.
std::string_view member(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return {};
  std::size_t p = at + key.size();
  if (p < line.size() && line[p] == '"') {
    const std::size_t end = line.find('"', p + 1);
    if (end == std::string_view::npos) return {};
    return line.substr(p + 1, end - p - 1);
  }
  std::size_t end = p;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(p, end - p);
}

}  // namespace

struct Generator::Conn {
  std::uint32_t index = 0;
  wfc::net::Fd fd;
  std::string rbuf;
  std::string wbuf;
  std::size_t wpos = 0;
  bool want_write = false;
  int inflight = 0;
  int window = 0;
  std::vector<std::uint32_t> order;  // corpus indices still to send
  std::size_t next = 0;
  bool cyclic = false;  // reshuffle and start over when `order` runs out
  std::mt19937_64 rng;
};

struct Generator::Slot {
  std::uint64_t id = 0;  // 0 = free
  std::uint64_t send_ns = 0;
  std::uint32_t line = 0;
  std::uint32_t conn = 0;
};

Generator::Generator(const std::vector<Line>& corpus, std::uint64_t seed,
                     Recorder* recorder)
    : corpus_(corpus),
      seed_(seed),
      recorder_(recorder),
      slots_(std::size_t{1} << kSlotBits) {
  for (std::size_t i = slots_.size(); i-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
}

Generator::~Generator() { disconnect(); }

void Generator::connect(std::uint16_t port, int connections) {
  disconnect();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
  }
  wfc::net::Endpoint ep;
  ep.port = port;
  for (int i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->index = static_cast<std::uint32_t>(i);
    conn->fd = wfc::net::connect_tcp(ep, std::chrono::milliseconds(2'000));
    wfc::net::set_nonblocking(conn->fd.get(), true);
    // Each connection of each connect() gets its own shuffle stream.
    conn->rng.seed(seed_ * 0x9e3779b97f4a7c15ull + connects_ * 64 +
                   static_cast<std::uint64_t>(i));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(i);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd.get(), &ev) != 0) {
      throw std::system_error(errno, std::generic_category(), "epoll_ctl");
    }
    conns_.push_back(std::move(conn));
  }
  ++connects_;
}

void Generator::disconnect() {
  conns_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
}

void Generator::fail(const std::string& message) {
  if (tally_.errors.size() < kMaxErrors) tally_.errors.push_back(message);
}

std::uint32_t Generator::next_line(Conn& conn) {
  if (conn.next == conn.order.size() && conn.cyclic) {
    std::shuffle(conn.order.begin(), conn.order.end(), conn.rng);
    conn.next = 0;
  }
  return conn.order[conn.next++];
}

void Generator::queue_request(Conn& conn, std::uint32_t line) {
  if (free_slots_.empty()) {
    throw std::runtime_error("more requests in flight than request slots");
  }
  const std::uint32_t index = free_slots_.back();
  free_slots_.pop_back();
  const std::uint64_t id = (next_seq_++ << kSlotBits) | index;
  Slot& slot = slots_[index];
  slot.id = id;
  slot.line = line;
  slot.conn = conn.index;
  char digits[24];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, id);
  (void)ec;
  conn.wbuf += "{\"id\":\"";
  conn.wbuf.append(digits, end);
  conn.wbuf += "\",";
  conn.wbuf += corpus_[line].body;
  conn.wbuf += "}\n";
  ++conn.inflight;
  ++inflight_;
  ++tally_.sent;
  stamp_.push_back(index);
}

void Generator::flush(Conn& conn) {
  while (conn.wpos < conn.wbuf.size()) {
    const ssize_t n =
        ::send(conn.fd.get(), conn.wbuf.data() + conn.wpos,
               conn.wbuf.size() - conn.wpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.wpos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    throw std::system_error(errno, std::generic_category(), "send");
  }
  if (conn.wpos == conn.wbuf.size()) {
    conn.wbuf.clear();
    conn.wpos = 0;
  }
  const bool want_write = !conn.wbuf.empty();
  if (want_write != conn.want_write) {
    conn.want_write = want_write;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.u32 = conn.index;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd.get(), &ev);
  }
}

void Generator::on_response(const char* begin, const char* end,
                            std::uint64_t recv_ns, bool measuring,
                            Slice* slice) {
  const std::string_view line(begin, static_cast<std::size_t>(end - begin));
  std::uint64_t id = 0;
  if (!parse_numeric_id(begin, end, &id)) {
    ++tally_.unmatched;
    fail("unmatched response without a client id: " + std::string(line));
    return;
  }
  const std::uint32_t index =
      static_cast<std::uint32_t>(id & (slots_.size() - 1));
  Slot& slot = slots_[index];
  if (slot.id != id) {
    if (id >> kSlotBits < next_seq_) {
      ++tally_.duplicate;
      fail("duplicate response: " + std::string(line));
    } else {
      ++tally_.unmatched;
      fail("unmatched response: " + std::string(line));
    }
    return;
  }
  const Line& expect = corpus_[slot.line];
  const std::uint64_t latency = recv_ns - slot.send_ns;
  slot.id = 0;
  free_slots_.push_back(index);
  --conns_[slot.conn]->inflight;
  --inflight_;

  bool good = true;
  if (member(line, R"("status":)") != "ok") {
    ++tally_.non_ok;
    good = false;
    fail("non-ok answer to {" + expect.body + "}: " + std::string(line));
  } else {
    bool right = member(line, R"("verdict":)") == expect.verdict;
    if (right && expect.level >= 0) {
      const std::string_view level = member(line, R"("level":)");
      int got = -1;
      std::from_chars(level.data(), level.data() + level.size(), got);
      right = got == expect.level;
    }
    if (!right) {
      ++tally_.wrong;
      good = false;
      fail("wrong answer to {" + expect.body + "}: expected " +
           expect.verdict +
           (expect.level >= 0 ? " at level " + std::to_string(expect.level)
                              : std::string()) +
           ", got " + std::string(line));
    }
    const std::string_view nodes = member(line, R"("nodes":)");
    std::uint64_t n = 0;
    std::from_chars(nodes.data(), nodes.data() + nodes.size(), n);
    tally_.nodes += n;
  }
  if (good) ++tally_.ok;
  if (!measuring) return;
  ++slice->answered;
  if (good) ++slice->ok;
  slice->latency.record(latency);
  if (recorder_ != nullptr && recorder_->enabled()) {
    recorder_->add(Track::kClient, slot.send_ns, recv_ns, id);
    const std::int64_t front = recorder_->front_ns(id);
    if (front >= 0) {
      ++net_self_.matched;
      net_self_.sum_us +=
          (static_cast<double>(latency) - static_cast<double>(front)) / 1000.0;
    }
  }
}

bool Generator::pump(int timeout_ms, bool measuring, Slice* slice) {
  // Refill every window, then write each connection's batch once.
  stamp_.clear();
  for (auto& conn : conns_) {
    while (conn->inflight < conn->window &&
           (conn->cyclic || conn->next < conn->order.size())) {
      queue_request(*conn, next_line(*conn));
    }
  }
  const std::uint64_t send_ns = Recorder::now_ns();
  for (std::uint32_t s : stamp_) slots_[s].send_ns = send_ns;
  for (auto& conn : conns_) {
    if (!conn->wbuf.empty()) flush(*conn);
  }
  if (inflight_ == 0) return false;

  epoll_event events[8];
  const int n = ::epoll_wait(epoll_fd_, events, 8, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return true;
    throw std::system_error(errno, std::generic_category(), "epoll_wait");
  }
  const std::uint64_t recv_ns = Recorder::now_ns();
  for (int e = 0; e < n; ++e) {
    Conn& conn = *conns_[events[e].data.u32];
    if ((events[e].events & EPOLLOUT) != 0) flush(conn);
    if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
    char buf[64 * 1024];
    for (;;) {
      const ssize_t got = ::recv(conn.fd.get(), buf, sizeof buf, 0);
      if (got > 0) {
        conn.rbuf.append(buf, static_cast<std::size_t>(got));
        if (static_cast<std::size_t>(got) < sizeof buf) break;
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw std::runtime_error(got == 0 ? "server closed a connection"
                                        : std::strerror(errno));
    }
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = conn.rbuf.find('\n', start);
      if (nl == std::string::npos) break;
      on_response(conn.rbuf.data() + start, conn.rbuf.data() + nl,
                  recv_ns, measuring, slice);
      start = nl + 1;
    }
    conn.rbuf.erase(0, start);
  }
  return true;
}

void Generator::drain(double timeout_s) {
  for (auto& conn : conns_) {
    conn->cyclic = false;
    conn->next = conn->order.size();
  }
  const std::uint64_t deadline =
      Recorder::now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
  while (inflight_ > 0 && Recorder::now_ns() < deadline) {
    pump(10, false, nullptr);
  }
  if (inflight_ == 0) return;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.id == 0) continue;
    ++tally_.lost;
    fail("lost: no answer to {" + corpus_[slot.line].body + "}");
    slot.id = 0;
    free_slots_.push_back(i);
  }
  for (auto& conn : conns_) conn->inflight = 0;
  inflight_ = 0;
}

void Generator::answer_each_once() {
  for (auto& conn : conns_) {
    conn->order.clear();
    conn->next = 0;
    conn->cyclic = false;
    conn->window = 0;
  }
  Conn& first = *conns_.front();
  for (std::uint32_t i = 0; i < corpus_.size(); ++i) first.order.push_back(i);
  first.window = static_cast<int>(corpus_.size());
  const std::uint64_t deadline = Recorder::now_ns() + 60'000'000'000ull;
  while (pump(100, false, nullptr)) {
    if (Recorder::now_ns() > deadline) {
      drain(0);
      break;
    }
  }
}

std::vector<Slice> Generator::run_hot(int window, double warmup_s,
                                      double seconds, int nslices,
                                      const std::function<void(bool)>& mark) {
  for (auto& conn : conns_) {
    conn->order.clear();
    for (std::uint32_t i = 0; i < corpus_.size(); ++i) conn->order.push_back(i);
    conn->next = conn->order.size();  // shuffle on first use
    conn->cyclic = true;
    conn->window = window;
  }
  std::vector<Slice> slices(static_cast<std::size_t>(nslices));
  const std::uint64_t warm_end =
      Recorder::now_ns() + static_cast<std::uint64_t>(warmup_s * 1e9);
  while (Recorder::now_ns() < warm_end) pump(5, false, nullptr);

  const double slice_s = seconds / nslices;
  mark(true);
  for (Slice& slice : slices) {
    const SliceClock clock;
    const std::uint64_t end =
        clock.start_ns + static_cast<std::uint64_t>(slice_s * 1e9);
    while (Recorder::now_ns() < end) pump(5, true, &slice);
    clock.finish(&slice);
  }
  mark(false);
  drain(10.0);
  return slices;
}

void Generator::run_pass(int window, std::uint64_t pass, Slice* slice) {
  std::vector<std::uint32_t> order(corpus_.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(seed_ * 0xbf58476d1ce4e5b9ull + pass);
  std::shuffle(order.begin(), order.end(), rng);
  for (auto& conn : conns_) {
    conn->order.clear();
    conn->next = 0;
    conn->cyclic = false;
    conn->window = window;
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    conns_[i % conns_.size()]->order.push_back(order[i]);
  }
  const SliceClock clock;
  const std::uint64_t deadline = clock.start_ns + 60'000'000'000ull;
  while (pump(100, slice != nullptr, slice)) {
    if (Recorder::now_ns() > deadline) {
      drain(0);
      break;
    }
  }
  if (slice != nullptr) clock.finish(slice);
}

}  // namespace wfcbench
