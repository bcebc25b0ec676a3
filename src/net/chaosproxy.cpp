#include "net/chaosproxy.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <system_error>
#include <utility>

#include "common/rng.hpp"
#include "common/version.hpp"
#include "service/jsonl.hpp"
#include "service/status.hpp"

namespace wfc::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kReadChunk = 64 * 1024;

std::int64_t int_or(const svc::Fields& fields, const char* key,
                    std::int64_t fallback) {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  const std::string text(it->second);
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

double double_or(const svc::Fields& fields, const char* key, double fallback) {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  const std::string text(it->second);
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

/// Compound-key segment for per-link chaos_stats fields (flat JSON has no
/// nesting; mirrors the router's key_safe).
std::string key_safe(const std::string& id) {
  std::string out = id;
  for (char& c : out) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_') c = '_';
  }
  return out;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* fault_mode_name(FaultMode mode) {
  switch (mode) {
    case FaultMode::kNone: return "none";
    case FaultMode::kLatency: return "latency";
    case FaultMode::kBandwidth: return "bandwidth";
    case FaultMode::kCorrupt: return "corrupt";
    case FaultMode::kBlackhole: return "blackhole";
    case FaultMode::kRst: return "rst";
    case FaultMode::kTrickle: return "trickle";
    case FaultMode::kHalfOpen: return "half_open";
  }
  return "none";
}

bool parse_fault_mode(std::string_view name, FaultMode* out) {
  for (const FaultMode mode :
       {FaultMode::kNone, FaultMode::kLatency, FaultMode::kBandwidth,
        FaultMode::kCorrupt, FaultMode::kBlackhole, FaultMode::kRst,
        FaultMode::kTrickle, FaultMode::kHalfOpen}) {
    if (name == fault_mode_name(mode)) {
      *out = mode;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Internal structures.  Flows (and everything inside them) are owned by the
// relay thread; Links are shared with the admin path through link.mu and
// the atomic counters.

struct ChaosProxy::Link {
  std::string id;
  std::size_t index = 0;
  Endpoint upstream;
  Fd listener;
  std::uint16_t bound_port = 0;

  mutable std::mutex mu;  // guards spec
  FaultSpec spec;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> upstream_failures{0};
  std::atomic<std::uint64_t> bytes_up{0};
  std::atomic<std::uint64_t> bytes_down{0};
  std::atomic<std::uint64_t> corrupted_bytes{0};
  std::atomic<std::uint64_t> dropped_bytes{0};
  std::atomic<std::uint64_t> rsts{0};
  std::uint64_t flow_serial = 0;  // relay thread only

  [[nodiscard]] FaultSpec snapshot() const {
    std::lock_guard<std::mutex> lk(mu);
    return spec;
  }
};

/// One direction of a flow: bytes read from `src` are shaped into `queue`
/// and written to `dst` once their release time passes.
struct ChaosProxy::Pipe {
  int src = -1;  // borrowed from the Flow's Fds
  int dst = -1;
  bool to_upstream = false;  // direction label for counters / half_open

  struct Chunk {
    std::string data;
    Clock::time_point release;
  };
  std::deque<Chunk> queue;
  std::size_t queued_bytes = 0;
  std::size_t write_off = 0;  // partial-write offset into queue.front()
  bool src_eof = false;
  bool wr_shut = false;  // SHUT_WR already propagated to dst

  /// Deterministic per-direction stream: corruption and jitter draws.
  Rng rng{0};

  // Bandwidth token bucket (kBandwidth only).  bw_next is when the bucket
  // next holds a whole byte -- the poll pass must NOT arm POLLOUT before
  // it, or an empty bucket against a writable socket becomes a busy loop.
  double bw_tokens = 0.0;
  Clock::time_point bw_last{};
  Clock::time_point bw_next{};
};

struct ChaosProxy::Flow {
  Link* link = nullptr;
  Fd down;  // the router-facing socket
  Fd up;    // the shard-facing socket
  Pipe d2u;
  Pipe u2d;
  bool dead = false;
};

// ---------------------------------------------------------------------------
// Lifecycle.

ChaosProxy::ChaosProxy(ChaosProxyConfig config) : config_(std::move(config)) {
  std::size_t index = 0;
  for (const ChaosLinkSpec& spec : config_.links) {
    auto link = std::make_unique<Link>();
    link->id = spec.id;
    link->index = index++;
    link->upstream = spec.upstream;
    link->listener = listen_tcp(spec.listen, &link->bound_port);
    links_.push_back(std::move(link));
  }
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    throw std::system_error(errno, std::generic_category(), "pipe");
  }
  wake_r_ = Fd(pipe_fds[0]);
  wake_w_ = Fd(pipe_fds[1]);
  set_nonblocking(wake_r_.get(), true);
  set_nonblocking(wake_w_.get(), true);
}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::start() {
  if (started_.exchange(true)) return;
  relay_ = std::thread([this] { relay_thread(); });
}

void ChaosProxy::stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  wake();
  if (relay_.joinable()) relay_.join();
}

void ChaosProxy::wake() {
  const char byte = 1;
  (void)!::write(wake_w_.get(), &byte, 1);
}

std::uint16_t ChaosProxy::port(const std::string& link) const {
  for (const auto& l : links_) {
    if (l->id == link) return l->bound_port;
  }
  return 0;
}

bool ChaosProxy::set_fault(const std::string& link, const FaultSpec& spec) {
  bool found = false;
  for (const auto& l : links_) {
    if (link != "*" && l->id != link) continue;
    {
      std::lock_guard<std::mutex> lk(l->mu);
      l->spec = spec;
    }
    found = true;
    if (config_.log) {
      config_.log("link " + l->id + " -> " + fault_mode_name(spec.mode));
    }
  }
  if (found) wake();
  return found;
}

FaultSpec ChaosProxy::fault(const std::string& link) const {
  for (const auto& l : links_) {
    if (l->id == link) return l->snapshot();
  }
  return FaultSpec{};
}

ChaosProxy::LinkStats ChaosProxy::link_stats(const std::string& link) const {
  LinkStats s;
  for (const auto& l : links_) {
    if (l->id != link) continue;
    s.accepted = l->accepted.load(std::memory_order_relaxed);
    s.upstream_failures = l->upstream_failures.load(std::memory_order_relaxed);
    s.bytes_up = l->bytes_up.load(std::memory_order_relaxed);
    s.bytes_down = l->bytes_down.load(std::memory_order_relaxed);
    s.corrupted_bytes = l->corrupted_bytes.load(std::memory_order_relaxed);
    s.dropped_bytes = l->dropped_bytes.load(std::memory_order_relaxed);
    s.rsts = l->rsts.load(std::memory_order_relaxed);
  }
  return s;
}

// ---------------------------------------------------------------------------
// The relay: one thread, a poll set rebuilt per pass.

void ChaosProxy::accept_on(Link& link) {
  for (;;) {
    Fd down(::accept(link.listener.get(), nullptr, nullptr));
    if (!down.valid()) return;  // EAGAIN (listener is nonblocking)
    link.accepted.fetch_add(1, std::memory_order_relaxed);
    const FaultSpec spec = link.snapshot();
    if (spec.mode == FaultMode::kRst) {
      // The regime refuses service the hard way: accept, then reset.
      linger hard{};
      hard.l_onoff = 1;
      hard.l_linger = 0;
      ::setsockopt(down.get(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
      link.rsts.fetch_add(1, std::memory_order_relaxed);
      continue;  // Fd closes -> RST
    }
    Fd up;
    try {
      up = connect_tcp(link.upstream, config_.connect_timeout);
    } catch (...) {
      link.upstream_failures.fetch_add(1, std::memory_order_relaxed);
      continue;  // downstream closes; the router sees a dead shard
    }
    set_nonblocking(down.get(), true);
    set_nonblocking(up.get(), true);
    set_nodelay(down.get());

    auto flow = std::make_unique<Flow>();
    flow->link = &link;
    const std::uint64_t serial = ++link.flow_serial;
    flow->down = std::move(down);
    flow->up = std::move(up);
    flow->d2u.src = flow->down.get();
    flow->d2u.dst = flow->up.get();
    flow->d2u.to_upstream = true;
    flow->d2u.rng = Rng(mix64(config_.seed ^ (link.index << 1)) ^ serial);
    flow->u2d.src = flow->up.get();
    flow->u2d.dst = flow->down.get();
    flow->u2d.to_upstream = false;
    flow->u2d.rng = Rng(mix64(config_.seed ^ ((link.index << 1) | 1)) ^ serial);
    flows_.push_back(std::move(flow));
  }
}

bool ChaosProxy::pump_read(Link& link, Pipe& pipe) {
  char buf[kReadChunk];
  const ssize_t n = ::recv(pipe.src, buf, sizeof(buf), 0);
  if (n < 0) {
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
  if (n == 0) {
    pipe.src_eof = true;
    return true;
  }
  const FaultSpec spec = link.snapshot();
  const Clock::time_point now = Clock::now();
  const bool drop =
      spec.mode == FaultMode::kBlackhole ||
      (spec.mode == FaultMode::kHalfOpen && !pipe.to_upstream);
  if (drop) {
    link.dropped_bytes.fetch_add(static_cast<std::uint64_t>(n),
                                 std::memory_order_relaxed);
    return true;
  }
  std::string data(buf, static_cast<std::size_t>(n));
  if (spec.mode == FaultMode::kCorrupt && spec.corrupt_prob > 0) {
    // One draw per byte keeps the stream position-deterministic however
    // the kernel chunks the reads; the mask draw only happens on a flip.
    std::uint64_t flipped = 0;
    for (char& c : data) {
      if (pipe.rng.unit() < spec.corrupt_prob) {
        c = static_cast<char>(
            static_cast<unsigned char>(c) ^
            static_cast<unsigned char>(1 + pipe.rng.below(255)));
        ++flipped;
      }
    }
    link.corrupted_bytes.fetch_add(flipped, std::memory_order_relaxed);
  }
  if (spec.mode == FaultMode::kTrickle) {
    // Slow-loris: split into drips, each released one interval after the
    // previous pending drip (or now, when the queue is empty).
    const std::size_t step = std::max<std::size_t>(1, spec.trickle_bytes);
    Clock::time_point release =
        pipe.queue.empty() ? now : pipe.queue.back().release;
    for (std::size_t off = 0; off < data.size(); off += step) {
      release += spec.trickle_interval;
      pipe.queue.push_back(
          Pipe::Chunk{data.substr(off, step), release});
    }
  } else {
    Clock::time_point release = now;
    if (spec.mode == FaultMode::kLatency) {
      auto hold = spec.latency;
      if (spec.jitter.count() > 0) {
        const std::int64_t span = 2 * spec.jitter.count() + 1;
        hold += std::chrono::milliseconds(
            static_cast<std::int64_t>(pipe.rng.below(
                static_cast<std::uint64_t>(span))) -
            spec.jitter.count());
        if (hold.count() < 0) hold = std::chrono::milliseconds(0);
      }
      release = now + hold;
      // Delivery stays FIFO even when jitter re-orders stamps.
      if (!pipe.queue.empty() && release < pipe.queue.back().release) {
        release = pipe.queue.back().release;
      }
    }
    pipe.queue.push_back(Pipe::Chunk{std::move(data), release});
  }
  pipe.queued_bytes += static_cast<std::size_t>(n);
  return true;
}

bool ChaosProxy::pump_write(Link& link, Pipe& pipe, Clock::time_point now) {
  const FaultSpec spec = link.snapshot();
  const bool bandwidth =
      spec.mode == FaultMode::kBandwidth && spec.bytes_per_sec > 0;
  // Bandwidth: refill the bucket, then cap this pass's writes.
  std::size_t allowance = static_cast<std::size_t>(-1);
  if (bandwidth) {
    const double rate = static_cast<double>(spec.bytes_per_sec);
    if (pipe.bw_last.time_since_epoch().count() == 0) pipe.bw_last = now;
    const double dt =
        std::chrono::duration_cast<std::chrono::duration<double>>(now -
                                                                  pipe.bw_last)
            .count();
    pipe.bw_last = now;
    // Burst bound: a tenth of a second of credit, so a stall does not bank
    // an unbounded catch-up blast.
    pipe.bw_tokens = std::min(pipe.bw_tokens + dt * rate, rate / 10.0 + 1.0);
    allowance = static_cast<std::size_t>(std::max(0.0, pipe.bw_tokens));
    if (allowance == 0) {
      pipe.bw_next = now + std::chrono::microseconds(static_cast<std::int64_t>(
                               (1.0 - pipe.bw_tokens) * 1e6 / rate) +
                           1);
      return true;
    }
  } else {
    pipe.bw_next = Clock::time_point{};
  }
  auto& counter = pipe.to_upstream ? link.bytes_up : link.bytes_down;
  std::size_t written_total = 0;
  while (!pipe.queue.empty() && written_total < allowance) {
    Pipe::Chunk& front = pipe.queue.front();
    if (front.release > now) break;
    const std::size_t want = std::min(front.data.size() - pipe.write_off,
                                      allowance - written_total);
    // Counted before the send and corrected after it, so a peer that
    // already holds the bytes never reads a count without them.
    counter.fetch_add(want, std::memory_order_relaxed);
    const ssize_t n = ::send(pipe.dst, front.data.data() + pipe.write_off,
                             want, MSG_NOSIGNAL | MSG_DONTWAIT);
    const std::size_t sent = n > 0 ? static_cast<std::size_t>(n) : 0;
    if (sent < want) counter.fetch_sub(want - sent, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      return false;  // peer reset / gone
    }
    pipe.write_off += static_cast<std::size_t>(n);
    written_total += static_cast<std::size_t>(n);
    pipe.queued_bytes -= static_cast<std::size_t>(n);
    if (pipe.write_off == front.data.size()) {
      pipe.queue.pop_front();
      pipe.write_off = 0;
    } else {
      break;  // kernel buffer full
    }
  }
  if (bandwidth) {
    if (written_total > 0) pipe.bw_tokens -= static_cast<double>(written_total);
    if (pipe.bw_tokens < 1.0 && !pipe.queue.empty()) {
      const double rate = static_cast<double>(spec.bytes_per_sec);
      pipe.bw_next = now + std::chrono::microseconds(static_cast<std::int64_t>(
                             (1.0 - pipe.bw_tokens) * 1e6 / rate) +
                         1);
    }
  }
  // A blackholed direction is SILENT: no bytes, and no FIN either -- a
  // partition does not deliver the peer's close.
  const bool fin_silent =
      spec.mode == FaultMode::kBlackhole ||
      (spec.mode == FaultMode::kHalfOpen && !pipe.to_upstream);
  if (!fin_silent && pipe.src_eof && pipe.queue.empty() && !pipe.wr_shut) {
    (void)::shutdown(pipe.dst, SHUT_WR);
    pipe.wr_shut = true;
  }
  return true;
}

void ChaosProxy::hard_reset(Link& link, Flow& flow) {
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ::setsockopt(flow.down.get(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::setsockopt(flow.up.get(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  link.rsts.fetch_add(1, std::memory_order_relaxed);
  flow.dead = true;
}

void ChaosProxy::relay_thread() {
  std::vector<pollfd> pfds;
  // Parallel map: pfds[i] belongs to what?  kind 0 = wake pipe, 1 =
  // listener (aux = link index), 2 = flow fd (aux = flow index).
  struct Ref {
    int kind;
    std::size_t aux;
  };
  std::vector<Ref> refs;

  while (!stopping_.load()) {
    const Clock::time_point now = Clock::now();

    // Apply regime changes that act on EXISTING flows (rst), drop dead
    // flows, propagate EOF.
    for (auto& flow : flows_) {
      if (flow->dead) continue;
      const FaultMode mode = flow->link->snapshot().mode;
      if (mode == FaultMode::kRst) {
        hard_reset(*flow->link, *flow);
      }
      // The flow is finished once BOTH FINs were propagated (wr_shut).  A
      // fin-silent direction (blackhole, half_open's response leg) never
      // sets wr_shut, so those flows linger -- closing them would leak a
      // FIN/RST through the "partition".
      if (flow->d2u.wr_shut && flow->u2d.wr_shut) {
        flow->dead = true;
      }
    }
    flows_.erase(std::remove_if(flows_.begin(), flows_.end(),
                                [](const std::unique_ptr<Flow>& f) {
                                  return f->dead;
                                }),
                 flows_.end());

    // Build this pass's poll set.
    pfds.clear();
    refs.clear();
    pfds.push_back(pollfd{wake_r_.get(), POLLIN, 0});
    refs.push_back(Ref{0, 0});
    for (std::size_t li = 0; li < links_.size(); ++li) {
      pfds.push_back(pollfd{links_[li]->listener.get(), POLLIN, 0});
      refs.push_back(Ref{1, li});
    }
    Clock::time_point next_due = now + std::chrono::milliseconds(100);
    for (std::size_t fi = 0; fi < flows_.size(); ++fi) {
      Flow& flow = *flows_[fi];
      for (Pipe* pipe : {&flow.d2u, &flow.u2d}) {
        short src_ev = 0;
        short dst_ev = 0;
        if (!pipe->src_eof && pipe->queued_bytes < config_.max_buffer) {
          src_ev = POLLIN;
        }
        if (!pipe->queue.empty()) {
          Clock::time_point due = pipe->queue.front().release;
          if (pipe->bw_next > due) due = pipe->bw_next;
          if (due <= now) {
            dst_ev = POLLOUT;
          } else if (due < next_due) {
            next_due = due;
          }
        }
        if (src_ev != 0) {
          pfds.push_back(pollfd{pipe->src, src_ev, 0});
          refs.push_back(Ref{2, fi});
        }
        if (dst_ev != 0) {
          pfds.push_back(pollfd{pipe->dst, dst_ev, 0});
          refs.push_back(Ref{2, fi});
        }
      }
    }
    const int timeout_ms = static_cast<int>(std::max<std::int64_t>(
        1, std::chrono::duration_cast<std::chrono::milliseconds>(next_due -
                                                                 now)
               .count()));
    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (stopping_.load()) break;
    if (ready < 0 && errno != EINTR) break;

    // Drain the wake pipe.
    if (pfds[0].revents != 0) {
      char sink[64];
      while (::read(wake_r_.get(), sink, sizeof(sink)) > 0) {
      }
    }
    // Accepts.
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      if (refs[i].kind == 1 && (pfds[i].revents & POLLIN) != 0) {
        accept_on(*links_[refs[i].aux]);
      }
    }
    // Flow work: rather than map events fd-by-fd, give every live flow a
    // read+write pass -- correctness comes from the nonblocking sockets,
    // and the poll set only decides when to wake up.
    const Clock::time_point wake_now = Clock::now();
    for (auto& flow : flows_) {
      if (flow->dead) continue;
      Link& link = *flow->link;
      bool ok = true;
      for (Pipe* pipe : {&flow->d2u, &flow->u2d}) {
        if (!pipe->src_eof && pipe->queued_bytes < config_.max_buffer) {
          ok = ok && pump_read(link, *pipe);
        }
        ok = ok && pump_write(link, *pipe, wake_now);
      }
      if (!ok) flow->dead = true;
    }
  }

  // Teardown: flows close with their Fds; listeners stay bound until the
  // proxy is destroyed (stop() is terminal for the relay).
  flows_.clear();
}

// ---------------------------------------------------------------------------
// The JSONL admin protocol (LineBackend).

ChaosProxy::Outcome ChaosProxy::on_line(std::string_view line, int line_no,
                                        Done done) {
  (void)done;
  Outcome out;
  svc::RequestLine read = svc::read_request(line, line_no, max_line_bytes());
  if (read.kind == svc::RequestLine::Kind::kSkip) return out;
  out.kind = Outcome::Kind::kRespond;
  if (read.kind == svc::RequestLine::Kind::kError) {
    out.response = std::move(read.error);
    return out;
  }
  const svc::Fields& fields = read.fields;
  const std::string& op = read.op;
  // Raw: every renderer escapes it once, through JsonWriter.
  const std::string id(fields.get("id"));
  if (op == "fault") {
    out.response = handle_fault(fields, id);
  } else if (op == "chaos_stats") {
    out.response = render_chaos_stats(id);
  } else if (op == "info") {
    out.response = render_info(id);
  } else {
    out.response =
        svc::error_record(id, line_no, svc::Status::kInvalidArgument,
                          "unknown chaosnet op \"" + op + "\"");
  }
  return out;
}

std::string ChaosProxy::control(std::string_view line, int line_no) {
  (void)line;
  // on_line never classifies kControl; answering here anyway keeps the
  // backend honest if a future server path calls it.
  return svc::error_record("", line_no, svc::Status::kInvalidArgument,
                           "chaosnet has no control ops");
}

std::string ChaosProxy::handle_fault(const svc::Fields& fields,
                                     const std::string& id) {
  const auto link_it = fields.find("link");
  if (link_it == fields.end() || link_it->second.empty()) {
    return svc::error_record(id, 0, svc::Status::kInvalidArgument,
                             "fault: missing \"link\"");
  }
  const auto mode_it = fields.find("mode");
  FaultMode mode = FaultMode::kNone;
  if (mode_it == fields.end() || !parse_fault_mode(mode_it->second, &mode)) {
    return svc::error_record(id, 0, svc::Status::kInvalidArgument,
                             "fault: unknown \"mode\"");
  }
  FaultSpec spec;
  spec.mode = mode;
  spec.latency = std::chrono::milliseconds(int_or(fields, "ms", 0));
  spec.jitter = std::chrono::milliseconds(int_or(fields, "jitter_ms", 0));
  spec.bytes_per_sec =
      static_cast<std::size_t>(int_or(fields, "bytes_per_sec", 0));
  spec.corrupt_prob = double_or(fields, "prob", 0.0);
  spec.trickle_bytes =
      static_cast<std::size_t>(int_or(fields, "trickle_bytes", 1));
  const std::int64_t interval = int_or(fields, "interval_ms", 20);
  spec.trickle_interval = std::chrono::milliseconds(interval);
  if ((mode == FaultMode::kLatency && spec.latency.count() <= 0) ||
      (mode == FaultMode::kBandwidth && spec.bytes_per_sec == 0) ||
      (mode == FaultMode::kCorrupt &&
       (spec.corrupt_prob <= 0.0 || spec.corrupt_prob > 1.0))) {
    return svc::error_record(id, 0, svc::Status::kInvalidArgument,
                             "fault: mode \"" +
                                 std::string(fault_mode_name(mode)) +
                                 "\" needs a positive parameter");
  }
  const std::string link(link_it->second);
  if (!set_fault(link, spec)) {
    return svc::error_record(id, 0, svc::Status::kInvalidArgument,
                             "fault: unknown link \"" + link + "\"");
  }
  svc::JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", "fault")
      .field("status", svc::to_json_token(svc::Status::kOk))
      .field("link", link_it->second)
      .field("mode", fault_mode_name(mode));
  return w.str();
}

std::string ChaosProxy::render_chaos_stats(const std::string& id) {
  svc::JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", "chaos_stats")
      .field("status", svc::to_json_token(svc::Status::kOk))
      .field("links", static_cast<std::uint64_t>(links_.size()))
      .field("seed", config_.seed);
  for (const auto& link : links_) {
    const std::string prefix = "link_" + key_safe(link->id) + "_";
    const LinkStats s = link_stats(link->id);
    w.field(prefix + "mode", fault_mode_name(link->snapshot().mode))
        .field(prefix + "port", static_cast<std::uint64_t>(link->bound_port))
        .field(prefix + "accepted", s.accepted)
        .field(prefix + "upstream_failures", s.upstream_failures)
        .field(prefix + "bytes_up", s.bytes_up)
        .field(prefix + "bytes_down", s.bytes_down)
        .field(prefix + "corrupted_bytes", s.corrupted_bytes)
        .field(prefix + "dropped_bytes", s.dropped_bytes)
        .field(prefix + "rsts", s.rsts);
  }
  return w.str();
}

std::string ChaosProxy::render_info(const std::string& id) {
  svc::JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", "info")
      .field("status", svc::to_json_token(svc::Status::kOk))
      .field("version", kVersion)
      .field("role", "chaosnet")
      .field("links", static_cast<std::uint64_t>(links_.size()))
      .field("seed", config_.seed);
  return w.str();
}

}  // namespace wfc::net
