#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>
#include <system_error>
#include <vector>

#include "wf/counter.hpp"

namespace wfc::net {

namespace {

constexpr int kMaxEvents = 64;
/// Stop slurping one socket after this much in a single readable event so a
/// blasting client cannot starve its loop-mates (level-triggered epoll
/// re-arms for the rest).
constexpr std::size_t kReadBurstBytes = 1u << 20;

}  // namespace

/// The wire counters behind Server::Stats.  Connection-lifecycle counts are
/// plain atomics (accept/close are rare); the per-line / per-byte hot
/// counters are sharded wf::Counters so io loops never contend on one cache
/// line.
struct Server::Counters {
  std::atomic<std::uint64_t> accepted{0}, closed{0}, dropped{0}, active{0},
      oversized_lines{0};
  wf::Counter requests, responses, bytes_read, bytes_written;

  [[nodiscard]] Stats snapshot() const {
    Stats s;
    s.accepted = accepted.load(std::memory_order_relaxed);
    s.closed = closed.load(std::memory_order_relaxed);
    s.dropped = dropped.load(std::memory_order_relaxed);
    s.active = active.load(std::memory_order_relaxed);
    s.requests = requests.value();
    s.responses = responses.value();
    s.bytes_read = bytes_read.value();
    s.bytes_written = bytes_written.value();
    s.oversized_lines = oversized_lines.load(std::memory_order_relaxed);
    return s;
  }
};

/// One event loop: its own epoll instance, an eventfd wakeup, and the
/// connections it owns.  `conns` is loop-thread-only; `mu` guards the
/// cross-thread handoff lists (freshly accepted fds, connections with
/// completed responses waiting in their outbox).
struct Server::Loop {
  Fd epoll;
  Fd wake;  // eventfd
  std::map<int, std::shared_ptr<Conn>> conns;
  std::atomic<bool> stop{false};

  std::mutex mu;
  std::vector<Fd> incoming;
  std::vector<std::weak_ptr<Conn>> dirty;

  void kick() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wake.get(), &one, sizeof(one));
  }
};

/// Per-connection state.  Everything except `mu`/`outbox` is touched only
/// by the owning loop thread.
struct Server::Conn {
  Fd sock;
  std::shared_ptr<Loop> loop;

  std::string rbuf;
  std::size_t rpos = 0;      // start of unconsumed input
  std::size_t scan_pos = 0;  // resume point for the newline scan (>= rpos)
  std::string wbuf;
  std::size_t wpos = 0;  // bytes of wbuf already sent
  std::size_t inflight = 0;
  int line_no = 0;
  bool discard = false;      // dropping an oversized line up to its newline
  bool read_closed = false;  // EOF seen, or reads retired by drain()
  bool closed = false;
  std::uint32_t events = 0;  // current epoll interest mask
  /// A control line received while queries were inflight; answered (via
  /// LineBackend::control) as soon as this connection's inflight count
  /// reaches zero.
  struct PendingControl {
    std::string line;
    int line_no = 0;
  };
  std::optional<PendingControl> pending_control;
  std::chrono::steady_clock::time_point last_activity;
  obs::TraceContext trace;  // one row per connection in the Chrome trace

  std::mutex mu;
  std::vector<std::string> outbox;  // rendered response lines, no '\n'

  [[nodiscard]] std::size_t unsent_bytes() const {
    return wbuf.size() - wpos;
  }
};

Server::Server(svc::QueryService& service, ServerConfig config)
    : config_(std::move(config)),
      owned_backend_(
          std::make_unique<ServiceBackend>(service, config_.handler)),
      backend_(owned_backend_.get()),
      counters_(std::make_shared<Counters>()) {}

Server::Server(LineBackend& backend, ServerConfig config)
    : config_(std::move(config)),
      backend_(&backend),
      counters_(std::make_shared<Counters>()) {}

Server::~Server() { stop(); }

void Server::init_metrics() {
  obs::Observer* observer = backend_->observer();
  if (observer == nullptr || !observer->enabled()) return;
  obs::MetricsRegistry& reg = observer->metrics();
  // Views of Stats.  They hold the counters, not the Server, so they stay
  // readable after the Server is gone.
  const auto view = [c = counters_](std::uint64_t Stats::*field) {
    return [c, field] { return c->snapshot().*field; };
  };
  reg.counter_view("wfc_net_accepted_total", "", "TCP connections accepted",
                   view(&Stats::accepted));
  reg.counter_view("wfc_net_closed_total", "",
                   "TCP connections closed (any reason)",
                   view(&Stats::closed));
  reg.counter_view(
      "wfc_net_dropped_total", "",
      "Connections force-closed (socket error, idle timeout, drain cap)",
      view(&Stats::dropped));
  reg.counter_view("wfc_net_requests_total", "",
                   "Request lines submitted as queries",
                   view(&Stats::requests));
  reg.counter_view("wfc_net_responses_total", "",
                   "Response lines queued to the wire",
                   view(&Stats::responses));
  reg.counter_view("wfc_net_bytes_read_total", "",
                   "Bytes read off client sockets", view(&Stats::bytes_read));
  reg.counter_view("wfc_net_bytes_written_total", "",
                   "Bytes written to client sockets",
                   view(&Stats::bytes_written));
  reg.gauge_view("wfc_net_active_connections", "",
                 "Currently open client connections", view(&Stats::active));
  rtt_us_ = &reg.histogram(
      "wfc_net_rtt_us", obs::latency_bounds_us(), "",
      "Wire RTT per request: line parsed to response rendered, microseconds");
}

void Server::start() {
  if (started_.exchange(true)) return;
  init_metrics();
  listener_ = listen_tcp(config_.listen, &port_);
  const int n_loops = std::max(1, config_.io_threads);
  for (int i = 0; i < n_loops; ++i) {
    auto loop = std::make_shared<Loop>();
    loop->epoll = Fd(::epoll_create1(EPOLL_CLOEXEC));
    if (!loop->epoll.valid()) {
      throw std::system_error(errno, std::generic_category(),
                              "epoll_create1");
    }
    loop->wake = Fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    if (!loop->wake.valid()) {
      throw std::system_error(errno, std::generic_category(), "eventfd");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake.get();
    if (::epoll_ctl(loop->epoll.get(), EPOLL_CTL_ADD, loop->wake.get(),
                    &ev) != 0) {
      throw std::system_error(errno, std::generic_category(), "epoll_ctl");
    }
    loops_.push_back(std::move(loop));
  }
  // The listener lives on loop 0 only.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_.get();
  if (::epoll_ctl(loops_[0]->epoll.get(), EPOLL_CTL_ADD, listener_.get(),
                  &ev) != 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_ctl");
  }
  for (int i = 0; i < n_loops; ++i) {
    std::shared_ptr<Loop> loop = loops_[static_cast<std::size_t>(i)];
    threads_.emplace_back(
        [this, loop, acceptor = i == 0] { loop_thread(loop, acceptor); });
  }
}

void Server::stop() {
  if (!started_.load()) return;
  if (!stopping_.exchange(true)) {
    for (const std::shared_ptr<Loop>& loop : loops_) {
      loop->stop.store(true, std::memory_order_relaxed);
      loop->kick();
    }
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  // Loop threads closed their connections on exit; late query completions
  // still holding the Loop shared_ptrs only touch the outbox mutex and the
  // (still open until Loop destruction) eventfd, both safe.
  listener_.reset();
}

void Server::drain() {
  if (!started_.load() || stopping_.load()) return;
  drain_deadline_ = std::chrono::steady_clock::now() + config_.drain_timeout;
  draining_.store(true, std::memory_order_release);
  for (const std::shared_ptr<Loop>& loop : loops_) loop->kick();
  while (counters_->active.load(std::memory_order_relaxed) != 0 &&
         std::chrono::steady_clock::now() <
             drain_deadline_ + std::chrono::milliseconds(200)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop();
}

Server::Stats Server::stats() const { return counters_->snapshot(); }

void Server::loop_thread(const std::shared_ptr<Loop>& loop,
                         bool is_acceptor) {
  bool listener_retired = false;
  epoll_event events[kMaxEvents];
  while (!loop->stop.load(std::memory_order_relaxed)) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && is_acceptor && !listener_retired) {
      // Stop accepting; established connections keep being served.
      (void)::epoll_ctl(loop->epoll.get(), EPOLL_CTL_DEL, listener_.get(),
                        nullptr);
      listener_retired = true;
    }
    int timeout_ms = -1;
    if (draining) {
      timeout_ms = 10;
    } else if (config_.idle_timeout.count() > 0) {
      timeout_ms = static_cast<int>(
          std::min<std::int64_t>(50, config_.idle_timeout.count()));
    }
    const int n =
        ::epoll_wait(loop->epoll.get(), events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bool wake_fired = false;
    bool accept_ready = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop->wake.get()) {
        std::uint64_t drainv;
        while (::read(loop->wake.get(), &drainv, sizeof(drainv)) > 0) {
        }
        wake_fired = true;
        continue;
      }
      if (is_acceptor && fd == listener_.get()) {
        accept_ready = true;
        continue;
      }
      auto it = loop->conns.find(fd);
      if (it == loop->conns.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        close_conn(loop, conn, /*forced=*/true);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) handle_readable(loop, conn);
      if (!conn->closed && (events[i].events & EPOLLOUT) != 0) {
        flush_writes(loop, conn);
        if (!conn->closed) update_interest(loop, conn);
      }
    }
    // Accepting and completion handling run only after every connection
    // event in the batch has dispatched: handle_dirty can close a
    // connection and adopt_incoming can register a new one that reuses the
    // same fd, which would otherwise let this batch's remaining events for
    // the dead connection dispatch to the new one.
    if (accept_ready) handle_accept(loop);
    if (wake_fired) {
      adopt_incoming(loop);
      handle_dirty(loop);
    }
    if (config_.idle_timeout.count() > 0) sweep_idle(loop);
    if (draining) {
      const bool past_deadline =
          std::chrono::steady_clock::now() >= drain_deadline_;
      std::vector<std::shared_ptr<Conn>> conns;
      conns.reserve(loop->conns.size());
      for (const auto& [cfd, conn] : loop->conns) conns.push_back(conn);
      for (const std::shared_ptr<Conn>& conn : conns) {
        conn->read_closed = true;
        if (past_deadline || drained(*conn)) {
          close_conn(loop, conn, /*forced=*/past_deadline);
        } else {
          update_interest(loop, conn);
        }
      }
    }
  }
  // Loop exit: release every connection this loop still owns.
  std::vector<std::shared_ptr<Conn>> conns;
  conns.reserve(loop->conns.size());
  for (const auto& [cfd, conn] : loop->conns) conns.push_back(conn);
  for (const std::shared_ptr<Conn>& conn : conns) {
    close_conn(loop, conn, /*forced=*/true);
  }
}

bool Server::drained(const Conn& conn) {
  // inflight only reaches zero after every completed response line has been
  // moved from the outbox into wbuf, so these checks suffice.
  return conn.inflight == 0 && !conn.pending_control &&
         conn.unsent_bytes() == 0;
}

void Server::handle_accept(const std::shared_ptr<Loop>& loop) {
  while (true) {
    const int cfd = ::accept4(listener_.get(), nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // transient resource failure; the listener stays armed
    }
    set_nodelay(cfd);
    counters_->accepted.fetch_add(1, std::memory_order_relaxed);
    const std::size_t target =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    const std::shared_ptr<Loop>& owner = loops_[target];
    {
      std::lock_guard<std::mutex> lock(owner->mu);
      owner->incoming.emplace_back(cfd);
    }
    if (owner.get() == loop.get()) {
      adopt_incoming(loop);
    } else {
      owner->kick();
    }
  }
}

void Server::adopt_incoming(const std::shared_ptr<Loop>& loop) {
  std::vector<Fd> incoming;
  {
    std::lock_guard<std::mutex> lock(loop->mu);
    incoming.swap(loop->incoming);
  }
  for (Fd& fd : incoming) {
    if (draining_.load(std::memory_order_relaxed) ||
        loop->stop.load(std::memory_order_relaxed)) {
      // Arrived after the shutdown decision: never served.
      counters_->closed.fetch_add(1, std::memory_order_relaxed);
      continue;  // Fd destructor closes it
    }
    auto conn = std::make_shared<Conn>();
    const int cfd = fd.get();
    if (config_.sndbuf_bytes > 0) {
      (void)::setsockopt(cfd, SOL_SOCKET, SO_SNDBUF, &config_.sndbuf_bytes,
                         sizeof(config_.sndbuf_bytes));
    }
    conn->sock = std::move(fd);
    conn->loop = loop;
    conn->last_activity = std::chrono::steady_clock::now();
    if (obs::Observer* observer = backend_->observer(); observer != nullptr) {
      conn->trace = observer->begin_trace();
    }
    conn->events = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = cfd;
    if (::epoll_ctl(loop->epoll.get(), EPOLL_CTL_ADD, cfd, &ev) != 0) {
      counters_->closed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    loop->conns.emplace(cfd, std::move(conn));
    counters_->active.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::handle_dirty(const std::shared_ptr<Loop>& loop) {
  std::vector<std::weak_ptr<Conn>> dirty;
  {
    std::lock_guard<std::mutex> lock(loop->mu);
    dirty.swap(loop->dirty);
  }
  for (const std::weak_ptr<Conn>& weak : dirty) {
    std::shared_ptr<Conn> conn = weak.lock();
    if (!conn || conn->closed) continue;
    drain_conn(loop, conn);
  }
}

void Server::drain_conn(const std::shared_ptr<Loop>& loop,
                        const std::shared_ptr<Conn>& conn) {
  std::vector<std::string> lines;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    lines.swap(conn->outbox);
  }
  for (std::string& line : lines) {
    conn->wbuf += line;
    conn->wbuf += '\n';
    counters_->responses.inc();
  }
  conn->inflight -= lines.size();
  bool queued = !lines.empty();
  if (conn->pending_control && conn->inflight == 0) {
    Conn::PendingControl control = std::move(*conn->pending_control);
    conn->pending_control.reset();
    conn->wbuf += backend_->control(control.line, control.line_no);
    conn->wbuf += '\n';
    counters_->responses.inc();
    queued = true;
  }
  // Queuing output counts as activity: the idle clock then measures the
  // CLIENT's failure to read these responses, not our own compute time.
  if (queued) conn->last_activity = std::chrono::steady_clock::now();
  // Parsing may have paused on the inflight or write-buffer caps.
  process_rbuf(loop, conn);
  if (conn->closed) return;
  flush_writes(loop, conn);
  if (conn->closed) return;
  if (conn->read_closed && drained(*conn)) {
    close_conn(loop, conn, /*forced=*/false);
    return;
  }
  update_interest(loop, conn);
}

void Server::handle_readable(const std::shared_ptr<Loop>& loop,
                             const std::shared_ptr<Conn>& conn) {
  char buf[65536];
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t got = 0;
  bool eof = false;
  while (got < kReadBurstBytes) {
    const ssize_t n = ::recv(conn->sock.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      conn->rbuf.append(buf, static_cast<std::size_t>(n));
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(loop, conn, /*forced=*/true);
    return;
  }
  if (got > 0) {
    counters_->bytes_read.inc(got);
    conn->last_activity = std::chrono::steady_clock::now();
    conn->trace.complete(obs::SpanKind::kNetRead, t0, conn->last_activity,
                         got);
  }
  if (eof) conn->read_closed = true;
  // drain_conn (rather than process_rbuf + flush) so responses that
  // completed INLINE during parsing -- memo hits, error records, shed
  // queries -- reach the write buffer in this same pass instead of waiting
  // for their eventfd round-trip.
  drain_conn(loop, conn);
}

void Server::process_rbuf(const std::shared_ptr<Loop>& loop,
                          const std::shared_ptr<Conn>& conn) {
  std::string& rb = conn->rbuf;
  while (!conn->closed) {
    if (conn->discard) {
      // Dropping the rest of an oversized line (its error record is already
      // queued) up to and including the next newline.
      const std::size_t nl = rb.find('\n', conn->rpos);
      if (nl == std::string::npos) {
        rb.resize(conn->rpos);
        conn->scan_pos = conn->rpos;
        break;
      }
      conn->rpos = nl + 1;
      conn->scan_pos = conn->rpos;
      conn->discard = false;
      continue;
    }
    if (conn->pending_control ||
        conn->inflight >= config_.max_inflight_per_conn ||
        conn->unsent_bytes() >= config_.max_write_buffer) {
      break;  // backpressure: update_interest disarms EPOLLIN
    }
    const std::size_t from = std::max(conn->rpos, conn->scan_pos);
    const std::size_t nl = rb.find('\n', from);
    if (nl == std::string::npos) {
      conn->scan_pos = rb.size();
      const std::size_t cap = backend_->max_line_bytes();
      const std::size_t partial = rb.size() - conn->rpos;
      if (cap != 0 && partial > cap) {
        // Cannot keep buffering while waiting for this line's newline:
        // reject it now (the backend renders the over-cap error record) and
        // discard the remainder as it streams in.
        handle_line(loop, conn,
                    std::string_view(rb.data() + conn->rpos, partial));
        rb.resize(conn->rpos);
        conn->scan_pos = conn->rpos;
        conn->discard = true;
        continue;
      }
      if (conn->read_closed && partial > 0) {
        // Mid-line EOF: the final unterminated line is still a request.
        const std::string_view line(rb.data() + conn->rpos, partial);
        conn->rpos = rb.size();
        conn->scan_pos = rb.size();
        handle_line(loop, conn, line);
        continue;
      }
      break;
    }
    const std::string_view line(rb.data() + conn->rpos, nl - conn->rpos);
    conn->rpos = nl + 1;
    conn->scan_pos = conn->rpos;
    handle_line(loop, conn, line);
  }
  if (conn->rpos > 0) {
    rb.erase(0, conn->rpos);
    conn->scan_pos -= conn->rpos;
    conn->rpos = 0;
  }
}

void Server::handle_line(const std::shared_ptr<Loop>& /*loop*/,
                         const std::shared_ptr<Conn>& conn,
                         std::string_view line) {
  const int line_no = ++conn->line_no;
  const auto start = std::chrono::steady_clock::now();
  std::weak_ptr<Conn> weak = conn;
  std::shared_ptr<Loop> owner = conn->loop;
  obs::Histogram* rtt = rtt_us_;
  LineBackend::Outcome outcome = backend_->on_line(
      line, line_no,
      [weak = std::move(weak), owner = std::move(owner), start,
       rtt](std::string&& rendered) {
        // Runs on a service worker, a router upstream-reader thread, or
        // inline on the loop thread (memo hits / sheds): hand the line to
        // the owning loop.  A connection that died first simply drops the
        // response.
        if (rtt != nullptr) {
          rtt->observe(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count()));
        }
        std::shared_ptr<Conn> c = weak.lock();
        if (!c) return;
        {
          std::lock_guard<std::mutex> lock(c->mu);
          c->outbox.push_back(std::move(rendered));
        }
        {
          std::lock_guard<std::mutex> lock(owner->mu);
          owner->dirty.push_back(c);
        }
        owner->kick();
      });
  using Kind = LineBackend::Outcome::Kind;
  switch (outcome.kind) {
    case Kind::kSkip:
      return;
    case Kind::kRespond: {
      const std::size_t cap = backend_->max_line_bytes();
      if (cap != 0 && line.size() > cap) {
        counters_->oversized_lines.fetch_add(1, std::memory_order_relaxed);
      }
      conn->wbuf += outcome.response;
      conn->wbuf += '\n';
      counters_->responses.inc();
      return;
    }
    case Kind::kControl:
      if (conn->inflight == 0) {
        conn->wbuf += backend_->control(line, line_no);
        conn->wbuf += '\n';
        counters_->responses.inc();
      } else {
        // Answer once this connection's earlier queries are all terminal,
        // so the promised counters reconcile; parsing pauses until then.
        conn->pending_control = Conn::PendingControl{std::string(line),
                                                     line_no};
      }
      return;
    case Kind::kSubmitted:
      ++conn->inflight;
      counters_->requests.inc();
      return;
  }
}

void Server::flush_writes(const std::shared_ptr<Loop>& loop,
                          const std::shared_ptr<Conn>& conn) {
  if (conn->closed || conn->unsent_bytes() == 0) return;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t wrote = 0;
  while (conn->wpos < conn->wbuf.size()) {
    const ssize_t n =
        ::send(conn->sock.get(), conn->wbuf.data() + conn->wpos,
               conn->wbuf.size() - conn->wpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->wpos += static_cast<std::size_t>(n);
      wrote += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_conn(loop, conn, /*forced=*/true);
    return;
  }
  if (wrote > 0) {
    counters_->bytes_written.inc(wrote);
    conn->last_activity = std::chrono::steady_clock::now();
    conn->trace.complete(obs::SpanKind::kNetWrite, t0, conn->last_activity,
                         wrote);
  }
  if (conn->wpos == conn->wbuf.size()) {
    conn->wbuf.clear();
    conn->wpos = 0;
  } else if (conn->wpos > (config_.max_write_buffer / 2)) {
    conn->wbuf.erase(0, conn->wpos);
    conn->wpos = 0;
  }
}

void Server::update_interest(const std::shared_ptr<Loop>& loop,
                             const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  // Discard mode must keep reading to find the oversized line's newline;
  // otherwise reading pauses under any backpressure condition.
  const bool paused = conn->pending_control ||
                      conn->inflight >= config_.max_inflight_per_conn ||
                      conn->unsent_bytes() >= config_.max_write_buffer;
  const bool want_read =
      !conn->read_closed && (conn->discard || !paused);
  const bool want_write = conn->unsent_bytes() > 0;
  const std::uint32_t events = (want_read ? static_cast<std::uint32_t>(
                                                EPOLLIN)
                                          : 0u) |
                               (want_write ? static_cast<std::uint32_t>(
                                                 EPOLLOUT)
                                           : 0u);
  if (events == conn->events) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = conn->sock.get();
  if (::epoll_ctl(loop->epoll.get(), EPOLL_CTL_MOD, conn->sock.get(), &ev) ==
      0) {
    conn->events = events;
  }
}

void Server::close_conn(const std::shared_ptr<Loop>& loop,
                        const std::shared_ptr<Conn>& conn, bool forced) {
  if (conn->closed) return;
  conn->closed = true;
  (void)::epoll_ctl(loop->epoll.get(), EPOLL_CTL_DEL, conn->sock.get(),
                    nullptr);
  loop->conns.erase(conn->sock.get());
  conn->sock.reset();
  counters_->closed.fetch_add(1, std::memory_order_relaxed);
  if (forced) {
    counters_->dropped.fetch_add(1, std::memory_order_relaxed);
  }
  counters_->active.fetch_sub(1, std::memory_order_relaxed);
}

void Server::sweep_idle(const std::shared_ptr<Loop>& loop) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<Conn>> victims;
  for (const auto& [fd, conn] : loop->conns) {
    // A connection waiting on its own long-running queries is not idle --
    // the silence is ours, not the client's.  Unsent response bytes do NOT
    // hold a connection open, though: last_activity advances whenever
    // responses are queued or the socket accepts bytes, so a client that
    // fills its window and stops reading for a full idle period is dropped
    // instead of pinning its write buffer forever (EPOLLOUT never fires
    // for a peer that stops reading).
    if (conn->inflight == 0 && !conn->pending_control &&
        now - conn->last_activity >= config_.idle_timeout) {
      victims.push_back(conn);
    }
  }
  for (const std::shared_ptr<Conn>& conn : victims) {
    close_conn(loop, conn, /*forced=*/true);
  }
}

}  // namespace wfc::net
