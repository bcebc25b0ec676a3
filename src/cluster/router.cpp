#include "cluster/router.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <future>
#include <map>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "common/version.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/jsonl.hpp"

namespace wfc::cluster {

namespace {

using Clock = std::chrono::steady_clock;

/// Total sends per request (first dispatch + re-dispatches; hedges not
/// counted) before it resolves overloaded.
constexpr int kMaxAttempts = 3;

/// Consecutive failed probes that mark a shard Suspect (probe_down_after
/// mark it Down).
constexpr int kProbeSuspectAfter = 1;

/// Upstream loop bounds: epoll batch, bytes read from one socket per
/// event, and the longest response line a shard may send.
constexpr int kMaxEvents = 64;
constexpr std::size_t kReadBurstBytes = 1u << 20;
constexpr std::size_t kMaxResponseBytes = 8u << 20;

/// A small number per calling thread.  Each thread sends on connection
/// lane % pool size, so the lines one front io-loop pass routes to a shard
/// share a connection, and leave in one send.
std::size_t thread_lane() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t lane =
      next.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

/// The sequence number in a router id "r<digits>"; 0 (never issued) for
/// any other id.
std::uint64_t parse_seq(std::string_view id) {
  if (id.size() < 2 || id[0] != 'r') return 0;
  std::uint64_t seq = 0;
  const char* end = id.data() + id.size();
  const auto [ptr, ec] = std::from_chars(id.data() + 1, end, seq);
  return ec == std::errc() && ptr == end ? seq : 0;
}

/// Wakes an event loop through its eventfd.
void kick(const net::Fd& eventfd) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(eventfd.get(), &one, sizeof(one));
}

std::string_view trim_space(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// The membership ops only the router implements; like svc::is_control_op
/// ops they take the control path.
bool is_cluster_op(std::string_view op) {
  return op == "cluster_stats" || op == "cluster_add" ||
         op == "cluster_remove" || op == "cluster_drain";
}

/// splitmix64 -- spreads the request sequence uniformly for the random-
/// routing control arm of the locality experiment.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Compound-key segment for per-shard cluster_stats fields: flat JSON has
/// no nesting, so shard ids become key prefixes and must stay [\w] only.
std::string key_safe(const std::string& id) {
  std::string out = id;
  for (char& c : out) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_') {
      c = '_';
    }
  }
  return out;
}

}  // namespace

std::uint64_t routing_key(const svc::Fields& fields) {
  // The canonical (task, model) identity: the fields RequestHandler interns
  // tasks by plus the model, so one fingerprint == one warm shard cache of
  // that model's restricted towers.  An explicit wait_free is dropped to
  // hash identically to omitting the field (the handler normalizes the
  // same way).  The key is the FNV-1a of the "k=v;" bytes, fed field by
  // field.
  std::uint64_t h = kFnv64Offset;
  for (const auto& [k, v] : fields) {
    if (svc::is_non_task_field(k) || (k == "model" && v == "wait_free")) {
      continue;
    }
    h = fnv1a64(";", fnv1a64(v, fnv1a64("=", fnv1a64(k, h))));
  }
  return h;
}

// ---------------------------------------------------------------------------
// TokenBucket.

void TokenBucket::configure(double per_sec, int burst) {
  std::lock_guard<std::mutex> lk(mu_);
  per_sec_ = per_sec;
  burst_ = static_cast<double>(burst);
  tokens_ = burst_;
  last_ = std::chrono::steady_clock::now();
}

bool TokenBucket::try_take() {
  std::lock_guard<std::mutex> lk(mu_);
  if (burst_ <= 0) return true;
  const auto now = std::chrono::steady_clock::now();
  const double dt =
      std::chrono::duration_cast<std::chrono::duration<double>>(now - last_)
          .count();
  last_ = now;
  tokens_ = std::min(burst_, tokens_ + per_sec_ * dt);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

// ---------------------------------------------------------------------------
// Internal structures.

/// One pooled nonblocking connection to a shard.
struct Router::UpstreamConn {
  Shard* shard = nullptr;  // the owner, which holds this connection
  int index = 0;

  /// Guards what senders touch: the socket, its generation and the
  /// outbound queue.  Only the upstream loop changes `sock`, so the loop
  /// reads it unlocked.
  std::mutex mu;
  net::Fd sock;  // invalid while down
  bool up = false;  // connected and taking lines
  std::uint64_t generation = 0;
  std::string out;  // queued request lines, each with its '\n'
  std::size_t out_pos = 0;  // bytes of `out` already sent
  bool flush_queued = false;  // a flush will run
  bool writing = false;  // the loop sends `out` as the socket drains

  // Upstream loop only.
  enum class Phase { kIdle, kConnecting, kConnected };
  Phase phase = Phase::kIdle;
  std::string rbuf;
  /// kConnecting: the connect bound; kIdle: the next connect attempt;
  /// kConnected: the stall bound while `writing`.  max() = none.
  Clock::time_point deadline = Clock::time_point::max();
  std::chrono::milliseconds backoff{0};

  /// Sends as much of `out` as the socket takes; false on a socket error.
  /// Caller holds `mu`.
  bool send_queued() {
    while (out_pos < out.size()) {
      const ssize_t n = ::send(sock.get(), out.data() + out_pos,
                               out.size() - out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    if (out_pos == out.size()) {
      out.clear();
      out_pos = 0;
    } else if (out_pos > out.size() / 2) {
      out.erase(0, out_pos);
      out_pos = 0;
    }
    return true;
  }
};

struct Router::Shard {
  std::string id;
  net::Endpoint addr;
  std::vector<std::unique_ptr<UpstreamConn>> conns;  // fixed at creation
  std::atomic<int> up_conns{0};
  std::atomic<bool> draining{false};
  /// Soft-backoff window (steady microsecond epoch) set by upstream
  /// overloaded / resource_exhausted envelopes carrying retry_after_ms.
  std::atomic<std::int64_t> backoff_until_us{0};
  std::atomic<std::uint64_t> routed{0};   // dispatches + re-dispatches
  std::atomic<std::uint64_t> hedges{0};   // hedge copies sent here
  std::atomic<std::uint64_t> answered{0};  // responses that won resolution
  std::atomic<std::uint64_t> connect_failures{0};
  /// Probe-driven health: 0 up / 1 suspect / 2 down.  Orthogonal to the
  /// connection breaker -- a blackholed shard keeps its sockets "up" while
  /// the probes walk it down.
  std::atomic<int> health{0};
  std::atomic<int> probe_streak{0};  // consecutive probe failures
  TokenBucket retry_budget;          // per-shard retry charge

  [[nodiscard]] bool in_backoff() const {
    const std::int64_t until = backoff_until_us.load(std::memory_order_relaxed);
    if (until == 0) return false;
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now().time_since_epoch())
               .count() < until;
  }
};

struct Router::Pending {
  std::uint64_t seq = 0;  // the upstream id is "r<seq>"
  std::string client_id;  // raw (unescaped) client id
  bool had_id = false;
  int line_no = 0;
  std::string wire;  // rid-stamped request line, reused by hedge/re-dispatch
  /// Deadline propagation: the client's timeout_ms and the wire line with
  /// that field stripped, so wire_now() can re-stamp the REMAINING budget
  /// on hedges and re-dispatches.  timeout_ms == 0: no deadline to carry.
  std::int64_t timeout_ms = 0;
  std::string wire_base;
  std::uint64_t key = 0;
  Done done;
  Clock::time_point submitted{};
  Clock::time_point hedge_at = Clock::time_point::max();
  Clock::time_point deadline = Clock::time_point::max();
  std::atomic<bool> resolved{false};

  struct Send {
    const void* conn = nullptr;  // identity only, never dereferenced
    std::uint64_t generation = 0;
    std::string shard;
  };
  std::mutex mu;  // guards everything below
  std::vector<Send> sends;
  std::string primary_shard;  // latest dispatch target (hedges excluded)
  int attempts = 0;           // dispatches, not hedges
  bool hedged = false;        // one hedge per request
};

// ---------------------------------------------------------------------------
// Construction / lifecycle.

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      observer_(config_.obs),
      started_(Clock::now()),
      ring_(config_.vnodes) {
  retry_budget_.configure(config_.retry_budget_per_sec,
                          config_.retry_budget_burst);
}

Router::~Router() { stop(); }

void Router::start() {
  if (started_flag_.exchange(true)) return;
  epoll_ = net::Fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) {
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
  }
  wake_ = net::Fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wake_.valid()) {
    throw std::system_error(errno, std::generic_category(), "eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // the eventfd; connections carry their address
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_.get(), &ev) != 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_ctl");
  }
  std::vector<std::shared_ptr<Shard>> initial;
  {
    std::unique_lock<std::shared_mutex> ml(membership_mu_);
    for (const ShardSpec& spec : config_.shards) {
      if (shards_.count(spec.id) != 0) {
        throw std::invalid_argument("duplicate shard id \"" + spec.id + "\"");
      }
      initial.push_back(make_shard(spec));
      shards_.emplace(spec.id, initial.back());
      ring_.add(spec.id);
    }
  }
  // Connecting starts here, before the loop thread exists: a connection
  // counts as up the moment its connect completes.
  for (const auto& shard : initial) attach(shard);
  io_ = std::thread([this] { io_loop(); });
  maintenance_ = std::thread([this] { maintenance_thread(); });
  if (config_.probe_interval.count() > 0) {
    prober_ = std::thread([this] { probe_thread(); });
  }
}

void Router::stop() {
  if (!started_flag_.load() || stopping_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> sl(stop_mu_);
  }
  stop_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();
  if (prober_.joinable()) prober_.join();
  {
    std::unique_lock<std::shared_mutex> ml(membership_mu_);
    shards_.clear();
    ring_ = Ring(config_.vnodes);
  }
  {
    std::lock_guard<std::mutex> pl(post_mu_);
    io_quit_ = true;
  }
  kick(wake_);
  if (io_.joinable()) io_.join();
  // The loop has exited, so its connections are this thread's.  Tearing
  // them down fails what rode on them: no shard is left to take it.
  for (const auto& shard : attached_) {
    for (const auto& conn : shard->conns) teardown(*conn, /*reconnect=*/false);
  }
  attached_.clear();

  // Whatever the conn-death sweeps could not re-home answers overloaded so
  // every accepted Done fires exactly once even across shutdown.
  std::vector<std::uint64_t> leftover;
  {
    std::lock_guard<std::mutex> pl(pending_mu_);
    leftover.reserve(pending_.size());
    for (const auto& [seq, p] : pending_) leftover.push_back(seq);
  }
  for (const std::uint64_t seq : leftover) {
    if (auto p = take_pending(seq, Cause::kFailed)) {
      resolve_error(p, svc::Status::kOverloaded, "router shutting down", true);
    }
  }
}

// ---------------------------------------------------------------------------
// LineBackend: the submit path.

net::LineBackend::Outcome Router::on_line(std::string_view line, int line_no,
                                          Done done) {
  Outcome out;
  svc::RequestLine read = svc::read_request(line, line_no,
                                            config_.max_line_bytes);
  switch (read.kind) {
    case svc::RequestLine::Kind::kSkip:
      return out;
    case svc::RequestLine::Kind::kError:
      out.kind = Outcome::Kind::kRespond;
      out.response = std::move(read.error);
      return out;
    case svc::RequestLine::Kind::kRequest:
      break;
  }
  if (svc::is_control_op(read.op) || is_cluster_op(read.op)) {
    out.kind = Outcome::Kind::kControl;
    return out;
  }
  // Everything else -- solves, checks, unknown and missing ops -- is the
  // shards' business; forward and relay their verdict verbatim.
  return submit(read.fields, read.text, line_no, std::move(done));
}

net::LineBackend::Outcome Router::submit(const svc::Fields& fields,
                                         std::string_view line, int line_no,
                                         Done done) {
  Outcome out;
  auto p = std::make_shared<Pending>();
  p->seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (const auto id_it = fields.find("id"); id_it != fields.end()) {
    p->client_id = id_it->second;
    p->had_id = true;
  }
  p->line_no = line_no;
  // The random-routing control arm spreads keys uniformly instead.
  p->key = config_.random_routing ? mix64(p->seq) : routing_key(fields);
  p->done = std::move(done);
  p->submitted = Clock::now();
  // The client's id out and ours in, in one pass.  Whitespace around the
  // object goes too, so the wire line is exactly {...} (wire_now appends
  // inside its closing brace).
  p->wire = svc::replace_id(trim_space(line), "r" + std::to_string(p->seq));

  // A timeout_ms the shards refuse sets no deadline here: the shard's
  // invalid_argument answers it.
  const auto timeout_ms = static_cast<std::int64_t>(
      svc::whole_number(fields.get("timeout_ms"), svc::kMaxIntOption)
          .value_or(0));
  if (timeout_ms > 0) {
    p->deadline = p->submitted + std::chrono::milliseconds(timeout_ms) +
                  config_.pending_grace;
    if (config_.hedge_fraction > 0) {
      auto lead = std::chrono::milliseconds(static_cast<std::int64_t>(
          static_cast<double>(timeout_ms) * config_.hedge_fraction));
      if (lead < config_.hedge_min) lead = config_.hedge_min;
      p->hedge_at = p->submitted + lead;
    }
    // Deadline propagation: hedges and re-dispatches carry the REMAINING
    // client budget (wire_now).
    p->timeout_ms = timeout_ms;
    p->wire_base = svc::strip_field(p->wire, "timeout_ms");
  } else {
    p->deadline = p->submitted + config_.pending_timeout;
    if (config_.hedge_after.count() > 0) {
      p->hedge_at = p->submitted + config_.hedge_after;
    }
  }

  bool admitted = false;
  {
    // The capacity check and the registration share one critical section.
    // requests_ moves under the lock so metrics' reconciliation invariant
    // (requests == responses + timeouts + failed + pending) holds at every
    // instant, not just at quiescence.
    std::lock_guard<std::mutex> pl(pending_mu_);
    if (pending_.size() < config_.max_pending) {
      pending_.emplace(p->seq, p);
      requests_.fetch_add(1, std::memory_order_relaxed);
      admitted = true;
    } else {
      rejected_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!admitted) {
    out.kind = Outcome::Kind::kRespond;
    out.response = svc::error_record(
        p->client_id, line_no, svc::Status::kOverloaded,
        "router pending table full", jittered_retry_after());
    return out;
  }

  if (!route_and_send(p, p->wire, "")) {
    if (auto taken = take_pending(p->seq, Cause::kFailed)) {
      // Resolve inline: the Done callback is unused and dropped with `out`.
      out.kind = Outcome::Kind::kRespond;
      out.response =
          svc::error_record(p->client_id, line_no, svc::Status::kOverloaded,
                            "no shard available", jittered_retry_after());
      return out;
    }
  }
  out.kind = Outcome::Kind::kSubmitted;
  return out;
}

Ring::Accept Router::accept_predicate(bool skip_backoff) const {
  // Caller holds membership_mu_ (shared).
  return [this, skip_backoff](const std::string& id) {
    const auto it = shards_.find(id);
    if (it == shards_.end()) return false;
    const Shard& shard = *it->second;
    if (shard.draining.load(std::memory_order_relaxed)) return false;
    if (shard.up_conns.load(std::memory_order_relaxed) <= 0) return false;
    // Probe-driven health: Down shards are out of the candidate set
    // entirely; Suspect ones are skipped like backoff -- routed around
    // while a healthy alternative exists, used under cluster-wide duress.
    const int health = shard.health.load(std::memory_order_relaxed);
    if (health >= 2) return false;
    if (skip_backoff && (health == 1 || shard.in_backoff())) return false;
    return true;
  };
}

bool Router::route_and_send(const std::shared_ptr<Pending>& p,
                            const std::string& wire,
                            const std::string& exclude) {
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  // Shards this call passes over: `exclude`, then each that took no line.
  std::vector<std::string> skip;
  if (!exclude.empty()) skip.push_back(exclude);
  const Ring::Accept healthy = accept_predicate(true);
  const Ring::Accept any_up = accept_predicate(false);
  const auto not_skipped = [&skip](const Ring::Accept& base) {
    return [&skip, &base](const std::string& id) {
      return std::find(skip.begin(), skip.end(), id) == skip.end() &&
             base(id);
    };
  };
  while (true) {
    // Prefer shards outside their backoff window; under cluster-wide
    // pressure fall back to the fingerprint's true home (degraded beats
    // down, and locality still pays).
    std::string id = ring_.pick(p->key, not_skipped(healthy));
    if (id.empty()) id = ring_.pick(p->key, not_skipped(any_up));
    if (id.empty()) return false;
    const auto it = shards_.find(id);
    if (it == shards_.end()) return false;  // cannot happen: accept checked
    if (send_on_shard(it->second, p, wire)) {
      {
        std::lock_guard<std::mutex> gl(p->mu);
        p->primary_shard = id;
        ++p->attempts;
      }
      it->second->routed.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    skip.push_back(std::move(id));
  }
}

bool Router::send_on_shard(const std::shared_ptr<Shard>& shard,
                           const std::shared_ptr<Pending>& p,
                           const std::string& wire) {
  const std::size_t n = shard->conns.size();
  for (std::size_t i = 0; i < n; ++i) {
    UpstreamConn& conn = *shard->conns[(thread_lane() + i) % n];
    bool schedule = false;
    {
      std::lock_guard<std::mutex> cl(conn.mu);
      if (!conn.up) continue;
      conn.out.append(wire);
      conn.out.push_back('\n');
      {
        // Recorded under the connection lock: a teardown either sees this
        // send (and re-dispatches it) or ran before it (and the line went
        // elsewhere).
        std::lock_guard<std::mutex> gl(p->mu);
        p->sends.push_back(Pending::Send{&conn, conn.generation, shard->id});
      }
      // One flush per pass: later lines ride the one already scheduled,
      // or the loop's own sends while it waits for the socket to drain.
      schedule = !conn.flush_queued && !conn.writing;
      if (schedule) conn.flush_queued = true;
    }
    if (schedule) {
      net::at_pass_end([this, shard, &conn] { flush(shard, conn); });
    }
    return true;
  }
  return false;
}

void Router::flush(const std::shared_ptr<Shard>& shard, UpstreamConn& conn) {
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> cl(conn.mu);
    conn.flush_queued = false;
    if (!conn.up || conn.writing) return;
    if (!conn.send_queued()) {
      // A broken socket takes no more lines; the hang-up wakes the loop,
      // which tears the connection down and re-dispatches its requests.
      conn.up = false;
      ::shutdown(conn.sock.get(), SHUT_RDWR);
      return;
    }
    if (conn.out.empty()) return;
    conn.writing = true;  // the rest leaves from the loop, on EPOLLOUT
    generation = conn.generation;
  }
  // `shard` rides along to keep `conn` alive until the loop runs this.
  post([this, shard, &conn, generation] { watch_stall(conn, generation); });
}

// ---------------------------------------------------------------------------
// The upstream loop.

bool Router::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> pl(post_mu_);
    if (io_quit_) return false;
    posted_.push_back(std::move(fn));
  }
  kick(wake_);
  return true;
}

void Router::io_loop() {
  epoll_event events[kMaxEvents];
  std::vector<std::function<void()>> work;
  while (true) {
    const int n =
        ::epoll_wait(epoll_.get(), events, kMaxEvents, next_wait_ms());
    if (n < 0 && errno != EINTR) {
      if (config_.log) config_.log("router upstream loop: epoll_wait failed");
      return;
    }
    bool woke = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        std::uint64_t drained;
        while (::read(wake_.get(), &drained, sizeof(drained)) > 0) {
        }
        woke = true;
        continue;
      }
      on_conn_event(*static_cast<UpstreamConn*>(events[i].data.ptr),
                    events[i].events);
    }
    // Posted work runs after the batch's socket events, so a detach cannot
    // release a connection that a later event of the batch names.
    if (woke) {
      bool quit = false;
      {
        std::lock_guard<std::mutex> pl(post_mu_);
        work.swap(posted_);
        quit = io_quit_;
      }
      for (std::function<void()>& fn : work) fn();
      work.clear();
      if (quit) return;
    }
    on_deadlines();
  }
}

void Router::attach(const std::shared_ptr<Shard>& shard) {
  attached_.push_back(shard);
  for (const auto& conn : shard->conns) begin_connect(*conn);
}

void Router::detach(const std::shared_ptr<Shard>& shard) {
  attached_.erase(std::remove(attached_.begin(), attached_.end(), shard),
                  attached_.end());
  for (const auto& conn : shard->conns) teardown(*conn, /*reconnect=*/false);
}

void Router::begin_connect(UpstreamConn& conn) {
  bool connected = false;
  net::Fd fd;
  try {
    fd = net::start_connect(conn.shard->addr, &connected);
  } catch (const std::exception&) {
    connect_failed(conn);
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLOUT;  // writable = connected (or failed)
  ev.data.ptr = &conn;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd.get(), &ev) != 0) {
    connect_failed(conn);
    return;
  }
  {
    std::lock_guard<std::mutex> cl(conn.mu);
    conn.sock = std::move(fd);
  }
  conn.phase = UpstreamConn::Phase::kConnecting;
  conn.deadline = config_.connect_timeout.count() > 0
                      ? Clock::now() + config_.connect_timeout
                      : Clock::time_point::max();
  if (connected) on_conn_event(conn, EPOLLOUT);
}

void Router::on_conn_event(UpstreamConn& conn, std::uint32_t events) {
  switch (conn.phase) {
    case UpstreamConn::Phase::kIdle:
      return;
    case UpstreamConn::Phase::kConnecting: {
      if ((events & (EPOLLERR | EPOLLHUP)) != 0 ||
          net::socket_error(conn.sock.get()) != 0) {
        connect_failed(conn);
        return;
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = &conn;
      (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn.sock.get(), &ev);
      {
        std::lock_guard<std::mutex> cl(conn.mu);
        conn.up = true;
        ++conn.generation;
      }
      conn.phase = UpstreamConn::Phase::kConnected;
      conn.deadline = Clock::time_point::max();
      conn.backoff = config_.reconnect_min;
      conn.shard->up_conns.fetch_add(1);
      return;
    }
    case UpstreamConn::Phase::kConnected:
      if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 &&
          !read_responses(conn)) {
        teardown(conn, /*reconnect=*/true);
        return;
      }
      if ((events & EPOLLOUT) != 0 && !write_queued(conn)) {
        teardown(conn, /*reconnect=*/true);
      }
      return;
  }
}

void Router::connect_failed(UpstreamConn& conn) {
  {
    std::lock_guard<std::mutex> cl(conn.mu);
    if (conn.sock.valid()) {
      (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, conn.sock.get(), nullptr);
      conn.sock.reset();
    }
  }
  conn.shard->connect_failures.fetch_add(1, std::memory_order_relaxed);
  conn.phase = UpstreamConn::Phase::kIdle;
  conn.deadline = Clock::now() + conn.backoff;
  conn.backoff = std::min(conn.backoff * 2, config_.reconnect_max);
}

bool Router::read_responses(UpstreamConn& conn) {
  char buf[65536];
  std::size_t got = 0;
  bool open = true;
  while (got < kReadBurstBytes) {
    const ssize_t n = ::recv(conn.sock.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      conn.rbuf.append(buf, static_cast<std::size_t>(n));
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    open = false;  // EOF or a socket error
    break;
  }
  std::size_t pos = 0;
  for (std::size_t nl; (nl = conn.rbuf.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    std::string_view line(conn.rbuf.data() + pos, nl - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    on_upstream_line(*conn.shard, line);
  }
  conn.rbuf.erase(0, pos);
  if (!open && !conn.rbuf.empty()) {
    // The peer closed right after an unterminated last line: still a line.
    on_upstream_line(*conn.shard, conn.rbuf);
    conn.rbuf.clear();
  }
  return open && conn.rbuf.size() <= kMaxResponseBytes;
}

bool Router::write_queued(UpstreamConn& conn) {
  std::lock_guard<std::mutex> cl(conn.mu);
  if (!conn.writing) return true;
  const std::size_t before = conn.out.size() - conn.out_pos;
  if (!conn.send_queued()) return false;
  if (conn.out.empty()) {
    conn.writing = false;
    conn.deadline = Clock::time_point::max();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &conn;
    (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn.sock.get(), &ev);
  } else if (conn.out.size() - conn.out_pos < before &&
             config_.send_timeout.count() > 0) {
    conn.deadline = Clock::now() + config_.send_timeout;  // progress
  }
  return true;
}

void Router::watch_stall(UpstreamConn& conn, std::uint64_t generation) {
  {
    std::lock_guard<std::mutex> cl(conn.mu);
    // Only this loop clears `writing` or moves the generation, so the
    // check stays true below.
    if (!conn.writing || conn.generation != generation) return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.ptr = &conn;
  (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn.sock.get(), &ev);
  if (config_.send_timeout.count() > 0) {
    conn.deadline = Clock::now() + config_.send_timeout;
  }
}

void Router::teardown(UpstreamConn& conn, bool reconnect) {
  Shard& shard = *conn.shard;
  const bool was_up = conn.phase == UpstreamConn::Phase::kConnected;
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> cl(conn.mu);
    if (conn.sock.valid()) {
      (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, conn.sock.get(), nullptr);
      conn.sock.reset();
    }
    conn.up = false;
    conn.writing = false;
    // Bytes still queued die with the socket.  Their requests are orphans
    // below, like the sent ones, and never reach the next socket.
    conn.out.clear();
    conn.out_pos = 0;
    generation = conn.generation;
  }
  conn.rbuf.clear();
  conn.phase = UpstreamConn::Phase::kIdle;
  conn.deadline = Clock::time_point::max();
  if (was_up) {
    shard.up_conns.fetch_sub(1);
    if (config_.log) {
      config_.log("shard " + shard.id + " conn#" +
                  std::to_string(conn.index) + " down");
    }
    on_conn_down(shard, &conn, generation);
  }
  if (reconnect) begin_connect(conn);
}

void Router::on_deadlines() {
  const Clock::time_point now = Clock::now();
  for (const auto& shard : attached_) {
    for (const auto& c : shard->conns) {
      UpstreamConn& conn = *c;
      if (now < conn.deadline) continue;
      switch (conn.phase) {
        case UpstreamConn::Phase::kIdle:  // backoff over: try again
          begin_connect(conn);
          break;
        case UpstreamConn::Phase::kConnecting:  // the connect bound passed
          connect_failed(conn);
          break;
        case UpstreamConn::Phase::kConnected:
          // Queued bytes made no progress for send_timeout: the shard
          // stopped reading.
          if (config_.log) {
            config_.log("shard " + shard->id + " conn#" +
                        std::to_string(conn.index) + " stalled");
          }
          teardown(conn, /*reconnect=*/true);
          break;
      }
    }
  }
}

int Router::next_wait_ms() const {
  Clock::time_point next = Clock::time_point::max();
  for (const auto& shard : attached_) {
    for (const auto& conn : shard->conns) next = std::min(next, conn->deadline);
  }
  if (next == Clock::time_point::max()) return -1;
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(next - Clock::now());
  return static_cast<int>(std::clamp<std::int64_t>(left.count(), 0, 60'000));
}

void Router::on_upstream_line(Shard& shard, std::string_view line) {
  // One scan reads the three fields the router acts on.  It accepts and
  // rejects exactly the lines parse_flat_json does; a rejected line is
  // dropped and counted.  A later duplicate key wins, as there.
  std::string_view id;
  std::string_view status;
  std::string_view hint;
  bool hint_quoted = false;
  std::string_view shard_line_no;
  try {
    svc::FlatJsonScanner scan(line);
    svc::FlatJsonScanner::Member m;
    while (scan.next(&m)) {
      if (m.key == "id") {
        id = m.value;
      } else if (m.key == "status") {
        status = m.value;
      } else if (m.key == "retry_after_ms") {
        hint = m.value;
        hint_quoted = m.quoted;
      } else if (m.key == "line") {
        shard_line_no = m.value;
      }
    }
  } catch (const std::invalid_argument&) {
    late_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // A retryable envelope with a retry_after_ms hint opens the shard's soft
  // backoff window -- whoever wins the pending race, the hint is real.
  if (status == "overloaded" || status == "resource_exhausted") {
    const auto ms = static_cast<std::int64_t>(
        svc::whole_number(hint_quoted ? svc::unescape_json(hint) : hint,
                          svc::kMaxIntOption)
            .value_or(0));
    if (ms > 0) {
      const std::int64_t until =
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now().time_since_epoch())
              .count() +
          ms * 1000;
      shard.backoff_until_us.store(until, std::memory_order_relaxed);
    }
  }
  auto p = take_pending(parse_seq(id), Cause::kResponse);
  if (!p) {
    // The hedge loser, a re-dispatched twin, or an id we never issued.
    late_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shard.answered.fetch_add(1, std::memory_order_relaxed);
  resolve_response(p, line, shard_line_no, shard.id);
}

void Router::on_conn_down(Shard& shard, const UpstreamConn* conn,
                          std::uint64_t generation) {
  // Requests whose ONLY outstanding send rode this connection are orphans;
  // a hedged twin still in flight elsewhere keeps ownership instead.
  std::vector<std::shared_ptr<Pending>> orphans;
  {
    std::lock_guard<std::mutex> pl(pending_mu_);
    for (auto& [seq, p] : pending_) {
      std::lock_guard<std::mutex> gl(p->mu);
      bool touched = false;
      for (auto it = p->sends.begin(); it != p->sends.end();) {
        if (it->conn == conn && it->generation == generation) {
          it = p->sends.erase(it);
          touched = true;
        } else {
          ++it;
        }
      }
      if (touched && p->sends.empty()) orphans.push_back(p);
    }
  }
  redispatch_orphans(orphans, shard, /*allow_fallback=*/true);
}

void Router::redispatch_orphans(
    const std::vector<std::shared_ptr<Pending>>& orphans, Shard& shard,
    bool allow_fallback) {
  for (const auto& p : orphans) {
    bool exhausted = false;
    {
      std::lock_guard<std::mutex> gl(p->mu);
      exhausted = p->attempts >= kMaxAttempts;
    }
    if (!exhausted) {
      // Budget first: under a mass failure the bucket drains after the
      // first wave and the rest fast-fail, capping the retry
      // amplification a dying shard can inflict on the survivors.
      if (!charge_retry(shard)) {
        if (auto taken = take_pending(p->seq, Cause::kFailed)) {
          resolve_error(taken, svc::Status::kOverloaded,
                        "retry budget exhausted", true);
        }
        continue;
      }
      // Deadline next: re-sending a query whose client budget is spent
      // would only burn a healthy shard's CPU on a dead answer.
      const std::optional<std::string> wire = wire_now(p);
      if (!wire) {
        hop_deadline_expired_.fetch_add(1, std::memory_order_relaxed);
        if (auto taken = take_pending(p->seq, Cause::kTimeout)) {
          resolve_error(taken, svc::Status::kDeadlineExceeded,
                        "client deadline passed before re-dispatch", false);
        }
        continue;
      }
      redispatches_.fetch_add(1, std::memory_order_relaxed);
      // The shard that just dropped us is suspect even while the rest of
      // its pool still counts as up (a dying process's sockets close one
      // by one) -- prefer any other shard, and fall back to the suspect
      // only when nothing else can take the key.
      if (route_and_send(p, *wire, shard.id)) continue;
      if (allow_fallback &&
          shard.up_conns.load(std::memory_order_relaxed) > 0 &&
          route_and_send(p, *wire, "")) {
        continue;
      }
    }
    if (auto taken = take_pending(p->seq, Cause::kFailed)) {
      resolve_error(taken, svc::Status::kOverloaded,
                    exhausted ? "shard connection lost repeatedly"
                              : "shard connection lost, no shard available",
                    true);
    }
  }
}

// ---------------------------------------------------------------------------
// Resolution.

std::shared_ptr<Router::Pending> Router::take_pending(std::uint64_t seq,
                                                      Cause cause) {
  std::shared_ptr<Pending> p;
  std::lock_guard<std::mutex> pl(pending_mu_);
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return nullptr;
  p = it->second;
  pending_.erase(it);
  // Cause counters move under the same lock as the table so the metrics
  // reconciliation holds at every instant (see submit()).
  switch (cause) {
    case Cause::kResponse:
      responses_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Cause::kTimeout:
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Cause::kFailed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  p->resolved.store(true);
  return p;
}

void Router::resolve_response(const std::shared_ptr<Pending>& p,
                              std::string_view response,
                              std::string_view shard_line_no,
                              const std::string& shard_id) {
  {
    std::lock_guard<std::mutex> gl(p->mu);
    if (p->hedged && shard_id != p->primary_shard) {
      hedge_wins_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // A shard's error record numbers lines on the pooled upstream
  // connection; the client reads the number of its own line instead.
  std::string renumbered;
  if (!shard_line_no.empty()) {
    const auto at =
        static_cast<std::size_t>(shard_line_no.data() - response.data());
    renumbered.reserve(response.size() + 8);
    renumbered.append(response.substr(0, at));
    renumbered.append(std::to_string(p->line_no));
    renumbered.append(response.substr(at + shard_line_no.size()));
    response = renumbered;
  }
  // The id splice, in one pass: our "r<seq>" comes out, the client's own
  // id (escaped again -- the request reader unescaped it) goes back in.
  p->done(p->had_id
              ? svc::replace_id(response, svc::json_escape(p->client_id))
              : svc::strip_field(response, "id"));
}

void Router::resolve_error(const std::shared_ptr<Pending>& p,
                           svc::Status status, const std::string& message,
                           bool retryable) {
  p->done(svc::error_record(p->had_id ? p->client_id : "", p->line_no, status,
                            message, retryable ? jittered_retry_after() : 0));
}

// ---------------------------------------------------------------------------
// Maintenance: hedging and router-side timeouts.

void Router::maintenance_thread() {
  while (!stopping_.load()) {
    {
      std::unique_lock<std::mutex> sl(stop_mu_);
      stop_cv_.wait_for(sl, config_.tick, [&] { return stopping_.load(); });
    }
    if (stopping_.load()) break;
    const Clock::time_point now = Clock::now();
    std::vector<std::shared_ptr<Pending>> to_hedge;
    std::vector<std::uint64_t> to_timeout;
    {
      std::lock_guard<std::mutex> pl(pending_mu_);
      for (auto& [seq, p] : pending_) {
        if (now >= p->deadline) {
          to_timeout.push_back(seq);
          continue;
        }
        std::lock_guard<std::mutex> gl(p->mu);
        if (!p->hedged && now >= p->hedge_at) {
          p->hedged = true;  // one shot, even if no successor exists
          to_hedge.push_back(p);
        }
      }
    }
    for (const std::uint64_t seq : to_timeout) {
      if (auto p = take_pending(seq, Cause::kTimeout)) {
        resolve_error(p, svc::Status::kDeadlineExceeded,
                      "router: no response from cluster before deadline",
                      false);
      }
    }
    for (auto& p : to_hedge) hedge_one(p);
  }
}

void Router::hedge_one(const std::shared_ptr<Pending>& p) {
  if (p->resolved.load()) return;
  std::vector<std::string> exclude;
  {
    std::lock_guard<std::mutex> gl(p->mu);
    exclude.push_back(p->primary_shard);
    for (const auto& send : p->sends) exclude.push_back(send.shard);
  }
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  const Ring::Accept healthy = accept_predicate(true);
  const std::string id = ring_.pick(p->key, [&](const std::string& s) {
    return std::find(exclude.begin(), exclude.end(), s) == exclude.end() &&
           healthy(s);
  });
  if (id.empty()) return;  // nobody to hedge to; the primary keeps the key
  const auto it = shards_.find(id);
  if (it == shards_.end()) return;
  // A hedge is a retry in disguise: it pays the same budget, and carries
  // the remaining (not original) client deadline.
  if (!charge_retry(*it->second)) return;
  const std::optional<std::string> wire = wire_now(p);
  if (!wire) return;  // out of budget; the router deadline clock fires soon
  if (send_on_shard(it->second, p, *wire)) {
    hedges_.fetch_add(1, std::memory_order_relaxed);
    it->second->hedges.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Hardening: active probes, retry budgets, deadline propagation.

void Router::probe_thread() {
  while (!stopping_.load()) {
    {
      std::unique_lock<std::mutex> sl(stop_mu_);
      stop_cv_.wait_for(sl, config_.probe_interval,
                        [&] { return stopping_.load(); });
    }
    if (stopping_.load()) break;
    // Probe a snapshot so membership changes never race the walk; shards
    // removed mid-pass just get one harmless last probe.
    std::vector<std::shared_ptr<Shard>> snapshot;
    {
      std::shared_lock<std::shared_mutex> ml(membership_mu_);
      snapshot.reserve(shards_.size());
      for (const auto& [id, shard] : shards_) snapshot.push_back(shard);
    }
    for (const auto& shard : snapshot) {
      if (stopping_.load()) break;
      probe_shard(shard);
    }
  }
}

void Router::probe_shard(const std::shared_ptr<Shard>& shard) {
  // A FRESH connection per probe, on purpose: the pooled sockets of a
  // blackholed shard look healthy forever, which is exactly the lie the
  // probe exists to catch.
  bool ok = false;
  try {
    net::ClientConfig cc;
    cc.server = shard->addr;
    cc.connect_timeout = config_.probe_timeout;
    cc.send_timeout = config_.probe_timeout;
    cc.recv_timeout = config_.probe_timeout;
    net::Client probe(std::move(cc));
    const std::string response = probe.roundtrip(R"({"op":"info"})");
    ok = response.find("\"status\":\"ok\"") != std::string::npos;
  } catch (...) {
    ok = false;
  }
  if (ok) {
    shard->probe_streak.store(0, std::memory_order_relaxed);
    const int prev = shard->health.exchange(0, std::memory_order_relaxed);
    if (prev != 0 && config_.log) {
      config_.log("shard " + shard->id + " probe ok, back up");
    }
    return;
  }
  probe_failures_.fetch_add(1, std::memory_order_relaxed);
  const int streak =
      shard->probe_streak.fetch_add(1, std::memory_order_relaxed) + 1;
  int next;
  if (streak >= config_.probe_down_after) {
    next = 2;
  } else if (streak >= kProbeSuspectAfter) {
    next = 1;
  } else {
    return;
  }
  const int prev = shard->health.exchange(next, std::memory_order_relaxed);
  if (prev != next && config_.log) {
    config_.log("shard " + shard->id + " probe failure #" +
                std::to_string(streak) + " -> " +
                (next == 2 ? "down" : "suspect"));
  }
  // Crossing into Down evicts the shard's unresolved sends NOW -- the
  // whole point of probing is beating pending_timeout to the bad news.
  if (prev != 2 && next == 2) evict_shard_pendings(*shard);
}

void Router::evict_shard_pendings(Shard& shard) {
  std::vector<std::shared_ptr<Pending>> orphans;
  {
    std::lock_guard<std::mutex> pl(pending_mu_);
    for (auto& [seq, p] : pending_) {
      std::lock_guard<std::mutex> gl(p->mu);
      bool touched = false;
      for (auto it = p->sends.begin(); it != p->sends.end();) {
        if (it->shard == shard.id) {
          it = p->sends.erase(it);
          touched = true;
        } else {
          ++it;
        }
      }
      if (touched && p->sends.empty()) orphans.push_back(p);
    }
  }
  // No fallback to the evicted shard: probes just declared it Down.
  redispatch_orphans(orphans, shard, /*allow_fallback=*/false);
}

bool Router::charge_retry(Shard& shard) {
  if (retry_budget_.try_take() && shard.retry_budget.try_take()) return true;
  budget_exhausted_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

std::optional<std::string> Router::wire_now(
    const std::shared_ptr<Pending>& p) const {
  if (p->timeout_ms <= 0) return p->wire;  // no deadline to propagate
  const std::int64_t elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            p->submitted)
          .count();
  const std::int64_t remaining = p->timeout_ms - elapsed;
  if (remaining <= 0) return std::nullopt;
  if (remaining >= p->timeout_ms) return p->wire;  // nothing burned yet
  std::string out = p->wire_base;
  out.insert(out.size() - 1, ",\"timeout_ms\":" + std::to_string(remaining));
  return out;
}

std::uint64_t Router::jittered_retry_after() const {
  const int base = config_.retry_after_ms;
  if (base <= 1) return static_cast<std::uint64_t>(std::max(base, 0));
  // Uniform in [base/2, base*3/2] off a private splitmix lane, so a burst
  // of synchronized rejections fans back in spread out.
  const std::uint64_t z =
      mix64(retry_jitter_.fetch_add(1, std::memory_order_relaxed));
  return static_cast<std::uint64_t>(base / 2) +
         z % static_cast<std::uint64_t>(base + 1);
}

// ---------------------------------------------------------------------------
// Membership.

std::shared_ptr<Router::Shard> Router::make_shard(const ShardSpec& spec) {
  auto shard = std::make_shared<Shard>();
  shard->id = spec.id;
  shard->addr = spec.addr;
  shard->retry_budget.configure(config_.shard_retry_budget_per_sec,
                                config_.shard_retry_budget_burst);
  for (int i = 0; i < config_.conns_per_shard; ++i) {
    auto conn = std::make_unique<UpstreamConn>();
    conn->shard = shard.get();
    conn->index = i;
    conn->backoff = config_.reconnect_min;
    shard->conns.push_back(std::move(conn));
  }
  return shard;
}

bool Router::add_shard(const ShardSpec& spec) {
  std::shared_ptr<Shard> shard = make_shard(spec);
  {
    std::unique_lock<std::shared_mutex> ml(membership_mu_);
    if (shards_.count(spec.id) != 0) return false;
    shards_.emplace(spec.id, shard);
    ring_.add(spec.id);
  }
  post([this, shard] { attach(shard); });
  if (config_.log) config_.log("shard " + spec.id + " added");
  return true;
}

bool Router::remove_shard(const std::string& id) {
  std::shared_ptr<Shard> shard;
  {
    std::unique_lock<std::shared_mutex> ml(membership_mu_);
    const auto it = shards_.find(id);
    if (it == shards_.end()) return false;
    shard = it->second;
    shards_.erase(it);
    ring_.remove(id);
  }
  // The loop closes the pool and re-dispatches what rode on it; waiting
  // (outside the membership lock, which that re-dispatch takes shared)
  // makes the removal complete on return.
  if (started_flag_.load()) {
    auto detached = std::make_shared<std::promise<void>>();
    std::future<void> done = detached->get_future();
    if (post([this, shard, detached] {
          detach(shard);
          detached->set_value();
        })) {
      done.wait();
    }
  }
  if (config_.log) config_.log("shard " + id + " removed");
  return true;
}

bool Router::drain_shard(const std::string& id) {
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  const auto it = shards_.find(id);
  if (it == shards_.end()) return false;
  it->second->draining.store(true);
  if (config_.log) config_.log("shard " + id + " draining");
  return true;
}

// ---------------------------------------------------------------------------
// Control plane.

std::string Router::control(std::string_view line, int line_no) {
  // on_line classified this line kControl, so it reads as a request again.
  svc::RequestLine read = svc::read_request(line, line_no,
                                            config_.max_line_bytes);
  if (read.kind != svc::RequestLine::Kind::kRequest) return read.error;
  const svc::Fields& fields = read.fields;
  const std::string& op = read.op;
  const std::string id(fields.get("id"));
  if (op == "cluster_stats") return render_cluster_stats(id);
  if (op == "info") return render_info(id);
  if (op == "metrics") return render_metrics(id);
  if (op == "store") return render_store_op(fields, id, line_no);
  if (op == "stats") {
    const Stats s = stats();
    return "cluster shards=" + std::to_string(shard_count()) +
           " pending=" + std::to_string(s.pending) +
           " requests=" + std::to_string(s.requests) +
           " responses=" + std::to_string(s.responses) +
           " hedges=" + std::to_string(s.hedges) +
           " hedge_wins=" + std::to_string(s.hedge_wins) +
           " redispatches=" + std::to_string(s.redispatches) +
           " timeouts=" + std::to_string(s.timeouts) +
           " failed=" + std::to_string(s.failed) +
           " rejected=" + std::to_string(s.rejected);
  }
  if (op == "trace") {
    return svc::error_record(id, line_no, svc::Status::kInvalidArgument,
                             "trace is not available on the router");
  }
  if (op == "cluster_add" || op == "cluster_remove" || op == "cluster_drain") {
    if (!config_.admin_ops) {
      return svc::error_record(id, line_no, svc::Status::kInvalidArgument,
                               "cluster admin ops are disabled on this router");
    }
    return render_membership_op(fields, op);
  }
  return svc::error_record(id, line_no, svc::Status::kInvalidArgument,
                           "unknown control op \"" + op + "\"");
}

std::size_t Router::shard_count() const {
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  return shards_.size();
}

int Router::shard_up_conns(const std::string& id) const {
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  const auto it = shards_.find(id);
  return it == shards_.end() ? 0 : it->second->up_conns.load();
}

Router::ShardHealth Router::shard_health(const std::string& id) const {
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  const auto it = shards_.find(id);
  if (it == shards_.end()) return ShardHealth::kDown;
  switch (it->second->health.load(std::memory_order_relaxed)) {
    case 1:
      return ShardHealth::kSuspect;
    case 2:
      return ShardHealth::kDown;
    default:
      return ShardHealth::kUp;
  }
}

Router::Stats Router::stats() const {
  Stats s;
  std::lock_guard<std::mutex> pl(pending_mu_);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.hedges = hedges_.load(std::memory_order_relaxed);
  s.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  s.late_drops = late_drops_.load(std::memory_order_relaxed);
  s.redispatches = redispatches_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.pending = pending_.size();
  s.probe_failures = probe_failures_.load(std::memory_order_relaxed);
  s.budget_exhausted = budget_exhausted_.load(std::memory_order_relaxed);
  s.hop_deadline_expired =
      hop_deadline_expired_.load(std::memory_order_relaxed);
  return s;
}

std::string Router::render_cluster_stats(const std::string& id) {
  const Stats s = stats();
  svc::JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", "cluster_stats")
      .field("status", svc::to_json_token(svc::Status::kOk))
      .field("requests", s.requests)
      .field("responses", s.responses)
      .field("pending", s.pending)
      .field("hedges", s.hedges)
      .field("hedge_wins", s.hedge_wins)
      .field("late_drops", s.late_drops)
      .field("redispatches", s.redispatches)
      .field("timeouts", s.timeouts)
      .field("failed", s.failed)
      .field("rejected", s.rejected)
      .field("probe_failures", s.probe_failures)
      .field("budget_exhausted", s.budget_exhausted)
      .field("hop_deadline_expired", s.hop_deadline_expired);
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  w.field("shards", static_cast<std::uint64_t>(shards_.size()))
      .field("ring_imbalance_permille", ring_.imbalance_permille());
  std::uint64_t up = 0;
  for (const auto& [sid, shard] : shards_) {
    if (shard->up_conns.load() > 0) ++up;
  }
  w.field("shards_up", up);
  // Flat JSON has no nesting, so per-shard state rides on compound keys.
  for (const auto& [sid, shard] : shards_) {
    const std::string prefix = "shard_" + key_safe(sid) + "_";
    const int health = shard->health.load(std::memory_order_relaxed);
    const char* state = "up";
    if (shard->draining.load()) {
      state = "draining";
    } else if (shard->up_conns.load() <= 0 || health >= 2) {
      state = "down";
    } else if (health == 1) {
      state = "suspect";
    } else if (shard->in_backoff()) {
      state = "backoff";
    }
    w.field(prefix + "state", state)
        .field(prefix + "conns", shard->up_conns.load())
        .field(prefix + "routed",
               shard->routed.load(std::memory_order_relaxed))
        .field(prefix + "hedges",
               shard->hedges.load(std::memory_order_relaxed))
        .field(prefix + "answered",
               shard->answered.load(std::memory_order_relaxed))
        .field(prefix + "connect_failures",
               shard->connect_failures.load(std::memory_order_relaxed))
        .field(prefix + "probe_streak",
               shard->probe_streak.load(std::memory_order_relaxed));
  }
  return w.str();
}

std::string Router::render_info(const std::string& id) {
  svc::JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", "info")
      .field("status", svc::to_json_token(svc::Status::kOk))
      .field("version", kVersion)
      .field("server_id", config_.router_id)
      .field("role", "router")
      .field("uptime_ms",
             static_cast<std::uint64_t>(
                 std::chrono::duration_cast<std::chrono::milliseconds>(
                     Clock::now() - started_)
                     .count()));
  const Stats s = stats();
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  std::uint64_t up = 0;
  for (const auto& [sid, shard] : shards_) {
    if (shard->up_conns.load() > 0) ++up;
  }
  w.field("shards", static_cast<std::uint64_t>(shards_.size()))
      .field("shards_up", up)
      .field("pending", s.pending);
  return w.str();
}

std::string Router::render_metrics(const std::string& id) {
  svc::JsonWriter w;
  if (!id.empty()) w.field("id", id);
  // One consistent snapshot (stats() reads everything under pending_mu_)
  // makes the reconciliation meaningful: accepted == resolved + inflight.
  const Stats s = stats();
  const bool reconciles =
      s.requests == s.responses + s.timeouts + s.failed + s.pending;
  w.field("op", "metrics")
      .field("status", svc::to_json_token(svc::Status::kOk))
      .field("requests", s.requests)
      .field("responses", s.responses)
      .field("timeouts", s.timeouts)
      .field("failed", s.failed)
      .field("pending", s.pending)
      .field("hedges", s.hedges)
      .field("hedge_wins", s.hedge_wins)
      .field("late_drops", s.late_drops)
      .field("redispatches", s.redispatches)
      .field("rejected", s.rejected)
      .field("probe_failures", s.probe_failures)
      .field("budget_exhausted", s.budget_exhausted)
      .field("hop_deadline_expired", s.hop_deadline_expired)
      .field("reconciles", reconciles);
  return w.str();
}

std::string Router::render_store_op(const svc::Fields& fields,
                                    const std::string& id, int line_no) {
  const std::string action(fields.get("action", "stats"));
  if (action != "stats" && action != "warm" && action != "shed" &&
      action != "pin" && action != "unpin" && action != "publish") {
    return svc::error_record(id, line_no, svc::Status::kInvalidArgument,
                             "unknown store action \"" + action + "\"");
  }
  if (action == "publish" && config_.store_readonly) {
    return svc::error_record(id, line_no, svc::Status::kInvalidArgument,
                             "store publish: this router treats the cluster "
                             "store as read-only (--store-readonly)");
  }
  // Forward a minimal request (id stripped: shard responses are consumed
  // here, not relayed).  Shards keep their own transport gating -- publish
  // over TCP is refused per shard unless its operator enabled it.
  svc::JsonWriter fwd;
  fwd.field("op", "store").field("action", action);
  for (const char* key : {"percent", "fingerprint"}) {
    if (const auto it = fields.find(key); it != fields.end()) {
      fwd.field(key, it->second);
    }
  }
  const std::string wire = fwd.str();

  std::vector<std::pair<std::string, std::shared_ptr<Shard>>> snapshot;
  {
    std::shared_lock<std::shared_mutex> ml(membership_mu_);
    snapshot.reserve(shards_.size());
    for (const auto& [sid, shard] : shards_) snapshot.emplace_back(sid, shard);
  }

  // Sum every counter the shard-side store op emits; per-shard rows ride
  // on compound keys like cluster_stats' (flat JSON has no nesting).
  static constexpr const char* kSummed[] = {
      "lookups",   "store_hits",       "store_misses", "fallbacks",
      "publishes", "publish_skipped",  "files",        "file_bytes",
      "mapped_bytes", "cache_store_hits", "chain_builds", "pinned",
      "admitted",  "evicted",          "written"};
  std::map<std::string, std::uint64_t> totals;
  svc::JsonWriter shard_rows;
  std::uint64_t shards_ok = 0;
  std::uint64_t shards_failed = 0;
  for (const auto& [sid, shard] : snapshot) {
    const std::string prefix = "shard_" + key_safe(sid) + "_store_";
    std::string response;
    try {
      net::ClientConfig cc;
      cc.server = shard->addr;
      cc.connect_timeout = config_.probe_timeout;
      cc.send_timeout = config_.probe_timeout;
      cc.recv_timeout = config_.probe_timeout;
      net::Client client(std::move(cc));
      response = client.roundtrip(wire);
    } catch (const std::exception&) {
      ++shards_failed;
      shard_rows.field(prefix + "status", "unreachable");
      continue;
    }
    svc::Fields reply;
    try {
      reply = svc::parse_flat_json(response);
    } catch (const std::exception&) {
      ++shards_failed;
      shard_rows.field(prefix + "status", "unparseable");
      continue;
    }
    const std::string status(reply.get("status", "missing"));
    shard_rows.field(prefix + "status", status);
    if (status != svc::to_json_token(svc::Status::kOk)) {
      ++shards_failed;
      if (const auto err = reply.find("error"); err != reply.end()) {
        shard_rows.field(prefix + "error", err->second);
      }
      continue;
    }
    ++shards_ok;
    for (const char* key : kSummed) {
      if (const auto it = reply.find(key); it != reply.end()) {
        totals[key] += static_cast<std::uint64_t>(
            std::strtoull(std::string(it->second).c_str(), nullptr, 10));
      }
    }
  }

  svc::JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", "store")
      .field("action", action)
      .field("status", svc::to_json_token(shards_failed == 0 || shards_ok > 0
                                              ? svc::Status::kOk
                                              : svc::Status::kInternal))
      .field("shards", static_cast<std::uint64_t>(snapshot.size()))
      .field("shards_ok", shards_ok)
      .field("shards_failed", shards_failed);
  if (config_.store_readonly) w.field("store_readonly", true);
  for (const char* key : kSummed) {
    if (const auto it = totals.find(key); it != totals.end()) {
      w.field(key, it->second);
    }
  }
  std::string out = w.str();
  // Splice the per-shard rows into the envelope (both writers emit one
  // flat object; drop the rows' braces and join).
  const std::string rows = shard_rows.str();
  if (rows.size() > 2) {
    out.insert(out.size() - 1, "," + rows.substr(1, rows.size() - 2));
  }
  return out;
}

std::string Router::render_membership_op(const svc::Fields& fields,
                                         const std::string& op) {
  const std::string id(fields.get("id"));
  const auto shard_it = fields.find("shard");
  if (shard_it == fields.end() || shard_it->second.empty()) {
    return svc::error_record(id, 0, svc::Status::kInvalidArgument,
                             op + ": missing \"shard\"");
  }
  const std::string shard(shard_it->second);
  bool ok = false;
  if (op == "cluster_add") {
    const auto host_it = fields.find("host");
    const std::uint64_t port =
        svc::whole_number(fields.get("port"), 65535).value_or(0);
    if (host_it == fields.end() || port == 0) {
      return svc::error_record(
          id, 0, svc::Status::kInvalidArgument,
          "cluster_add: missing or invalid \"host\"/\"port\"");
    }
    ShardSpec spec;
    spec.id = shard;
    spec.addr.host = host_it->second;
    spec.addr.port = static_cast<std::uint16_t>(port);
    ok = add_shard(spec);
  } else if (op == "cluster_remove") {
    ok = remove_shard(shard);
  } else {
    ok = drain_shard(shard);
  }
  if (!ok) {
    return svc::error_record(id, 0, svc::Status::kInvalidArgument,
                             op + ": " + (op == "cluster_add"
                                              ? "shard id already exists"
                                              : "unknown shard id"));
  }
  svc::JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", op)
      .field("status", svc::to_json_token(svc::Status::kOk))
      .field("shard", shard)
      .field("shards", static_cast<std::uint64_t>(shard_count()));
  return w.str();
}

}  // namespace wfc::cluster
