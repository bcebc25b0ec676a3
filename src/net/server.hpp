// wfc::net::Server -- the epoll TCP front door.
//
// The server speaks a newline-framed line protocol over plaintext TCP and
// delegates every framed line to a LineBackend (backend.hpp).  The default
// backend executes the JSONL v2 protocol of service/handler.hpp against a
// local QueryService; cluster::Router plugs in as a proxying backend so the
// routing tier reuses this exact front end.  Responses carry the
// client-supplied "id" echo and MAY complete out of order -- each accepted
// request carries a completion callback, so a pipelined batch finishes in
// completion order, not submission order (the stdin front-end keeps
// ordered printing; the wire keeps throughput).
//
// Threading model:
//   * `io_threads` event loops, each with its own epoll instance and an
//     eventfd wakeup.  The listener is owned by loop 0; accepted
//     connections are handed out round-robin.
//   * All connection state except the outbox is touched ONLY by the owning
//     loop thread.  Service workers deliver completed responses by pushing
//     the rendered line into the connection's mutex-protected outbox and
//     listing the connection as dirty; the first listing of a batch kicks
//     the loop's eventfd, and the loop moves outbox lines into the write
//     buffer and flushes.  A response completed inline while its line is
//     parsed (a memo hit, a shed) goes out in the same pass, with no kick.
//   * A pass is one turn of a loop: the events of one epoll_wait, the
//     dirty connections, and then the work at_pass_end() deferred.
//
// Backpressure, bounded everywhere:
//   * per-connection inflight cap: parsing pauses (and EPOLLIN is
//     disarmed) while `max_inflight_per_conn` requests are unanswered;
//   * per-connection write-buffer cap: a slow reader stops being read
//     from until it drains its responses;
//   * per-line byte cap (HandlerConfig::max_line_bytes): an oversized line
//     answers {"status":"invalid_argument"} and is discarded up to the next
//     newline -- the connection survives;
//   * service-level admission control flows through unchanged: a shed
//     query completes its callback with kOverloaded + retry_after_ms, which
//     renders onto the wire like any other envelope.
//
// Control ops ({"op":"stats"|"metrics"|"trace"}) promise counters that
// reconcile with everything submitted before them, so the connection stops
// parsing until its own inflight count reaches zero, answers the control
// op, then resumes.  Path-bearing control ops (metrics/trace naming a
// filesystem "path") are rejected on this transport: the default
// HandlerConfig::allow_control_paths stays off, because a remote client
// must not be able to create or truncate server-side files.
//
// Lifecycle: start() binds and spawns the loops; stop() closes everything
// immediately; drain() (the SIGTERM path) closes the listener, lets
// inflight queries finish and flushes their responses, then closes --
// force-closing connections still busy after 10 s.  Idle connections (no
// traffic for `idle_timeout`) are closed by their loop.  The Server must be
// destroyed BEFORE the QueryService it serves (completion callbacks hold
// weak references, so late completions after stop() are safely dropped).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/backend.hpp"
#include "net/socket.hpp"
#include "service/handler.hpp"

namespace wfc::net {

/// Runs `work` when the calling thread's io-loop pass ends, after the
/// pass has dispatched every event it got, so that what the pass queued
/// leaves in one batch; on a thread that is not a Server io loop, runs it
/// at once.  cluster::Router flushes its upstream connections this way.
/// `work` must not throw.
void at_pass_end(std::function<void()> work);

struct ServerConfig {
  Endpoint listen;  // port 0 = ephemeral (read back via Server::port())
  /// Event-loop threads.  Loop 0 also owns the listener.
  int io_threads = 2;
  /// Per-line protocol behavior (envelope, line cap, default max_level).
  /// Used only by the QueryService constructor, which builds the
  /// ServiceBackend from it; a caller-supplied LineBackend carries its own
  /// configuration and ignores this field.
  svc::HandlerConfig handler;
  /// Unanswered requests per connection before parsing pauses.
  std::size_t max_inflight_per_conn = 128;
  /// Buffered unsent response bytes per connection before reading pauses.
  std::size_t max_write_buffer = 4u << 20;
  /// Close connections with no traffic for this long; zero disables.  A
  /// client with unsent responses that makes no read progress for a full
  /// idle period counts as idle (and is force-closed) -- its silence pins
  /// up to max_write_buffer of rendered responses otherwise.
  std::chrono::milliseconds idle_timeout{0};
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default.  Small
  /// values surface write backpressure after a few KB (a tuning / test
  /// knob; the idle-timeout tests rely on it).
  int sndbuf_bytes = 0;
};

class Server {
 public:
  /// Wire-level counters, all monotone except `active`.  Always on
  /// (lifecycle counts are plain atomics, per-line/per-byte counts are
  /// sharded wf::Counters).  When the backend's observability is enabled,
  /// start() registers the wfc_net_* series as views of these fields in
  /// its registry; the views share the counters, so an exposition written
  /// after this Server is destroyed still reports its final counts.
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;      // every close, any reason
    std::uint64_t dropped = 0;     // forced: error / idle timeout / drain cap
    std::uint64_t active = 0;
    std::uint64_t requests = 0;    // lines submitted as queries
    std::uint64_t responses = 0;   // envelope lines queued to the wire
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t oversized_lines = 0;
  };

  /// Serve a local QueryService through the shared protocol handler
  /// (ServiceBackend built from config.handler); `service` must outlive the
  /// Server.
  Server(svc::QueryService& service, ServerConfig config);
  /// Serve an arbitrary line protocol; `backend` must outlive the Server.
  Server(LineBackend& backend, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the io threads.  Throws std::system_error
  /// (bind/listen failure) or std::invalid_argument (bad address).
  void start();

  /// The bound listening port (valid after start(); resolves port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Immediate shutdown: closes the listener and every connection without
  /// waiting for inflight queries (their completions are dropped).
  /// Idempotent.
  void stop();

  /// Graceful shutdown: stop accepting, keep serving until every
  /// connection's inflight queries have answered and flushed (or 10 s
  /// pass, then force-close), then stop.  Idempotent with stop().
  void drain();

  [[nodiscard]] Stats stats() const;

 private:
  struct Loop;
  struct Conn;

  void loop_thread(const std::shared_ptr<Loop>& loop, bool is_acceptor);
  void handle_accept(const std::shared_ptr<Loop>& loop);
  void adopt_incoming(const std::shared_ptr<Loop>& loop);
  void handle_dirty(const std::shared_ptr<Loop>& loop);
  /// Moves completed outbox lines into the write buffer, answers a gated
  /// control op once inflight hits zero, resumes parsing (taking what it
  /// answered inline), flushes, and closes if fully drained.  The shared
  /// tail of the dirty and readable paths.
  void drain_conn(const std::shared_ptr<Loop>& loop,
                  const std::shared_ptr<Conn>& conn);
  /// Moves the outbox into the write buffer; false when it was empty.
  bool take_outbox(Conn& conn);
  /// The end of a pass: runs the deferred work and drains what this
  /// loop's own thread listed dirty, until neither is left.
  void finish_pass(const std::shared_ptr<Loop>& loop);
  void handle_readable(const std::shared_ptr<Loop>& loop,
                       const std::shared_ptr<Conn>& conn);
  void process_rbuf(const std::shared_ptr<Loop>& loop,
                    const std::shared_ptr<Conn>& conn);
  void handle_line(const std::shared_ptr<Loop>& loop,
                   const std::shared_ptr<Conn>& conn, std::string_view line);
  void flush_writes(const std::shared_ptr<Loop>& loop,
                    const std::shared_ptr<Conn>& conn);
  void update_interest(const std::shared_ptr<Loop>& loop,
                       const std::shared_ptr<Conn>& conn);
  void close_conn(const std::shared_ptr<Loop>& loop,
                  const std::shared_ptr<Conn>& conn, bool forced);
  void sweep_idle(const std::shared_ptr<Loop>& loop);
  /// True once a draining connection has nothing left to do.
  static bool drained(const Conn& conn);
  void init_metrics();

  ServerConfig config_;
  /// Set by the QueryService constructor flavor; backend_ points at it.
  std::unique_ptr<ServiceBackend> owned_backend_;
  LineBackend* backend_ = nullptr;
  std::uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point drain_deadline_{};

  Fd listener_;
  std::vector<std::shared_ptr<Loop>> loops_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint32_t> next_loop_{0};

  // Wire counters (see Stats), shared with the registry's views.
  struct Counters;
  std::shared_ptr<Counters> counters_;
  // Owned wire RTT histogram; null when observability is disabled.
  obs::Histogram* rtt_us_ = nullptr;
};

}  // namespace wfc::net
