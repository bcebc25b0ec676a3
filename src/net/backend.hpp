// net::LineBackend -- the seam between the epoll front tier (server.hpp)
// and whatever answers the lines.
//
// PR 6 splits the TCP server in two: the transport half (accept loops,
// framing, backpressure, idle sweep, graceful drain) is generic over any
// newline-framed protocol, and the protocol half is a LineBackend.  Two
// backends exist today:
//
//   * ServiceBackend (below) -- the PR-5 behavior: lines go through the
//     shared svc::RequestHandler into a local QueryService;
//   * cluster::Router (cluster/router.hpp) -- lines are consistent-hash
//     routed to remote wfc_serve shards over pooled clients.
//
// Contract per input line (the server calls on_line from its io threads,
// one call per framed line, line numbers 1-based per connection):
//
//   kSkip       blank / comment; no response line.
//   kRespond    `response` is the complete response, ready now (parse
//               errors, memoized rejections, oversized lines).
//   kControl    a control op whose answer must reconcile with everything
//               this CONNECTION submitted before it; the server waits for
//               the connection's inflight count to reach zero, then calls
//               control() with the same line.
//   kSubmitted  accepted for asynchronous completion; `done` will be
//               invoked with the rendered response EXACTLY ONCE, from any
//               thread (possibly inline, before on_line returns).  `done`
//               only enqueues and never throws.
//
// Lines longer than max_line_bytes() must come back kRespond with an error
// record -- the server also uses the bound to reject a line mid-stream,
// before its newline ever arrives.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "service/handler.hpp"

namespace wfc::net {

class LineBackend {
 public:
  /// Delivers one rendered response line (no trailing newline).  Calls may
  /// come from any thread; implementations only enqueue.
  using Done = std::function<void(std::string&&)>;

  struct Outcome {
    enum class Kind { kSkip, kRespond, kControl, kSubmitted };
    Kind kind = Kind::kSkip;
    std::string response;  // kRespond only
  };

  virtual ~LineBackend() = default;

  /// Classifies and (for kSubmitted) submits one input line.
  virtual Outcome on_line(std::string_view line, int line_no, Done done) = 0;

  /// Answers a line on_line classified kControl, after the server flushed
  /// the connection's inflight requests.
  virtual std::string control(std::string_view line, int line_no) = 0;

  /// Request-line byte bound; 0 disables.  The server rejects a line past
  /// the bound without buffering it to completion.
  [[nodiscard]] virtual std::size_t max_line_bytes() const = 0;

  /// The obs facade that exports the server's wire counters (as views)
  /// and records its connection spans; null (or a disabled observer) leaves
  /// wire obs off.
  [[nodiscard]] virtual obs::Observer* observer() { return nullptr; }
};

/// The local-execution backend: lines feed a QueryService through the
/// transport-agnostic svc::RequestHandler, exactly as the stdin front-end
/// does.  One instance is safe to share across io threads.
class ServiceBackend : public LineBackend {
 public:
  ServiceBackend(svc::QueryService& service, svc::HandlerConfig config)
      : service_(service), handler_(service, std::move(config)) {}

  Outcome on_line(std::string_view line, int line_no, Done done) override;
  std::string control(std::string_view line, int line_no) override;
  [[nodiscard]] std::size_t max_line_bytes() const override {
    return handler_.config().max_line_bytes;
  }
  [[nodiscard]] obs::Observer* observer() override {
    return &service_.observer();
  }

 private:
  svc::QueryService& service_;
  svc::RequestHandler handler_;
};

}  // namespace wfc::net
