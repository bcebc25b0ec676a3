// POSIX socket primitives for wfc::net -- a RAII fd, "host:port" parsing,
// and the listen/connect helpers shared by the server, the client library,
// and the load generator.  Linux-only (epoll lives in server.cpp; this file
// is plain Berkeley sockets + fcntl).
//
// Everything reports failure with std::system_error carrying errno, so
// callers see "bind: address already in use" instead of a bare -1.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

namespace wfc::net {

/// Owning file descriptor: closes on destruction, move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int release() { return std::exchange(fd_, -1); }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// An IPv4 "host:port" endpoint.  Port 0 asks the kernel for an ephemeral
/// port (the bound port is readable back via listen_tcp's out-param).
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Parses "host:port" ("127.0.0.1:7777", ":0" for any port on localhost).
/// Throws std::invalid_argument on malformed input.
Endpoint parse_endpoint(const std::string& spec);

/// Creates a nonblocking listening socket bound to `ep` (SO_REUSEADDR,
/// numeric IPv4 host only).  On return *bound_port is the actual port
/// (resolves port 0).  Throws std::system_error.
Fd listen_tcp(const Endpoint& ep, std::uint16_t* bound_port, int backlog = 128);

/// Blocking connect to `ep` with TCP_NODELAY.  Throws std::system_error.
/// A nonzero `timeout` bounds the connect attempt: past it the call throws
/// std::system_error(ETIMEDOUT) instead of blocking for the kernel's SYN
/// retry budget (minutes) -- required plumbing for breaker probes and
/// hedged requests, which must fail fast on a dead shard.
Fd connect_tcp(const Endpoint& ep,
               std::chrono::milliseconds timeout = std::chrono::milliseconds{
                   0});

/// Starts a nonblocking connect to `ep` and returns the nonblocking,
/// TCP_NODELAY socket.  *connected tells whether the connect already
/// completed; otherwise it completes when the socket turns writable, and
/// socket_error() then tells how.  Throws std::system_error (or
/// std::invalid_argument for a bad address) when it fails at once.
Fd start_connect(const Endpoint& ep, bool* connected);

/// SO_ERROR of `fd`: 0, or the errno its pending connect failed with.
int socket_error(int fd);

/// fcntl(O_NONBLOCK) toggle.  Throws std::system_error.
void set_nonblocking(int fd, bool nonblocking);

/// setsockopt(TCP_NODELAY) -- response lines are latency-sensitive and tiny.
void set_nodelay(int fd);

}  // namespace wfc::net
