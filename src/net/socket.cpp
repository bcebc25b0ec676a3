#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace wfc::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_in make_addr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument("not a numeric IPv4 address: \"" + ep.host +
                                "\"");
  }
  return addr;
}

}  // namespace

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Endpoint parse_endpoint(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("endpoint \"" + spec +
                                "\" is not host:port");
  }
  Endpoint ep;
  if (colon != 0) ep.host = spec.substr(0, colon);
  const std::string port = spec.substr(colon + 1);
  try {
    std::size_t pos = 0;
    const int value = std::stoi(port, &pos);
    if (pos != port.size() || value < 0 || value > 65535) {
      throw std::invalid_argument(port);
    }
    ep.port = static_cast<std::uint16_t>(value);
  } catch (const std::exception&) {
    throw std::invalid_argument("endpoint \"" + spec +
                                "\": bad port \"" + port + "\"");
  }
  return ep;
}

Fd listen_tcp(const Endpoint& ep, std::uint16_t* bound_port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr = make_addr(ep);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind");
  }
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen");
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual), &len) !=
        0) {
      throw_errno("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

Fd connect_tcp(const Endpoint& ep, std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0) {
    Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid()) throw_errno("socket");
    sockaddr_in addr = make_addr(ep);
    int rc;
    do {
      rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) throw_errno("connect");
    set_nodelay(fd.get());
    return fd;
  }
  // Bounded connect: nonblocking connect, poll for writability up to the
  // deadline, then read the outcome back with SO_ERROR.
  bool connected = false;
  Fd fd = start_connect(ep, &connected);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!connected) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      errno = ETIMEDOUT;
      throw_errno("connect");
    }
    pollfd pfd{fd.get(), POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll(connect)");
    }
    if (ready == 0) continue;  // re-check the deadline
    if (const int err = socket_error(fd.get()); err != 0) {
      errno = err;
      throw_errno("connect");
    }
    connected = true;
  }
  set_nonblocking(fd.get(), false);
  return fd;
}

Fd start_connect(const Endpoint& ep, bool* connected) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  sockaddr_in addr = make_addr(ep);
  set_nodelay(fd.get());
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINPROGRESS) throw_errno("connect");
  *connected = rc == 0;
  return fd;
}

int socket_error(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return errno;
  return err;
}

void set_nonblocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int next = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, next) != 0) throw_errno("fcntl(F_SETFL)");
}

void set_nodelay(int fd) {
  const int one = 1;
  // Best effort: TCP_NODELAY fails on AF_UNIX etc., which tests may use.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace wfc::net
