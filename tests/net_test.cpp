// Tests for the wfc::net serving layer: loopback round-trips for every
// protocol op, pipelined out-of-order completion matched on the "id" echo,
// slow-reader and inflight backpressure, oversized / CRLF / mid-line-EOF
// framing edges, idle timeouts, graceful drain, the blocking client, the
// load generator's exactly-once accounting, and a multi-connection storm
// (the TSan job runs this binary).
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exposition.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "service/jsonl.hpp"
#include "service/query_service.hpp"

namespace wfc::net {
namespace {

using Fields = std::map<std::string, std::string>;

svc::QueryService::Options service_options(int workers = 4) {
  svc::QueryService::Options options;
  options.workers = workers;
  options.obs.enabled = true;
  return options;
}

/// A QueryService plus a started Server on an ephemeral loopback port.
/// Declaration order destroys the Server first, as the contract requires.
struct TestServer {
  explicit TestServer(ServerConfig config = {},
                      svc::QueryService::Options options = service_options())
      : service(std::move(options)), server(service, std::move(config)) {
    server.start();
  }

  [[nodiscard]] Client connect() const {
    return Client(ClientConfig{Endpoint{"127.0.0.1", server.port()}});
  }

  svc::QueryService service;
  Server server;
};

Fields parse(const std::string& line) { return svc::parse_flat_json(line); }

std::string field(const Fields& fields, const std::string& key) {
  const auto it = fields.find(key);
  return it == fields.end() ? std::string() : it->second;
}

// ---------------------------------------------------------------------------
// Endpoint parsing.
// ---------------------------------------------------------------------------

TEST(ParseEndpoint, HostPortAndDefaults) {
  const Endpoint a = parse_endpoint("127.0.0.1:7411");
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 7411);
  const Endpoint b = parse_endpoint(":0");
  EXPECT_EQ(b.host, "127.0.0.1");
  EXPECT_EQ(b.port, 0);
  EXPECT_THROW(parse_endpoint("no-port"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:notanumber"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:99999"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Loopback round-trips: every op of the protocol over real TCP.
// ---------------------------------------------------------------------------

TEST(NetServer, RoundTripsEveryOp) {
  TestServer ts;
  Client client = ts.connect();

  // solve: the Prop 3.1 characterization.
  Fields solve = parse(client.roundtrip(
      R"({"id":"s1","op":"solve","task":"consensus","procs":2,"values":2})"));
  EXPECT_EQ(field(solve, "id"), "s1");
  EXPECT_EQ(field(solve, "status"), "ok");
  EXPECT_EQ(field(solve, "verdict"), "UNSOLVABLE");

  // convergence: the §5 compilation.
  Fields conv = parse(client.roundtrip(
      R"({"id":"c1","op":"convergence","procs":2,"depth":1,"max_level":4})"));
  EXPECT_EQ(field(conv, "id"), "c1");
  EXPECT_EQ(field(conv, "status"), "ok");

  // emulate: the §4 Figure 2 emulation.
  Fields emu = parse(client.roundtrip(
      R"({"id":"e1","op":"emulate","procs":2,"shots":1})"));
  EXPECT_EQ(field(emu, "id"), "e1");
  EXPECT_EQ(field(emu, "status"), "ok");
  EXPECT_EQ(field(emu, "verdict"), "OK");

  // check: a bounded wfc::chk sweep.
  Fields check = parse(client.roundtrip(
      R"({"id":"k1","op":"check","target":"linearizability","procs":2,)"
      R"("rounds":1})"));
  EXPECT_EQ(field(check, "id"), "k1");
  EXPECT_EQ(field(check, "status"), "ok");
  EXPECT_EQ(field(check, "verdict"), "OK");

  // stats: the raw one-line service counters (not a JSON envelope, same as
  // the stdin transport).
  const std::string stats = client.roundtrip(R"({"op":"stats"})");
  EXPECT_NE(stats.find("submitted="), std::string::npos);

  // metrics: counters must reconcile once everything above is terminal.
  Fields metrics = parse(client.roundtrip(R"({"id":"m1","op":"metrics"})"));
  EXPECT_EQ(field(metrics, "id"), "m1");
  EXPECT_EQ(field(metrics, "status"), "ok");
  EXPECT_EQ(field(metrics, "reconciles"), "true");

  // trace: requires a filesystem "path", which the TCP transport rejects --
  // a remote client must not be able to write server-side files.  The
  // connection survives the refusal.
  const std::string trace_path = "net_test_trace.json";
  Fields trace = parse(client.roundtrip(
      R"({"id":"t1","op":"trace","path":")" + trace_path + R"("})"));
  EXPECT_EQ(field(trace, "id"), "t1");
  EXPECT_EQ(field(trace, "status"), "invalid_argument");
  EXPECT_FALSE(std::ifstream(trace_path).good());

  // Unknown ops answer an error record and keep the connection alive.
  Fields unknown = parse(client.roundtrip(R"({"id":"x1","op":"frobnicate"})"));
  EXPECT_EQ(field(unknown, "id"), "x1");
  EXPECT_EQ(field(unknown, "status"), "invalid_argument");
  Fields after = parse(client.roundtrip(
      R"({"id":"s2","op":"solve","task":"consensus","procs":2,"values":2})"));
  EXPECT_EQ(field(after, "status"), "ok");

  const Server::Stats wire = ts.server.stats();
  EXPECT_EQ(wire.accepted, 1u);
  EXPECT_GT(wire.bytes_read, 0u);
  EXPECT_GT(wire.bytes_written, 0u);
}

// Path-bearing control ops are a remote file-write primitive, so the TCP
// transport refuses them (the stdin front-end, an operator's own shell,
// still allows them).
TEST(NetServer, ControlPathOpsAreRejectedOverTcp) {
  TestServer ts;
  Client client = ts.connect();
  const std::string path = "net_test_should_not_exist.prom";
  Fields metrics = parse(client.roundtrip(
      R"({"id":"m","op":"metrics","path":")" + path + R"("})"));
  EXPECT_EQ(field(metrics, "id"), "m");
  EXPECT_EQ(field(metrics, "status"), "invalid_argument");
  EXPECT_FALSE(std::ifstream(path).good());
  // Path-free metrics still answers on the same connection.
  Fields ok = parse(client.roundtrip(R"({"id":"m2","op":"metrics"})"));
  EXPECT_EQ(field(ok, "status"), "ok");
}

// Iterated-SDS towers grow exponentially with "depth" and are built on the
// io thread, so the handler caps the field at parse time.
TEST(NetServer, DepthOverTheCapIsRejected) {
  TestServer ts;
  Client client = ts.connect();
  Fields deep = parse(client.roundtrip(
      R"({"id":"d","op":"convergence","procs":2,"depth":64})"));
  EXPECT_EQ(field(deep, "id"), "d");
  EXPECT_EQ(field(deep, "status"), "invalid_argument");
  Fields ok = parse(client.roundtrip(
      R"({"id":"d2","op":"convergence","procs":2,"depth":1,"max_level":4})"));
  EXPECT_EQ(field(ok, "status"), "ok");
}

// ---------------------------------------------------------------------------
// Pipelining: responses complete out of order and match on the id echo.
// ---------------------------------------------------------------------------

TEST(NetServer, PipelinedResponsesCompleteOutOfOrder) {
  TestServer ts;
  Client client = ts.connect();
  // Warm the result memo so the fast query completes inline at parse time.
  client.roundtrip(
      R"({"id":"warm","op":"solve","task":"consensus","procs":2,"values":2})");

  // A rounds=3 check sweep takes tens of milliseconds on a worker; the
  // memo hit answers in microseconds on the io thread, so "fast" overtakes
  // "slow" with a wide margin (rounds=2 was only ~1 ms and lost the race
  // on loaded machines).  One write carries both lines, so the server
  // parses them back to back.
  client.send_line(
      R"({"id":"slow","op":"check","target":"sds","procs":3,"rounds":3,)"
      R"("crashes":1})"
      "\n"
      R"({"id":"fast","op":"solve","task":"consensus","procs":2,"values":2})");

  std::optional<std::string> first = client.recv_line();
  std::optional<std::string> second = client.recv_line();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(field(parse(*first), "id"), "fast");
  EXPECT_EQ(field(parse(*second), "id"), "slow");
  EXPECT_EQ(field(parse(*second), "status"), "ok");
}

TEST(NetServer, PipelinedBatchAnswersEveryId) {
  TestServer ts;
  Client client = ts.connect();
  const int kBatch = 64;
  for (int i = 0; i < kBatch; ++i) {
    client.send_line(R"({"id":"b)" + std::to_string(i) +
                     R"(","op":"solve","task":"consensus","procs":2,)"
                     R"("values":2})");
  }
  std::set<std::string> seen;
  for (int i = 0; i < kBatch; ++i) {
    std::optional<std::string> line = client.recv_line();
    ASSERT_TRUE(line.has_value());
    const Fields fields = parse(*line);
    EXPECT_EQ(field(fields, "status"), "ok");
    EXPECT_TRUE(seen.insert(field(fields, "id")).second);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kBatch));
}

// ---------------------------------------------------------------------------
// Backpressure: a slow reader with a tiny write buffer and inflight cap
// still gets every response exactly once -- reading just pauses.
// ---------------------------------------------------------------------------

TEST(NetServer, SlowReaderWithTinyBuffersGetsEveryResponse) {
  ServerConfig config;
  config.max_inflight_per_conn = 4;
  config.max_write_buffer = 512;
  TestServer ts(std::move(config));
  Client client = ts.connect();

  const int kBatch = 128;
  for (int i = 0; i < kBatch; ++i) {
    client.send_line(R"({"id":"q)" + std::to_string(i) +
                     R"(","op":"solve","task":"consensus","procs":2,)"
                     R"("values":2})");
  }
  // Responses (~130 bytes each) exceed the 512-byte write buffer many
  // times over; do not read until everything is sent.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::set<std::string> seen;
  for (int i = 0; i < kBatch; ++i) {
    std::optional<std::string> line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << "response " << i;
    EXPECT_TRUE(seen.insert(field(parse(*line), "id")).second);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kBatch));
}

// ---------------------------------------------------------------------------
// Framing edges.
// ---------------------------------------------------------------------------

TEST(NetServer, OversizedLineAnswersErrorAndConnectionSurvives) {
  ServerConfig config;
  config.handler.max_line_bytes = 256;
  TestServer ts(std::move(config));
  Client client = ts.connect();

  Fields oversized =
      parse(client.roundtrip(std::string(1024, 'x')));
  EXPECT_EQ(field(oversized, "status"), "invalid_argument");

  Fields after = parse(client.roundtrip(
      R"({"id":"ok","op":"solve","task":"consensus","procs":2,"values":2})"));
  EXPECT_EQ(field(after, "id"), "ok");
  EXPECT_EQ(field(after, "status"), "ok");
  EXPECT_EQ(ts.server.stats().oversized_lines, 1u);
}

TEST(NetServer, CrlfCommentsAndBlanksAreTolerated) {
  TestServer ts;
  Client client = ts.connect();
  // Blank lines and comments produce no response; CRLF line endings are
  // stripped before parsing.  The stats control op is gated on the
  // connection's inflight count, so the solve answers first.
  client.send_line("");
  client.send_line("# a comment\r");
  client.send_line(
      "{\"id\":\"crlf\",\"op\":\"solve\",\"task\":\"consensus\","
      "\"procs\":2,\"values\":2}\r");
  client.send_line(R"({"op":"stats"})");
  std::optional<std::string> first = client.recv_line();
  std::optional<std::string> second = client.recv_line();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(field(parse(*first), "id"), "crlf");
  EXPECT_EQ(field(parse(*first), "status"), "ok");
  EXPECT_NE(second->find("submitted="), std::string::npos);
}

TEST(NetServer, MidLineEofProcessesTheFinalLine) {
  TestServer ts;
  Client client = ts.connect();
  // Raw send WITHOUT the trailing newline: the half-close makes the
  // partial line final and it is processed as if terminated.
  const std::string partial =
      R"({"id":"last","op":"solve","task":"consensus","procs":2,"values":2})";
  ASSERT_EQ(::send(client.fd(), partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  client.shutdown_write();
  std::optional<std::string> line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(field(parse(*line), "id"), "last");
  EXPECT_EQ(field(parse(*line), "status"), "ok");
  EXPECT_FALSE(client.recv_line().has_value());  // then EOF
}

TEST(NetServer, HalfCloseAnswersEverythingThenEof) {
  TestServer ts;
  Client client = ts.connect();
  for (int i = 0; i < 8; ++i) {
    client.send_line(R"({"id":"h)" + std::to_string(i) +
                     R"(","op":"solve","task":"consensus","procs":2,)"
                     R"("values":2})");
  }
  client.shutdown_write();
  int responses = 0;
  while (std::optional<std::string> line = client.recv_line()) {
    EXPECT_EQ(field(parse(*line), "status"), "ok");
    ++responses;
  }
  EXPECT_EQ(responses, 8);
}

// ---------------------------------------------------------------------------
// Idle timeout and graceful drain.
// ---------------------------------------------------------------------------

TEST(NetServer, IdleConnectionsAreClosed) {
  ServerConfig config;
  config.idle_timeout = std::chrono::milliseconds(100);
  TestServer ts(std::move(config));
  Client client = ts.connect();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.recv_line().has_value());  // server closes us
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
  // A busy connection is NOT idle-closed: inflight queries hold it open.
  Client busy = ts.connect();
  Fields fields = parse(busy.roundtrip(
      R"({"id":"b","op":"check","target":"sds","procs":2,"rounds":2,)"
      R"("crashes":1})"));
  EXPECT_EQ(field(fields, "status"), "ok");
}

// A client that fills its receive window and stops reading must still be
// idle-closed: EPOLLOUT never fires for a peer that stops reading, so
// before the stalled-writer fix such a connection (and its buffered
// responses) was pinned forever.
TEST(NetServer, StalledReaderWithUnsentBytesIsIdleClosed) {
  ServerConfig config;
  config.idle_timeout = std::chrono::milliseconds(100);
  config.sndbuf_bytes = 4096;  // surface write backpressure after a few KB
  TestServer ts(std::move(config));
  Client client = ts.connect();
  int rcvbuf = 4096;
  ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  // Warm the memo so the flood below answers inline and cheaply.
  client.roundtrip(
      R"({"id":"w","op":"solve","task":"consensus","procs":2,"values":2})");
  // Far more response bytes than the two socket buffers can absorb; never
  // read any of them.
  for (int i = 0; i < 4000; ++i) {
    client.send_line(R"({"id":"p)" + std::to_string(i) +
                     R"(","op":"solve","task":"consensus","procs":2,)"
                     R"("values":2})");
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (ts.server.stats().active > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(ts.server.stats().active, 0u);
  EXPECT_GE(ts.server.stats().dropped, 1u);
}

TEST(NetServer, DrainFlushesInflightThenCloses) {
  auto ts = std::make_unique<TestServer>();
  Client client = ts->connect();
  client.send_line(
      R"({"id":"inflight","op":"check","target":"sds","procs":2,"rounds":2,)"
      R"("crashes":1})");
  // Wait until the server has submitted the query, then drain.
  while (ts->server.stats().requests == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread drainer([&] { ts->server.drain(); });
  std::optional<std::string> line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(field(parse(*line), "id"), "inflight");
  EXPECT_EQ(field(parse(*line), "status"), "ok");
  EXPECT_FALSE(client.recv_line().has_value());  // drained connections close
  drainer.join();
  // A drained server refuses new connections.
  EXPECT_THROW(ts->connect(), std::system_error);
}

// ---------------------------------------------------------------------------
// Wire metrics: the wfc_net_* series are views of Server::Stats.
// ---------------------------------------------------------------------------

TEST(NetMetrics, WireViewsEqualServerStatsAfterATcpRun) {
  TestServer ts;
  const std::vector<std::string> corpus = {
      R"({"op":"solve","task":"consensus","procs":2,"values":2})",
      R"({"op":"emulate","procs":2,"shots":1})",
  };
  LoadgenConfig config;
  config.server = Endpoint{"127.0.0.1", ts.server.port()};
  config.connections = 4;
  config.iterations = 5;
  const LoadgenReport report = run_loadgen(corpus, config);
  ASSERT_TRUE(report.exactly_once());
  // Let the server close every connection so its counters stop moving.
  while (ts.server.stats().active != 0 ||
         ts.server.stats().closed != ts.server.stats().accepted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const Server::Stats wire = ts.server.stats();
  const std::string text = exposition_of(ts.service.observer());
  EXPECT_EQ(exposed_value(text, "wfc_net_accepted_total"), wire.accepted);
  EXPECT_EQ(exposed_value(text, "wfc_net_closed_total"), wire.closed);
  EXPECT_EQ(exposed_value(text, "wfc_net_dropped_total"), wire.dropped);
  EXPECT_EQ(exposed_value(text, "wfc_net_requests_total"), wire.requests);
  EXPECT_EQ(exposed_value(text, "wfc_net_responses_total"), wire.responses);
  EXPECT_EQ(exposed_value(text, "wfc_net_bytes_read_total"),
            wire.bytes_read);
  EXPECT_EQ(exposed_value(text, "wfc_net_bytes_written_total"),
            wire.bytes_written);
  EXPECT_EQ(exposed_value(text, "wfc_net_active_connections"), wire.active);
  EXPECT_EQ(wire.accepted, 4u);
  EXPECT_EQ(wire.requests, report.sent);
  EXPECT_GT(wire.bytes_read, 0u);
}

// The server registers its views in the service's registry and is
// destroyed first; the views share the counters, so a later export still
// reads the final counts instead of a dead Server.
TEST(NetMetrics, WireViewsOutliveTheServer) {
  svc::QueryService service(service_options());
  constexpr int kRequests = 5;
  {
    Server server(service, ServerConfig{});
    server.start();
    Client client(ClientConfig{Endpoint{"127.0.0.1", server.port()}});
    for (int i = 0; i < kRequests; ++i) {
      EXPECT_EQ(field(parse(client.roundtrip(
                          R"({"op":"solve","task":"consensus","procs":2,)"
                          R"("values":2})")),
                      "status"),
                "ok");
    }
  }
  const std::string text = exposition_of(service.observer());
  EXPECT_NE(text.find("\nwfc_net_requests_total " +
                      std::to_string(kRequests) + "\n"),
            std::string::npos)
      << text;
  // The view is the only copy: an owned counter under its name is refused
  // rather than handed out reading zero.
  EXPECT_THROW(service.observer().metrics().counter("wfc_net_requests_total"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

TEST(NetClient, ConnectToClosedPortThrows) {
  // Bind-then-close yields a port that is (very likely) refusing.
  std::uint16_t port = 0;
  { Fd listener = listen_tcp(Endpoint{"127.0.0.1", 0}, &port); }
  EXPECT_THROW(Client(ClientConfig{Endpoint{"127.0.0.1", port}}),
               std::system_error);
}

TEST(NetClient, RejectsOversizedResponseLines) {
  TestServer ts;
  ClientConfig config;
  config.server = Endpoint{"127.0.0.1", ts.server.port()};
  config.max_line_bytes = 64;  // envelopes are longer than this
  Client client(std::move(config));
  client.send_line(
      R"({"id":"s","op":"solve","task":"consensus","procs":2,"values":2})");
  EXPECT_THROW(client.recv_line(), std::runtime_error);
}

/// Reads and discards bytes on `fd` until the peer closes (or 5 s pass):
/// keeps a scripted connection open without ever answering, and returns
/// promptly when the client hangs up so test teardown joins fast.
void drain_until_eof(int fd) {
  char sink[256];
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 5000) <= 0) return;
    if (::recv(fd, sink, sizeof(sink), 0) <= 0) return;
  }
}

/// A scripted raw TCP peer: accepts exactly one connection and hands it to
/// `script`, which owns it (the Fd closes when the script returns).
struct RawPeer {
  explicit RawPeer(std::function<void(Fd)> script) {
    listener = listen_tcp(Endpoint{"127.0.0.1", 0}, &port);
    thread = std::thread([this, script = std::move(script)] {
      pollfd accept_poll{listener.get(), POLLIN, 0};
      if (::poll(&accept_poll, 1, 5000) <= 0) return;
      Fd conn(::accept(listener.get(), nullptr, nullptr));
      if (conn.valid()) script(std::move(conn));
    });
  }
  ~RawPeer() { thread.join(); }

  Fd listener;
  std::uint16_t port = 0;
  std::thread thread;
};

TEST(NetClient, RecvTimeoutFiresOnSilentServer) {
  RawPeer peer([](Fd conn) { drain_until_eof(conn.get()); });
  ClientConfig config;
  config.server = Endpoint{"127.0.0.1", peer.port};
  config.recv_timeout = std::chrono::milliseconds(100);
  Client client(std::move(config));
  client.send_line(R"({"id":"t","op":"stats"})");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.recv_line(), TimeoutError);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(90));
}

TEST(NetClient, RecvTimeoutCoversAPartialLine) {
  // The peer trickles half a line and stalls: the deadline bounds the
  // whole recv_line() call, not just the first byte.
  RawPeer peer([](Fd conn) {
    const char partial[] = "{\"id\":\"t\",\"sta";
    (void)::send(conn.get(), partial, sizeof(partial) - 1, MSG_NOSIGNAL);
    drain_until_eof(conn.get());
  });
  ClientConfig config;
  config.server = Endpoint{"127.0.0.1", peer.port};
  config.recv_timeout = std::chrono::milliseconds(100);
  Client client(std::move(config));
  client.send_line(R"({"id":"t","op":"stats"})");
  EXPECT_THROW(client.recv_line(), TimeoutError);
}

TEST(NetClient, PeerResetMidLineThrowsSystemError) {
  RawPeer peer([](Fd conn) {
    const char partial[] = "{\"id\":\"t\",\"sta";
    (void)::send(conn.get(), partial, sizeof(partial) - 1, MSG_NOSIGNAL);
    // SO_LINGER with zero timeout turns the close into a hard RST.
    linger hard{};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    ::setsockopt(conn.get(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  });
  ClientConfig config;
  config.server = Endpoint{"127.0.0.1", peer.port};
  Client client(std::move(config));
  EXPECT_THROW(
      {
        // The reset can surface at the send (RST already arrived) or on
        // the first or a later read, depending on how much of the partial
        // line raced ahead of the RST.
        client.send_line(R"({"id":"t","op":"stats"})");
        while (client.recv_line().has_value()) {
        }
      },
      std::system_error);
}

TEST(NetClient, HalfCloseDrainsPipelinedBatchThenEof) {
  // A recv_timeout must not misfire while responses are flowing; after the
  // half-closed batch is fully answered the server's EOF arrives as
  // nullopt, not as a timeout or an error.
  TestServer ts;
  ClientConfig config;
  config.server = Endpoint{"127.0.0.1", ts.server.port()};
  config.recv_timeout = std::chrono::seconds(10);
  Client client(std::move(config));
  const int kBatch = 8;
  std::string batch;
  for (int i = 0; i < kBatch; ++i) {
    batch += R"({"id":"h)" + std::to_string(i) +
             R"(","op":"solve","task":"consensus","procs":2,"values":2})" +
             "\n";
  }
  client.send_raw(batch);
  client.shutdown_write();
  std::set<std::string> seen;
  while (std::optional<std::string> line = client.recv_line()) {
    const Fields fields = parse(*line);
    EXPECT_EQ(field(fields, "status"), "ok");
    EXPECT_TRUE(seen.insert(field(fields, "id")).second) << *line;
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kBatch));
  EXPECT_TRUE(client.buffered_empty());
}

TEST(NetClient, SendRawPartialWriteCompletesUnderTinySndbuf) {
  // A payload far bigger than the shrunken socket buffers forces send()
  // into the EAGAIN + poll(POLLOUT) path of send_raw (the path only taken
  // when send_timeout is set); the peer stalls first so the buffers are
  // provably full, then drains everything and reports the byte count.
  const std::size_t kPayload = 1u << 20;
  std::atomic<std::size_t> peer_received{0};
  RawPeer peer([&peer_received](Fd conn) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    char sink[4096];
    for (;;) {
      pollfd p{conn.get(), POLLIN, 0};
      if (::poll(&p, 1, 5000) <= 0) return;
      const ssize_t n = ::recv(conn.get(), sink, sizeof(sink), 0);
      if (n <= 0) break;  // EOF: the client finished and half-closed
      peer_received.fetch_add(static_cast<std::size_t>(n));
    }
    const char done[] = "done\n";
    (void)::send(conn.get(), done, sizeof(done) - 1, MSG_NOSIGNAL);
    drain_until_eof(conn.get());
  });
  ClientConfig config;
  config.server = Endpoint{"127.0.0.1", peer.port};
  config.send_timeout = std::chrono::seconds(5);
  config.recv_timeout = std::chrono::seconds(5);
  Client client(std::move(config));
  int tiny = 4096;  // the kernel clamps/doubles; any small value works
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &tiny,
                         sizeof(tiny)),
            0);
  const std::string payload(kPayload, 'x');
  client.send_raw(payload);  // must not throw and must not truncate
  client.shutdown_write();
  const std::optional<std::string> ack = client.recv_line();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, "done");
  EXPECT_EQ(peer_received.load(), kPayload);
}

TEST(NetClient, SendRawTimesOutWhenPeerNeverDrains) {
  // The peer accepts and never reads: once the socket buffers fill, the
  // bounded sender must surface TimeoutError instead of wedging forever.
  RawPeer peer([](Fd conn) {
    pollfd p{conn.get(), POLLHUP, 0};
    (void)::poll(&p, 1, 5000);  // hold the connection open, read nothing
  });
  ClientConfig config;
  config.server = Endpoint{"127.0.0.1", peer.port};
  config.send_timeout = std::chrono::milliseconds(200);
  Client client(std::move(config));
  int tiny = 4096;
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &tiny,
                         sizeof(tiny)),
            0);
  const std::string payload(8u << 20, 'x');
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.send_raw(payload), TimeoutError);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(150));
}

// ---------------------------------------------------------------------------
// Load generator.
// ---------------------------------------------------------------------------

TEST(Loadgen, StripIdFieldHandlesEveryPosition) {
  EXPECT_EQ(strip_id_field(R"({"id":"a","op":"solve"})"), R"({"op":"solve"})");
  EXPECT_EQ(strip_id_field(R"({"op":"solve","id":"a"})"), R"({"op":"solve"})");
  EXPECT_EQ(strip_id_field(R"({"op":"x","id":"a","k":1})"),
            R"({"op":"x","k":1})");
  EXPECT_EQ(strip_id_field(R"({"id":42,"op":"x"})"), R"({"op":"x"})");
  EXPECT_EQ(strip_id_field(R"({"id":"a"})"), R"({})");
  EXPECT_EQ(strip_id_field(R"({"op":"solve"})"), R"({"op":"solve"})");
  // "id" as a VALUE is not the id field.
  EXPECT_EQ(strip_id_field(R"({"task":"id"})"), R"({"task":"id"})");
  EXPECT_EQ(strip_id_field(R"({"task":"id","id":"a"})"), R"({"task":"id"})");
}

TEST(Loadgen, StripFieldGeneralizesBeyondId) {
  // The router's deadline rewrite strips timeout_ms with the same helper.
  EXPECT_EQ(strip_field(R"({"timeout_ms":500,"op":"solve"})", "timeout_ms"),
            R"({"op":"solve"})");
  EXPECT_EQ(strip_field(R"({"op":"solve","timeout_ms":500})", "timeout_ms"),
            R"({"op":"solve"})");
  EXPECT_EQ(strip_field(R"({"a":1,"timeout_ms":500,"b":2})", "timeout_ms"),
            R"({"a":1,"b":2})");
  EXPECT_EQ(strip_field(R"({"op":"x"})", "timeout_ms"), R"({"op":"x"})");
  // The key text as a VALUE is untouched.
  EXPECT_EQ(strip_field(R"({"note":"timeout_ms"})", "timeout_ms"),
            R"({"note":"timeout_ms"})");
}

TEST(Loadgen, LoadCorpusSkipsCommentsAndValidates) {
  std::istringstream in(
      "# comment\n"
      "\n"
      "{\"id\":\"a\",\"op\":\"stats\"}\r\n"
      "{\"op\":\"metrics\"}\n");
  const std::vector<std::string> corpus = load_corpus(in);
  ASSERT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus[0], R"({"op":"stats"})");
  EXPECT_EQ(corpus[1], R"({"op":"metrics"})");

  std::istringstream bad("not json\n");
  EXPECT_THROW(load_corpus(bad), std::invalid_argument);
}

TEST(Loadgen, EmptyCorpusThrows) {
  LoadgenConfig config;
  config.server = Endpoint{"127.0.0.1", 1};
  EXPECT_THROW(run_loadgen({}, config), std::invalid_argument);
}

// The storm: many connections hammering one server with pipelining, every
// request answered exactly once, server metrics reconciling afterwards.
// This is the test the TSan CI job leans on.
TEST(Loadgen, ConnectionStormIsExactlyOnce) {
  TestServer ts;
  std::vector<std::string> corpus = {
      R"({"op":"solve","task":"consensus","procs":2,"values":2})",
      R"({"op":"solve","task":"renaming","procs":2,"names":3})",
      R"({"op":"emulate","procs":2,"shots":1})",
  };
  LoadgenConfig config;
  config.server = Endpoint{"127.0.0.1", ts.server.port()};
  config.connections = 8;
  config.iterations = 10;
  config.max_inflight = 16;
  config.check_metrics = true;
  const LoadgenReport report = run_loadgen(corpus, config);
  EXPECT_EQ(report.sent, 8u * 10u * corpus.size());
  EXPECT_EQ(report.received, report.sent);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_TRUE(report.exactly_once());
  ASSERT_TRUE(report.metrics_reconcile.has_value());
  EXPECT_TRUE(*report.metrics_reconcile);
  EXPECT_GT(report.qps, 0.0);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"exactly_once\":true"), std::string::npos);
  EXPECT_NE(json.find("\"p50_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"p999_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"status_ok\":"), std::string::npos);

  // The by_status breakdown partitions every received response.
  std::uint64_t by_status_total = 0;
  for (const auto& [status, count] : report.by_status) {
    by_status_total += count;
  }
  EXPECT_EQ(by_status_total, report.received);
  ASSERT_NE(report.by_status.count("ok"), 0u);
  EXPECT_EQ(report.by_status.at("ok"), report.received);

  const Server::Stats wire = ts.server.stats();
  EXPECT_EQ(wire.accepted, 9u);  // 8 drivers + 1 metrics probe
  EXPECT_EQ(wire.requests, report.sent);
  EXPECT_GE(wire.responses, report.sent);
}

// Open loop: pacing still delivers exactly once.
TEST(Loadgen, OpenLoopPacedRunIsExactlyOnce) {
  TestServer ts;
  std::vector<std::string> corpus = {
      R"({"op":"solve","task":"consensus","procs":2,"values":2})",
  };
  LoadgenConfig config;
  config.server = Endpoint{"127.0.0.1", ts.server.port()};
  config.connections = 2;
  config.iterations = 20;
  config.rate = 400.0;
  const LoadgenReport report = run_loadgen(corpus, config);
  EXPECT_EQ(report.sent, 2u * 20u);
  EXPECT_TRUE(report.exactly_once());
  // 40 requests at 400 qps should take roughly 100ms, not finish instantly.
  EXPECT_GT(report.seconds, 0.05);
}

}  // namespace
}  // namespace wfc::net
