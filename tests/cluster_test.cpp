// Tests for wfc::cluster: ring determinism / balance / minimal key
// movement, fingerprint routing stickiness through a live router, the id
// splice on pipelined out-of-order batches and its exact bytes both ways,
// hedging to the ring successor past a silent shard, breaker recovery
// after a shard restart, drain and remove semantics, conn-death
// re-dispatch (exactly-once across a shard kill), a wedged shard that
// stalls no other client, and the router-side control plane (info /
// cluster_stats / metrics reconciliation / trace rejection).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/ring.hpp"
#include "cluster/router.hpp"
#include "net/backend.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "service/jsonl.hpp"
#include "service/query_service.hpp"

namespace wfc::cluster {
namespace {

using Fields = std::map<std::string, std::string>;
using namespace std::chrono_literals;

Fields parse(const std::string& line) { return svc::parse_flat_json(line); }

std::string field(const Fields& fields, const std::string& key) {
  const auto it = fields.find(key);
  return it == fields.end() ? std::string() : it->second;
}

/// The router's routing key for a consensus solve -- mirrors make_key so
/// tests can predict which shard owns a query without sending it.
std::uint64_t consensus_key(int values) {
  return fnv1a64("procs=2;task=consensus;values=" + std::to_string(values) +
                 ";");
}

/// Finds a consensus `values` parameter whose fingerprint lands on
/// `target` in `ring`.  The search is tiny: each try hits a given shard
/// with probability ~1/size.
int consensus_values_owned_by(const Ring& ring, const std::string& target) {
  for (int v = 2; v < 40; ++v) {
    if (ring.pick(consensus_key(v)) == target) return v;
  }
  ADD_FAILURE() << "no consensus fingerprint landed on " << target;
  return 2;
}

svc::QueryService::Options service_options(int workers = 4) {
  svc::QueryService::Options options;
  options.workers = workers;
  return options;
}

/// One backend shard: a QueryService plus a started TCP server on an
/// ephemeral port.  Declaration order destroys the Server first.
struct Backend {
  explicit Backend(const std::string& shard_id)
      : service(service_options()) {
    net::ServerConfig config;
    config.listen = net::Endpoint{"127.0.0.1", 0};
    config.handler.server_id = shard_id;
    server = std::make_unique<net::Server>(service, std::move(config));
    server->start();
  }
  svc::QueryService service;
  std::unique_ptr<net::Server> server;
};

/// A TCP peer that accepts connections and reads nothing, answers nothing:
/// the "silent shard" for hedging and re-dispatch tests.  Destroying it
/// closes every accepted connection.
struct BlackHole {
  BlackHole() {
    listener = net::listen_tcp(net::Endpoint{"127.0.0.1", 0}, &port);
    thread = std::thread([this] {
      std::vector<net::Fd> accepted;
      while (!stop.load()) {
        pollfd p{listener.get(), POLLIN, 0};
        if (::poll(&p, 1, 20) > 0) {
          const int fd = ::accept(listener.get(), nullptr, nullptr);
          if (fd >= 0) accepted.emplace_back(fd);
        }
      }
    });
  }
  ~BlackHole() {
    stop.store(true);
    thread.join();
  }
  net::Fd listener;
  std::uint16_t port = 0;
  std::thread thread;
  std::atomic<bool> stop{false};
};

/// A BlackHole whose connections advertise a tiny window (small receive
/// buffer and segment size), so well under a hundred KB fill a connection
/// to it: the wedged shard, without megabytes of traffic.
struct WedgedShard : BlackHole {
  WedgedShard() {
    const int rcvbuf = 4096;
    const int mss = 536;
    (void)::setsockopt(listener.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof(rcvbuf));
    (void)::setsockopt(listener.get(), IPPROTO_TCP, TCP_MAXSEG, &mss,
                       sizeof(mss));
  }
};

/// A shard that records every line it receives and answers from a script:
/// the request's "shape" picks where the router's id sits in the response
/// and what surrounds it.  "malformed-<k>" answers a line parse_flat_json
/// rejects, then the "first" response on a second line.
struct ScriptedShard : net::LineBackend {
  static std::string respond(const std::string& shape, const std::string& id) {
    if (shape == "middle") {
      return R"({"status":"ok","id":")" + id + R"(","verdict":"SOLVABLE"})";
    }
    if (shape == "last") {
      return R"({"status":"ok","verdict":"SOLVABLE","id":")" + id + "\"}";
    }
    if (shape == "spaced") {
      return R"({ "status" : "ok" ,  "id" : ")" + id + R"(" , "level" : 2 })";
    }
    if (shape == "decoy") {
      return R"({"note":"say \"id\":\"r0\", twice","id":")" + id +
             R"(","status":"ok"})";
    }
    if (shape == "escapes") {
      return R"({"id":")" + id +
             R"(","error":"a\\b \"q\" \n\t\/","status":"internal"})";
    }
    return R"({"id":")" + id + R"(","status":"ok","verdict":"SOLVABLE"})";
  }

  static std::string malformed(int k, const std::string& id) {
    switch (k) {
      case 0: return R"({"id":")" + id + R"(","status":"ok"} x)";
      case 1: return R"({"id":")" + id + R"(","status":"o\k"})";
      case 2: return R"({"id":")" + id + R"(" "status":"ok"})";
      case 3: return R"({"id":")" + id + R"(","status":})";
      default: return R"({"id":")" + id + R"(","status":"ok")";
    }
  }

  Outcome on_line(std::string_view line, int line_no, Done) override {
    Fields fields;
    try {
      fields = parse(std::string(line));
    } catch (const std::invalid_argument& e) {
      // What a real shard answers: no id, so the router can match nothing.
      std::lock_guard<std::mutex> lk(mu);
      received.emplace_back(line);
      answered.emplace_back();
      return Outcome{Outcome::Kind::kRespond,
                     svc::error_record("", line_no,
                                       svc::Status::kInvalidArgument,
                                       e.what())};
    }
    const std::string id = field(fields, "id");
    const std::string shape = field(fields, "shape");
    std::string wire;
    std::string answer;
    if (shape.rfind("malformed-", 0) == 0) {
      answer = respond("first", id);
      wire = malformed(std::stoi(shape.substr(10)), id) + "\n" + answer;
    } else {
      answer = respond(shape, id);
      wire = answer;
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      received.emplace_back(line);
      answered.push_back(answer);
    }
    return Outcome{Outcome::Kind::kRespond, std::move(wire)};
  }
  std::string control(std::string_view, int) override { return "{}"; }
  [[nodiscard]] std::size_t max_line_bytes() const override { return 1 << 16; }

  std::mutex mu;
  std::vector<std::string> received;  // request lines, as the router sent
  std::vector<std::string> answered;  // the well-formed response to each
};

/// A started net::Server in front of a ScriptedShard.
struct ScriptedServer {
  ScriptedServer() {
    net::ServerConfig config;
    config.listen = net::Endpoint{"127.0.0.1", 0};
    server = std::make_unique<net::Server>(shard, std::move(config));
    server->start();
  }
  ScriptedShard shard;
  std::unique_ptr<net::Server> server;
};

/// The request text a shard should see: the line without its CRLF '\r'.
std::string without_cr(std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

/// Router test defaults: fast reconnects and maintenance ticks so breaker
/// and hedge behavior is observable within test time.
RouterConfig fast_config() {
  RouterConfig config;
  config.reconnect_min = 10ms;
  config.reconnect_max = 100ms;
  config.connect_timeout = 500ms;
  config.tick = 5ms;
  return config;
}

/// N real backends behind a Router behind a front Server.  Members are
/// declared in dependency order so destruction unwinds front -> router ->
/// backend servers -> services.
struct TestCluster {
  explicit TestCluster(int n, RouterConfig config = fast_config(),
                       bool wait_up = true) {
    for (int i = 0; i < n; ++i) {
      const std::string id = "s" + std::to_string(i + 1);
      backends.push_back(std::make_unique<Backend>(id));
      config.shards.push_back(ShardSpec{
          id, net::Endpoint{"127.0.0.1", backends.back()->server->port()}});
    }
    router = std::make_unique<Router>(std::move(config));
    router->start();
    net::ServerConfig front_config;
    front_config.listen = net::Endpoint{"127.0.0.1", 0};
    front = std::make_unique<net::Server>(*router, front_config);
    front->start();
    if (wait_up) {
      for (int i = 0; i < n; ++i) wait_shard_up("s" + std::to_string(i + 1));
    }
  }

  void wait_shard_up(const std::string& id) {
    for (int spin = 0; spin < 500; ++spin) {
      if (router->shard_up_conns(id) > 0) return;
      std::this_thread::sleep_for(10ms);
    }
    FAIL() << "shard " << id << " never came up";
  }

  [[nodiscard]] net::Client connect(
      std::chrono::milliseconds recv_timeout = 0ms) const {
    net::ClientConfig config;
    config.server = net::Endpoint{"127.0.0.1", front->port()};
    config.recv_timeout = recv_timeout;
    return net::Client(std::move(config));
  }

  std::vector<std::unique_ptr<Backend>> backends;
  std::unique_ptr<Router> router;
  std::unique_ptr<net::Server> front;
};

// ---------------------------------------------------------------------------
// Ring.
// ---------------------------------------------------------------------------

TEST(Ring, PickIsDeterministicAndCoversMembers) {
  Ring ring(64);
  ring.add("a");
  ring.add("b");
  ring.add("c");
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::string shard = ring.pick(fnv1a64("key" + std::to_string(i)));
    EXPECT_TRUE(ring.contains(shard));
    EXPECT_EQ(shard, ring.pick(fnv1a64("key" + std::to_string(i))));
    seen.insert(shard);
  }
  EXPECT_EQ(seen.size(), 3u);  // every shard owns some keys
}

TEST(Ring, SuccessorIsADistinctShard) {
  Ring ring(64);
  ring.add("a");
  ring.add("b");
  ring.add("c");
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t key = fnv1a64("key" + std::to_string(i));
    const std::string primary = ring.pick(key);
    const std::string hedge = ring.successor(key, primary);
    EXPECT_NE(hedge, primary);
    EXPECT_TRUE(ring.contains(hedge));
  }
  Ring solo(64);
  solo.add("only");
  EXPECT_EQ(solo.successor(fnv1a64("k"), "only"), "");
}

TEST(Ring, RemovalMovesOnlyTheRemovedShardsKeys) {
  Ring ring(64);
  ring.add("a");
  ring.add("b");
  ring.add("c");
  std::map<int, std::string> before;
  for (int i = 0; i < 1000; ++i) {
    before[i] = ring.pick(fnv1a64("key" + std::to_string(i)));
  }
  ring.remove("b");
  for (int i = 0; i < 1000; ++i) {
    const std::string now = ring.pick(fnv1a64("key" + std::to_string(i)));
    if (before[i] != "b") {
      // The consistent-hashing contract: surviving shards keep every key
      // they already owned.
      EXPECT_EQ(now, before[i]) << "key " << i << " moved needlessly";
    } else {
      EXPECT_NE(now, "b");
    }
  }
}

TEST(Ring, AcceptPredicateRoutesAroundShards) {
  Ring ring(64);
  ring.add("a");
  ring.add("b");
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t key = fnv1a64("key" + std::to_string(i));
    EXPECT_EQ(ring.pick(key, [](const std::string& s) { return s == "b"; }),
              "b");
  }
  EXPECT_EQ(ring.pick(1, [](const std::string&) { return false; }), "");
  EXPECT_EQ(Ring(8).pick(1), "");  // empty ring
}

TEST(Ring, ImbalanceStaysModestWithDefaultVnodes) {
  Ring ring(64);
  for (int n = 0; n < 4; ++n) ring.add("shard" + std::to_string(n));
  const std::uint64_t permille = ring.imbalance_permille();
  EXPECT_GE(permille, 1000u);  // max share is at least the mean
  EXPECT_LT(permille, 2200u);  // and well under pathological skew
}

// ---------------------------------------------------------------------------
// Routing through a live cluster.
// ---------------------------------------------------------------------------

TEST(ClusterRouter, RoundTripsAQueryThroughTheRing) {
  TestCluster cluster(2);
  net::Client client = cluster.connect();
  const std::string response = client.roundtrip(
      R"({"id":"q1","op":"solve","task":"consensus","procs":2,"values":2})");
  const Fields fields = parse(response);
  EXPECT_EQ(field(fields, "id"), "q1");
  EXPECT_EQ(field(fields, "status"), "ok");
  EXPECT_EQ(field(fields, "verdict"), "UNSOLVABLE");  // consensus, wait-free
}

TEST(ClusterRouter, PipelinedBatchIsExactlyOnceAcrossShards) {
  TestCluster cluster(3);
  net::Client client = cluster.connect();
  const int kBatch = 120;
  std::string batch;
  for (int i = 0; i < kBatch; ++i) {
    // Vary `values` (part of the task fingerprint) so the batch spreads
    // over the whole ring.
    batch += R"({"id":"b)" + std::to_string(i) +
             R"(","op":"solve","task":"consensus","procs":2,"values":)" +
             std::to_string(2 + (i % 10)) + "}\n";
  }
  client.send_raw(batch);
  client.shutdown_write();
  std::map<std::string, int> answered;
  while (std::optional<std::string> line = client.recv_line()) {
    const Fields fields = parse(*line);
    answered[field(fields, "id")]++;
    EXPECT_EQ(field(fields, "status"), "ok") << *line;
  }
  ASSERT_EQ(answered.size(), static_cast<std::size_t>(kBatch));
  for (const auto& [id, count] : answered) {
    EXPECT_EQ(count, 1) << id << " answered " << count << " times";
  }
  // The batch actually exercised more than one shard.
  const Router::Stats stats = cluster.router->stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kBatch));
  EXPECT_EQ(stats.responses, static_cast<std::uint64_t>(kBatch));
}

TEST(ClusterRouter, FingerprintRoutingIsSticky) {
  TestCluster cluster(3);
  net::Client client = cluster.connect();
  for (int i = 0; i < 12; ++i) {
    const std::string response = client.roundtrip(
        R"({"id":"r)" + std::to_string(i) +
        R"(","op":"solve","task":"renaming","procs":2,"names":5})");
    EXPECT_EQ(field(parse(response), "status"), "ok");
  }
  // One fingerprint, one shard: every dispatch went to the same place.
  const std::string stats_line =
      client.roundtrip(R"({"id":"cs","op":"cluster_stats"})");
  const Fields stats = parse(stats_line);
  int shards_hit = 0;
  for (int s = 1; s <= 3; ++s) {
    const std::string routed =
        field(stats, "shard_s" + std::to_string(s) + "_routed");
    if (!routed.empty() && routed != "0") ++shards_hit;
  }
  EXPECT_EQ(shards_hit, 1);
}

TEST(ClusterRouter, IdSpliceRoundTripsEscapedIds) {
  TestCluster cluster(2);
  net::Client client = cluster.connect();
  // An id that exercises the escape path both ways: quote, backslash, tab.
  const std::string response = client.roundtrip(
      "{\"id\":\"a\\\"b\\\\c\\td\",\"op\":\"solve\","
      "\"task\":\"consensus\",\"procs\":2,\"values\":2}");
  const Fields fields = parse(response);
  EXPECT_EQ(field(fields, "id"), "a\"b\\c\td");
  EXPECT_EQ(field(fields, "status"), "ok");
}

TEST(ClusterRouter, RequestsWithoutIdsAreAnsweredWithoutIds) {
  TestCluster cluster(2);
  net::Client client = cluster.connect();
  const std::string response = client.roundtrip(
      R"({"op":"solve","task":"consensus","procs":2,"values":2})");
  const Fields fields = parse(response);
  EXPECT_EQ(fields.count("id"), 0u);  // the router id never leaks out
  EXPECT_EQ(field(fields, "status"), "ok");
}

TEST(ClusterRouter, WireLinesAreByteIdenticalBothWays) {
  ScriptedServer scripted;
  RouterConfig config = fast_config();
  config.shards.push_back(ShardSpec{
      "sc", net::Endpoint{"127.0.0.1", scripted.server->port()}});
  TestCluster cluster(0, std::move(config), /*wait_up=*/false);
  cluster.wait_shard_up("sc");
  net::Client client = cluster.connect(/*recv_timeout=*/5s);

  // The id first, in the middle, last and absent; ids with escaped quotes,
  // backslashes, newlines and "\/"; "id": inside another value; CRLF.
  const std::vector<std::string> requests = {
      R"({"id":"a1","op":"solve","task":"consensus","procs":2,"shape":"first"})",
      R"({"op":"solve","id":"a2","task":"consensus","shape":"middle"})",
      R"({"op":"solve","task":"consensus","shape":"last","id":"a3"})",
      R"({"op":"solve","task":"consensus","procs":2,"shape":"spaced"})",
      R"({ "id" : "a5" , "op":"solve","shape":"decoy"})",
      R"({"id":"q\"u\\o\nte\t\/","op":"solve","shape":"escapes"})",
      R"({"op":"solve","note":"\"id\":\"fake\", \"id\": 1","id":"a7","shape":"decoy"})",
      R"({"op":"solve","note":"\"id\":\"only in a value\"","shape":"first"})",
      R"({"id":"","op":"solve","shape":"middle"})",
      R"({"id":"c1","op":"solve","shape":"last"})" "\r",
      R"({"op":"solve","shape":"first","timeout_ms":60000})" "\r",
      R"({"id":"m0","op":"solve","shape":"malformed-0"})",
      R"({"id":"m1","op":"solve","shape":"malformed-1"})",
      R"({"op":"solve","shape":"malformed-2"})",
      R"({"id":"m3","op":"solve","shape":"malformed-3"})",
      R"({"id":"m4","op":"solve","shape":"malformed-4"})",
  };
  int malformed = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string& request = requests[i];
    const std::string reply = client.roundtrip(request);
    std::string received;
    std::string answered;
    {
      std::lock_guard<std::mutex> lk(scripted.shard.mu);
      ASSERT_EQ(scripted.shard.received.size(), i + 1) << request;
      received = scripted.shard.received.back();
      answered = scripted.shard.answered.back();
    }
    if (request.find("malformed") != std::string::npos) ++malformed;
    // Request: the router's id replaces the client's, nothing else moves.
    const std::string rid = field(parse(received), "id");
    ASSERT_EQ(rid.rfind('r', 0), 0u) << received;
    const std::string text = without_cr(request);
    EXPECT_EQ(received, svc::with_id(svc::strip_field(text, "id"), rid))
        << request;
    // Response: the client's own id replaces the router's.
    const Fields sent = parse(text);
    const std::string expected =
        sent.count("id") != 0
            ? svc::with_id(svc::strip_field(answered, "id"),
                           svc::json_escape(sent.at("id")))
            : svc::strip_field(answered, "id");
    EXPECT_EQ(reply, expected) << request;
  }
  // Each malformed shard line was dropped and counted, and reached no
  // client: nothing is left to read.
  EXPECT_EQ(cluster.router->stats().late_drops,
            static_cast<std::uint64_t>(malformed));
  pollfd p{client.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&p, 1, 200), 0);
  EXPECT_TRUE(client.buffered_empty());
}

TEST(ClusterRouter, WhitespaceAroundALineStaysOffTheWire) {
  // A line the shared reader accepts with blanks around its object reaches
  // the shard as the bare object, so the id splice (and a hedge's
  // timeout_ms rewrite) lands inside it.
  ScriptedServer scripted;
  RouterConfig config = fast_config();
  config.shards.push_back(ShardSpec{
      "sc", net::Endpoint{"127.0.0.1", scripted.server->port()}});
  TestCluster cluster(0, std::move(config), /*wait_up=*/false);
  cluster.wait_shard_up("sc");
  net::Client client = cluster.connect(/*recv_timeout=*/5s);
  const std::string object = R"({"id":"w1","op":"solve","shape":"first"})";
  const Fields reply = parse(client.roundtrip("  " + object + " \t"));
  EXPECT_EQ(field(reply, "id"), "w1");
  EXPECT_EQ(field(reply, "status"), "ok");
  std::lock_guard<std::mutex> lk(scripted.shard.mu);
  ASSERT_EQ(scripted.shard.received.size(), 1u);
  const std::string& received = scripted.shard.received.front();
  EXPECT_EQ(received,
            svc::with_id(svc::strip_field(object, "id"),
                         field(parse(received), "id")));
}

TEST(ClusterRouter, HedgedWireLineOnlyRewritesItsDeadline) {
  // A CRLF line with timeout_ms whose primary is silent: the hedge the
  // successor receives is the forwarded line with timeout_ms, and only
  // timeout_ms, rewritten to the remaining budget.
  BlackHole hole;
  ScriptedServer scripted;
  RouterConfig config = fast_config();
  config.hedge_fraction = 0.1;
  config.hedge_min = 50ms;
  config.shards.push_back(ShardSpec{"bh", {"127.0.0.1", hole.port}});
  config.shards.push_back(ShardSpec{
      "sc", net::Endpoint{"127.0.0.1", scripted.server->port()}});
  TestCluster cluster(0, std::move(config), /*wait_up=*/false);
  cluster.wait_shard_up("bh");
  cluster.wait_shard_up("sc");

  Ring replica(64);
  replica.add("bh");
  replica.add("sc");
  std::string request;
  for (int v = 0; v < 64 && request.empty(); ++v) {
    const std::string candidate =
        R"({"id":"h\"1","op":"solve","values":)" + std::to_string(v) +
        R"(,"timeout_ms":3000,"shape":"middle"})";
    if (replica.pick(routing_key(parse(candidate))) == "bh") {
      request = candidate;
    }
  }
  ASSERT_FALSE(request.empty());
  net::Client client = cluster.connect(/*recv_timeout=*/5s);
  const std::string reply = client.roundtrip(request + "\r");

  std::string received;
  std::string answered;
  {
    std::lock_guard<std::mutex> lk(scripted.shard.mu);
    ASSERT_EQ(scripted.shard.received.size(), 1u);
    received = scripted.shard.received.front();
    answered = scripted.shard.answered.front();
  }
  const Fields hedged = parse(received);
  const std::string remaining = field(hedged, "timeout_ms");
  ASSERT_FALSE(remaining.empty());
  EXPECT_LT(std::stoi(remaining), 3000);
  EXPECT_GT(std::stoi(remaining), 0);
  const std::string base = svc::strip_field(
      svc::with_id(svc::strip_field(request, "id"), field(hedged, "id")),
      "timeout_ms");
  EXPECT_EQ(received, base.substr(0, base.size() - 1) + ",\"timeout_ms\":" +
                          remaining + "}");
  EXPECT_EQ(reply, svc::with_id(svc::strip_field(answered, "id"),
                                svc::json_escape("h\"1")));
  EXPECT_GE(cluster.router->stats().hedge_wins, 1u);
}

// ---------------------------------------------------------------------------
// Control plane.
// ---------------------------------------------------------------------------

TEST(ClusterRouter, ControlOpsAnswerLocally) {
  TestCluster cluster(2);
  net::Client client = cluster.connect();

  const Fields info =
      parse(client.roundtrip(R"({"id":"i","op":"info"})"));
  EXPECT_EQ(field(info, "role"), "router");
  EXPECT_EQ(field(info, "server_id"), "router");
  EXPECT_EQ(field(info, "shards"), "2");

  const Fields stats =
      parse(client.roundtrip(R"({"id":"c","op":"cluster_stats"})"));
  EXPECT_EQ(field(stats, "status"), "ok");
  EXPECT_EQ(field(stats, "shards_up"), "2");
  EXPECT_EQ(field(stats, "shard_s1_state"), "up");

  const Fields metrics =
      parse(client.roundtrip(R"({"id":"m","op":"metrics"})"));
  EXPECT_EQ(field(metrics, "reconciles"), "true");

  const Fields trace =
      parse(client.roundtrip(R"({"id":"t","op":"trace"})"));
  EXPECT_EQ(field(trace, "status"), "invalid_argument");
}

TEST(ClusterRouter, ShardInfoOpReportsShardIdentityThroughRouter) {
  TestCluster cluster(2);
  // info is answered by the ROUTER; a shard's own identity comes back when
  // asking the shard directly (the deployment sketch in docs/API.md).
  net::Client direct(net::ClientConfig{
      net::Endpoint{"127.0.0.1", cluster.backends[0]->server->port()}});
  const Fields info = parse(direct.roundtrip(R"({"id":"i","op":"info"})"));
  EXPECT_EQ(field(info, "server_id"), "s1");
  EXPECT_NE(field(info, "version"), "");
  EXPECT_EQ(field(info, "status"), "ok");
}

TEST(ClusterRouter, AddDrainRemoveViaWireOps) {
  TestCluster cluster(2);
  Backend extra("s3");
  net::Client client = cluster.connect();

  const Fields added = parse(client.roundtrip(
      R"({"id":"a","op":"cluster_add","shard":"s3","host":"127.0.0.1","port":)" +
      std::to_string(extra.server->port()) + "}"));
  EXPECT_EQ(field(added, "status"), "ok");
  EXPECT_EQ(field(added, "shards"), "3");
  cluster.wait_shard_up("s3");

  const Fields drained = parse(
      client.roundtrip(R"({"id":"d","op":"cluster_drain","shard":"s3"})"));
  EXPECT_EQ(field(drained, "status"), "ok");
  EXPECT_EQ(field(parse(client.roundtrip(
                R"({"id":"c","op":"cluster_stats"})")),
                  "shard_s3_state"),
            "draining");

  const Fields removed = parse(
      client.roundtrip(R"({"id":"r","op":"cluster_remove","shard":"s3"})"));
  EXPECT_EQ(field(removed, "status"), "ok");
  const Fields stats =
      parse(client.roundtrip(R"({"id":"c2","op":"cluster_stats"})"));
  EXPECT_EQ(stats.count("shard_s3_state"), 0u);
  EXPECT_EQ(field(stats, "shards"), "2");

  const Fields unknown = parse(
      client.roundtrip(R"({"id":"u","op":"cluster_drain","shard":"nope"})"));
  EXPECT_EQ(field(unknown, "status"), "invalid_argument");
}

TEST(ClusterRouter, AdminOpsCanBeDisabled) {
  RouterConfig config = fast_config();
  config.admin_ops = false;
  TestCluster cluster(1, std::move(config));
  net::Client client = cluster.connect();
  const Fields denied = parse(
      client.roundtrip(R"({"id":"x","op":"cluster_drain","shard":"s1"})"));
  EXPECT_EQ(field(denied, "status"), "invalid_argument");
  // Read-only cluster_stats stays available.
  EXPECT_EQ(field(parse(client.roundtrip(
                R"({"id":"c","op":"cluster_stats"})")),
                  "status"),
            "ok");
}

// ---------------------------------------------------------------------------
// Drain semantics.
// ---------------------------------------------------------------------------

TEST(ClusterRouter, DrainedShardStopsReceivingNewKeys) {
  TestCluster cluster(3);
  // Predict the owner of one fingerprint with a replica ring.
  Ring replica(64);
  replica.add("s1");
  replica.add("s2");
  replica.add("s3");
  const int values = consensus_values_owned_by(replica, "s2");
  net::Client client = cluster.connect();
  ASSERT_TRUE(cluster.router->drain_shard("s2"));
  for (int i = 0; i < 8; ++i) {
    const std::string response = client.roundtrip(
        R"({"id":"d)" + std::to_string(i) +
        R"(","op":"solve","task":"consensus","procs":2,"values":)" +
        std::to_string(values) + "}");
    EXPECT_EQ(field(parse(response), "status"), "ok");
  }
  const Fields stats =
      parse(client.roundtrip(R"({"id":"c","op":"cluster_stats"})"));
  EXPECT_EQ(field(stats, "shard_s2_state"), "draining");
  EXPECT_EQ(field(stats, "shard_s2_routed"), "0");
}

// ---------------------------------------------------------------------------
// Hedging, breaker, re-dispatch.
// ---------------------------------------------------------------------------

TEST(ClusterRouter, HedgesToSuccessorWhenDeadlineAtRisk) {
  BlackHole hole;
  RouterConfig config = fast_config();
  config.hedge_fraction = 0.1;
  config.hedge_min = 50ms;
  config.shards.push_back(ShardSpec{"bh", {"127.0.0.1", hole.port}});
  TestCluster cluster(2, std::move(config));
  cluster.wait_shard_up("bh");

  Ring replica(64);
  replica.add("s1");
  replica.add("s2");
  replica.add("bh");
  const int values = consensus_values_owned_by(replica, "bh");

  net::Client client = cluster.connect();
  const auto start = std::chrono::steady_clock::now();
  const std::string response = client.roundtrip(
      R"({"id":"h1","op":"solve","task":"consensus","procs":2,"values":)" +
      std::to_string(values) + R"(,"timeout_ms":10000})");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const Fields fields = parse(response);
  EXPECT_EQ(field(fields, "id"), "h1");
  EXPECT_EQ(field(fields, "status"), "ok");  // the successor answered
  EXPECT_LT(elapsed, 8s) << "hedge should beat the deadline comfortably";
  const Router::Stats stats = cluster.router->stats();
  EXPECT_GE(stats.hedges, 1u);
  EXPECT_GE(stats.hedge_wins, 1u);
}

TEST(ClusterRouter, HedgedCrlfLineCarriesItsRemainingDeadline) {
  // The hedge rewrites timeout_ms to the remaining budget; on a CRLF line
  // that rewrite must land inside the object, not after a stray '\r'.
  BlackHole hole;
  RouterConfig config = fast_config();
  config.hedge_fraction = 0.1;
  config.hedge_min = 50ms;
  config.shards.push_back(ShardSpec{"bh", {"127.0.0.1", hole.port}});
  TestCluster cluster(2, std::move(config));
  cluster.wait_shard_up("bh");

  Ring replica(64);
  replica.add("s1");
  replica.add("s2");
  replica.add("bh");
  const int values = consensus_values_owned_by(replica, "bh");

  net::Client client = cluster.connect();
  const Fields fields = parse(client.roundtrip(
      R"({"id":"h2","op":"solve","task":"consensus","procs":2,"values":)" +
      std::to_string(values) + R"(,"timeout_ms":3000})" + "\r"));
  EXPECT_EQ(field(fields, "id"), "h2");
  EXPECT_EQ(field(fields, "status"), "ok");  // the hedge answered in time
  const Router::Stats stats = cluster.router->stats();
  EXPECT_GE(stats.hedges, 1u);
  EXPECT_GE(stats.hedge_wins, 1u);
}

TEST(ClusterRouter, SilentShardWithoutDeadlineTimesOutEventually) {
  BlackHole hole;
  RouterConfig config = fast_config();
  config.pending_timeout = 300ms;
  config.shards.push_back(ShardSpec{"bh", {"127.0.0.1", hole.port}});
  TestCluster cluster(0, std::move(config));
  cluster.wait_shard_up("bh");
  net::Client client = cluster.connect();
  const Fields fields = parse(client.roundtrip(
      R"({"id":"t1","op":"solve","task":"consensus","procs":2,"values":2})"));
  EXPECT_EQ(field(fields, "id"), "t1");
  EXPECT_EQ(field(fields, "status"), "deadline_exceeded");
}

TEST(ClusterRouter, AllShardsDownAnswersOverloadedWithRetryHint) {
  // A shard address nobody listens on: bind a port, then free it.
  std::uint16_t dead_port = 0;
  { net::Fd probe = net::listen_tcp(net::Endpoint{"127.0.0.1", 0}, &dead_port); }
  RouterConfig config = fast_config();
  config.shards.push_back(ShardSpec{"s1", {"127.0.0.1", dead_port}});
  TestCluster cluster(0, std::move(config), /*wait_up=*/false);
  net::Client client = cluster.connect();
  const Fields fields = parse(client.roundtrip(
      R"({"id":"x","op":"solve","task":"consensus","procs":2,"values":2})"));
  EXPECT_EQ(field(fields, "id"), "x");
  EXPECT_EQ(field(fields, "status"), "overloaded");
  EXPECT_NE(field(fields, "retry_after_ms"), "");
}

TEST(ClusterRouter, RetryHintIsJitteredAcrossRejections) {
  // A router with NO shards rejects every submit with "no shard
  // available"; the stamped retry_after_ms must be jittered uniformly in
  // [base/2, base*3/2], not the fixed base that would re-herd every
  // rejected client onto the same tick.
  RouterConfig config = fast_config();
  config.retry_after_ms = 100;
  TestCluster cluster(0, std::move(config), /*wait_up=*/false);
  net::Client client = cluster.connect();
  std::set<std::string> distinct;
  for (int i = 0; i < 40; ++i) {
    const Fields fields = parse(client.roundtrip(
        R"({"id":"j","op":"solve","task":"consensus","procs":2,"values":2})"));
    ASSERT_EQ(field(fields, "status"), "overloaded");
    const std::string hint = field(fields, "retry_after_ms");
    ASSERT_NE(hint, "");
    const int ms = std::stoi(hint);
    EXPECT_GE(ms, 50);
    EXPECT_LE(ms, 150);
    distinct.insert(hint);
  }
  // 40 draws over 101 values: a fixed hint would give exactly 1 distinct.
  EXPECT_GE(distinct.size(), 5u);
}

TEST(ClusterRouter, MetricsCarryHardeningCounters) {
  TestCluster cluster(2);
  net::Client client = cluster.connect();
  const Fields metrics =
      parse(client.roundtrip(R"({"id":"m","op":"metrics"})"));
  EXPECT_EQ(field(metrics, "probe_failures"), "0");
  EXPECT_EQ(field(metrics, "budget_exhausted"), "0");
  EXPECT_EQ(field(metrics, "hop_deadline_expired"), "0");
  EXPECT_EQ(field(metrics, "reconciles"), "true");
  const Fields stats =
      parse(client.roundtrip(R"({"id":"c","op":"cluster_stats"})"));
  EXPECT_EQ(field(stats, "shard_s1_probe_streak"), "0");
  EXPECT_EQ(field(stats, "shard_s1_state"), "up");
  EXPECT_EQ(cluster.router->shard_health("s1"),
            Router::ShardHealth::kUp);
}

TEST(ClusterRouter, BreakerRecoversWhenShardComesBack) {
  std::uint16_t port = 0;
  { net::Fd probe = net::listen_tcp(net::Endpoint{"127.0.0.1", 0}, &port); }
  RouterConfig config = fast_config();
  config.shards.push_back(ShardSpec{"s1", {"127.0.0.1", port}});
  TestCluster cluster(0, std::move(config), /*wait_up=*/false);
  std::this_thread::sleep_for(100ms);  // a few failed probes
  EXPECT_EQ(cluster.router->shard_up_conns("s1"), 0);

  // The shard appears on the previously dead port; the breaker's
  // background probes reconnect without any routing intervention.
  svc::QueryService service(service_options());
  net::ServerConfig sc;
  sc.listen = net::Endpoint{"127.0.0.1", port};
  net::Server server(service, std::move(sc));
  server.start();
  cluster.wait_shard_up("s1");

  net::Client client = cluster.connect();
  const Fields fields = parse(client.roundtrip(
      R"({"id":"x","op":"solve","task":"consensus","procs":2,"values":2})"));
  EXPECT_EQ(field(fields, "status"), "ok");
}

TEST(ClusterRouter, ConnDeathRedispatchesInflightToSurvivors) {
  auto hole = std::make_unique<BlackHole>();
  RouterConfig config = fast_config();
  config.shards.push_back(ShardSpec{"bh", {"127.0.0.1", hole->port}});
  TestCluster cluster(2, std::move(config));
  cluster.wait_shard_up("bh");

  Ring replica(64);
  replica.add("s1");
  replica.add("s2");
  replica.add("bh");
  const int values = consensus_values_owned_by(replica, "bh");

  // Park a pipelined batch on the silent shard, then kill it: the router
  // must re-home every inflight request and still deliver exactly once.
  net::Client client = cluster.connect(/*recv_timeout=*/5s);
  std::string batch;
  const int kBatch = 5;
  for (int i = 0; i < kBatch; ++i) {
    batch += R"({"id":"k)" + std::to_string(i) +
             R"(","op":"solve","task":"consensus","procs":2,"values":)" +
             std::to_string(values) + "}\n";
  }
  client.send_raw(batch);
  std::this_thread::sleep_for(200ms);  // let the sends land on bh
  hole.reset();                        // RST/EOF every bh connection

  std::map<std::string, int> answered;
  for (int i = 0; i < kBatch; ++i) {
    std::optional<std::string> line = client.recv_line();
    ASSERT_TRUE(line.has_value());
    const Fields fields = parse(*line);
    answered[field(fields, "id")]++;
    EXPECT_EQ(field(fields, "status"), "ok") << *line;
  }
  EXPECT_EQ(answered.size(), static_cast<std::size_t>(kBatch));
  for (const auto& [id, count] : answered) EXPECT_EQ(count, 1) << id;
  // No duplicate can follow: the router's books show every request
  // resolved once by a response and none left pending, and a short quiet
  // read finds nothing more on the wire.
  const Router::Stats stats = cluster.router->stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kBatch));
  EXPECT_EQ(stats.responses, static_cast<std::uint64_t>(kBatch));
  EXPECT_GE(stats.redispatches, 1u);
  EXPECT_TRUE(client.buffered_empty());
  pollfd p{client.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&p, 1, 200), 0) << "a request answered twice";
}

TEST(ClusterRouter, WedgedShardDoesNotStallOtherClients) {
  // Shard "w" accepts and never reads.  A batch of lines for it fills its
  // connections; meanwhile another client's query to the healthy shard
  // must still be answered at once -- the one front io thread never waits
  // on a shard.  Once the wedged connection makes no progress for
  // send_timeout, everything queued on it answers exactly once.
  WedgedShard wedged;
  Backend healthy("s1");
  RouterConfig config = fast_config();
  config.send_timeout = 1s;
  config.shards.push_back(ShardSpec{"w", {"127.0.0.1", wedged.port}});
  config.shards.push_back(ShardSpec{
      "s1", net::Endpoint{"127.0.0.1", healthy.server->port()}});
  Router router(std::move(config));
  router.start();
  net::ServerConfig front_config;
  front_config.listen = net::Endpoint{"127.0.0.1", 0};
  front_config.io_threads = 1;
  net::Server front(router, std::move(front_config));
  front.start();
  for (int spin = 0; spin < 500 && (router.shard_up_conns("w") < 2 ||
                                    router.shard_up_conns("s1") < 2);
       ++spin) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(router.shard_up_conns("w"), 2);

  // The other client connects, and warms the healthy shard, up front.
  Ring replica(64);
  replica.add("w");
  replica.add("s1");
  const std::string healthy_query =
      R"(","op":"solve","task":"consensus","procs":2,"values":)" +
      std::to_string(consensus_values_owned_by(replica, "s1")) + "}";
  net::ClientConfig other_config;
  other_config.server = net::Endpoint{"127.0.0.1", front.port()};
  other_config.recv_timeout = 5s;
  net::Client other(std::move(other_config));
  ASSERT_EQ(field(parse(other.roundtrip(R"({"id":"h0)" + healthy_query)),
                  "status"),
            "ok");

  // "pad" is part of the routing key: pick one that lands on w.  24 lines
  // of 16 KiB are several times what both tiny-window connections hold.
  constexpr int kLarge = 24;
  const std::string filler(16 * 1024, 'x');
  std::string pad;
  for (int k = 0; k < 64 && pad.empty(); ++k) {
    const std::string candidate = std::to_string(k) + filler;
    const std::string line =
        R"({"op":"solve","task":"consensus","procs":2,"values":2,"pad":")" +
        candidate + "\"}";
    if (replica.pick(routing_key(parse(line))) == "w") pad = candidate;
  }
  ASSERT_FALSE(pad.empty());
  std::string batch;
  for (int i = 0; i < kLarge; ++i) {
    batch += R"({"id":"w)" + std::to_string(i) +
             R"(","op":"solve","task":"consensus","procs":2,"values":2,"pad":")" +
             pad + "\"}\n";
  }
  net::ClientConfig wedger_config;
  wedger_config.server = net::Endpoint{"127.0.0.1", front.port()};
  wedger_config.recv_timeout = 10s;
  net::Client wedger(std::move(wedger_config));
  std::thread sender([&wedger, &batch] { wedger.send_raw(batch); });
  std::this_thread::sleep_for(300ms);  // w's connection is full by now

  const auto start = std::chrono::steady_clock::now();
  const Fields fields =
      parse(other.roundtrip(R"({"id":"h1)" + healthy_query));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(field(fields, "id"), "h1");
  EXPECT_EQ(field(fields, "status"), "ok");
  EXPECT_LT(elapsed, 500ms) << "a wedged shard stalled another client";

  sender.join();
  std::map<std::string, int> answered;
  for (int i = 0; i < kLarge; ++i) {
    const std::optional<std::string> line = wedger.recv_line();
    ASSERT_TRUE(line.has_value());
    const Fields reply = parse(*line);
    ++answered[field(reply, "id")];
    const std::string status = field(reply, "status");
    EXPECT_TRUE(status == "ok" || status == "overloaded") << status;
  }
  EXPECT_EQ(answered.size(), static_cast<std::size_t>(kLarge));
  for (const auto& [id, count] : answered) EXPECT_EQ(count, 1) << id;
  pollfd p{wedger.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&p, 1, 200), 0) << "a request answered twice";
  const Router::Stats stats = router.stats();
  EXPECT_GE(stats.redispatches + stats.failed,
            static_cast<std::uint64_t>(kLarge));
  front.stop();
  router.stop();
}

// ---------------------------------------------------------------------------
// The shared request reader: routing keys and error records.
// ---------------------------------------------------------------------------

/// Every request line of examples/queries.jsonl and
/// examples/cluster_smoke.jsonl with the routing key the router computed
/// for it before the router and the shards shared one request reader:
/// with any model removed, under "wait_free" and under "t_resilient(1)"
/// (net::with_model splices the model in).
struct GoldenKey {
  const char* line;
  std::uint64_t no_model;
  std::uint64_t wait_free;
  std::uint64_t t_resilient;
};

constexpr GoldenKey kGoldenKeys[] = {
    {R"({"id":"s1","op":"solve","task":"consensus","procs":2,"values":2})",
     0x49a3e6325ef332e2ull, 0x49a3e6325ef332e2ull, 0xa928f3ca85da6bcfull},
    {R"({"id":"s2","op":"solve","task":"consensus","procs":3,"values":2,"max_level":1})",
     0x1a83cf1137e7aa2bull, 0x1a83cf1137e7aa2bull, 0xed50333d2c5bff16ull},
    {R"({"id":"s3","op":"solve","task":"set-consensus","procs":3,"k":2,"max_level":1})",
     0x5afb01bec92fee15ull, 0x5afb01bec92fee15ull, 0x1e4a7361cf879704ull},
    {R"({"id":"s4","op":"solve","task":"renaming","procs":2,"names":2})",
     0x469dff6df4389926ull, 0x469dff6df4389926ull, 0x22a3dc2141d2709bull},
    {R"({"id":"s5","op":"solve","task":"renaming","procs":2,"names":3})",
     0xe65f8003f37b2003ull, 0xe65f8003f37b2003ull, 0x19298f452ed2217eull},
    {R"({"id":"s6","op":"solve","task":"approx","procs":2,"grid":3})",
     0x4ed43f23b2510026ull, 0x4ed43f23b2510026ull, 0x9c3f292d243b4759ull},
    {R"({"id":"s7","op":"solve","task":"approx","procs":2,"grid":5,"budget":200000})",
     0x46ee74e44c7a0584ull, 0x46ee74e44c7a0584ull, 0xf72b55dc93f3347bull},
    {R"({"id":"s8","op":"solve","task":"simplex-agreement","procs":2,"depth":1})",
     0xcfa9b8726c6ef9e8ull, 0xcfa9b8726c6ef9e8ull, 0x7c0d48a44ec036e7ull},
    {R"({"id":"s9","op":"solve","task":"identity","procs":3})",
     0x13fef90f9e5eb4aaull, 0x13fef90f9e5eb4aaull, 0x3d53de32338f8f6bull},
    {R"({"id":"r1","op":"solve","task":"consensus","procs":2,"values":2})",
     0x49a3e6325ef332e2ull, 0x49a3e6325ef332e2ull, 0xa928f3ca85da6bcfull},
    {R"({"id":"r2","op":"solve","task":"approx","procs":2,"grid":3})",
     0x4ed43f23b2510026ull, 0x4ed43f23b2510026ull, 0x9c3f292d243b4759ull},
    {R"({"id":"c1","op":"convergence","procs":2,"depth":1,"max_level":4})",
     0x87754011fed26028ull, 0x87754011fed26028ull, 0x00bc68291692ddf5ull},
    {R"({"id":"e1","op":"emulate","procs":2,"shots":2})",
     0x713151b6306aed4full, 0x713151b6306aed4full, 0xb43546ee9e6abd36ull},
    {R"({"id":"e2","op":"emulate","procs":3,"shots":1})",
     0xdedfca74624f0ee5ull, 0xdedfca74624f0ee5ull, 0x3cfa2f16d86ef18cull},
    {R"({"id":"k1","op":"check","target":"sds","procs":3,"rounds":2,"crashes":1})",
     0x7f51dd6c858f87c7ull, 0x7f51dd6c858f87c7ull, 0xa53ad0f3232de5eaull},
    {R"({"id":"k2","op":"check","target":"emulation","procs":2,"rounds":2,"crashes":1})",
     0xd96ba10d976c62b6ull, 0xd96ba10d976c62b6ull, 0xe0fc6817b5f23307ull},
    {R"({"id":"k3","op":"check","target":"linearizability","procs":2,"rounds":2})",
     0xe9846d7441f870f4ull, 0xe9846d7441f870f4ull, 0xa3c55976fe2dd1d9ull},
    {R"({"id":"x1","op":"solve","task":"consensus","procs":0,"values":2})",
     0x652eb021d91e7c30ull, 0x652eb021d91e7c30ull, 0xdfa4166c3434f0fdull},
    {R"({"id":"x2","op":"solve","task":"no-such-task","procs":2})",
     0x357aef79c4039756ull, 0x357aef79c4039756ull, 0xb573451e69216093ull},
    {R"({"id":"x3","op":"frobnicate"})",
     0x14650fb0739d0383ull, 0x14650fb0739d0383ull, 0xeb32867864d032d6ull},
    {R"({"op":"solve","task":"consensus","procs":2,"values":2,"max_level":2})",
     0x49a3e6325ef332e2ull, 0x49a3e6325ef332e2ull, 0xa928f3ca85da6bcfull},
    {R"({"op":"solve","task":"consensus","procs":2,"values":3,"max_level":2})",
     0x49a05e325ef015f3ull, 0x49a05e325ef015f3ull, 0xa92c6bca85dd6d8eull},
    {R"({"op":"solve","task":"consensus","procs":2,"values":4,"max_level":2})",
     0x498f5e325ee1a2c0ull, 0x498f5e325ee1a2c0ull, 0xa92f73ca85dfb0fdull},
    {R"({"op":"solve","task":"consensus","procs":2,"values":5,"max_level":2})",
     0x498c5e325edf6ce9ull, 0x498c5e325edf6ce9ull, 0xa932f3ca85e2c054ull},
    {R"({"op":"solve","task":"renaming","procs":2,"names":3,"max_level":2})",
     0xe65f8003f37b2003ull, 0xe65f8003f37b2003ull, 0x19298f452ed2217eull},
    {R"({"op":"solve","task":"renaming","procs":2,"names":4,"max_level":2})",
     0x2494a550659365b0ull, 0x2494a550659365b0ull, 0xa42a1b8a6974733dull},
    {R"({"op":"solve","task":"renaming","procs":2,"names":6,"max_level":2})",
     0xe6f9eb48649ecf5aull, 0xe6f9eb48649ecf5aull, 0x22e28a9ef181b4dfull},
    {R"({"op":"solve","task":"renaming","procs":2,"names":7,"max_level":2})",
     0x07bca7b848e92767ull, 0x07bca7b848e92767ull, 0x22764077f41c7f32ull},
    {R"({"op":"solve","task":"set-consensus","procs":2,"k":2,"max_level":2})",
     0x99ad9816eba91f06ull, 0x99ad9816eba91f06ull, 0xe89f496114f2d6b3ull},
    {R"({"op":"solve","task":"approx","procs":2,"grid":6,"max_level":2})",
     0xa536f08fd9de4c1bull, 0xa536f08fd9de4c1bull, 0xc189e71736b7dfc2ull},
    {R"({"op":"solve","task":"approx","procs":2,"grid":7,"max_level":2})",
     0x79c6d7ea18707eeaull, 0x79c6d7ea18707eeaull, 0xc5197a0f3e4c2d5dull},
};

TEST(ClusterRouter, RoutingKeysMatchTheGoldenCorpusKeys) {
  const auto key = [](const std::string& line) {
    return routing_key(svc::parse_flat_json(line));
  };
  for (const GoldenKey& g : kGoldenKeys) {
    const std::string line = g.line;
    EXPECT_EQ(key(svc::strip_field(line, "model")), g.no_model) << line;
    EXPECT_EQ(key(net::with_model(line, "wait_free")), g.wait_free) << line;
    EXPECT_EQ(key(net::with_model(line, "t_resilient(1)")), g.t_resilient)
        << line;
  }
}

TEST(ClusterRouter, AnswersBadLinesExactlyAsAShardDoes) {
  constexpr std::size_t kCap = 64;
  RouterConfig router_config;
  router_config.max_line_bytes = kCap;
  Router router(std::move(router_config));  // rejecting needs no shard
  svc::QueryService service(service_options(1));
  svc::HandlerConfig handler_config;
  handler_config.max_line_bytes = kCap;
  net::ServiceBackend shard(service, std::move(handler_config));

  using Kind = net::LineBackend::Outcome::Kind;
  const std::pair<std::string, Kind> lines[] = {
      {std::string(kCap + 1, 'x'), Kind::kRespond},   // over the cap
      {std::string(kCap, ' ') + "\r", Kind::kSkip},   // CR is framing
      {R"({"op":"solve","task":)", Kind::kRespond},   // malformed
      {R"({"id":"a" "op":"info"})", Kind::kRespond},  // malformed
      {"", Kind::kSkip},
      {" \t", Kind::kSkip},
      {"# comment", Kind::kSkip},
      {R"({"op":"stats"})", Kind::kControl},
  };
  int line_no = 0;
  for (const auto& [line, kind] : lines) {
    ++line_no;
    const auto unexpected = [&line](std::string&&) {
      ADD_FAILURE() << "no query expected for: " << line;
    };
    const net::LineBackend::Outcome routed =
        router.on_line(line, line_no, unexpected);
    const net::LineBackend::Outcome served =
        shard.on_line(line, line_no, unexpected);
    EXPECT_EQ(routed.kind, kind) << line;
    EXPECT_EQ(served.kind, kind) << line;
    EXPECT_EQ(routed.response, served.response) << line;
  }
  // The membership ops are the router's own control ops; a shard rejects
  // them at once as unknown.
  const auto no_query = [](std::string&&) { ADD_FAILURE(); };
  const std::string membership = R"({"op":"cluster_stats"})";
  EXPECT_EQ(router.on_line(membership, 1, no_query).kind, Kind::kControl);
  const net::LineBackend::Outcome rejected =
      shard.on_line(membership, 1, no_query);
  EXPECT_EQ(rejected.kind, Kind::kRespond);
  EXPECT_NE(rejected.response.find("unknown op"), std::string::npos);
  EXPECT_EQ(router.stats().requests, 0u);
}

}  // namespace
}  // namespace wfc::cluster
