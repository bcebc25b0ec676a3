// Tests for wfc::chaosnet: the seeded fault-injection proxy (byte-level
// determinism per seed, every fault mode observable through net::Client,
// the JSONL admin protocol) and the router hardening it exists to prove --
// exactly-once delivery through the proxy under every fault regime, active
// probe eviction beating pending_timeout on a blackholed shard, retry
// budgets capping re-dispatch amplification, and hop deadline propagation
// (remaining, not original, timeout_ms on hedges; fast-fail once spent).
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/ring.hpp"
#include "cluster/router.hpp"
#include "net/chaosproxy.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "service/jsonl.hpp"
#include "service/query_service.hpp"

namespace wfc::net {
namespace {

using svc::Fields;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

Fields parse(const std::string& line) { return svc::parse_flat_json(line); }

std::string field(const Fields& fields, const std::string& key) {
  return std::string(fields.get(key));
}

svc::QueryService::Options service_options() {
  svc::QueryService::Options options;
  options.workers = 2;
  return options;
}

/// One backend shard: a QueryService behind a started TCP server.
struct Backend {
  explicit Backend(const std::string& shard_id)
      : service(service_options()) {
    ServerConfig config;
    config.listen = Endpoint{"127.0.0.1", 0};
    config.handler.server_id = shard_id;
    server = std::make_unique<Server>(service, std::move(config));
    server->start();
  }
  svc::QueryService service;
  std::unique_ptr<Server> server;
};

/// A raw upstream that records every byte of every accepted connection
/// (one capture per connection, in accept order) and answers nothing.
struct CaptureSink {
  CaptureSink() {
    listener = listen_tcp(Endpoint{"127.0.0.1", 0}, &port);
    thread = std::thread([this] {
      while (!stop.load()) {
        pollfd lp{listener.get(), POLLIN, 0};
        if (::poll(&lp, 1, 20) <= 0) continue;
        Fd conn(::accept(listener.get(), nullptr, nullptr));
        if (!conn.valid()) continue;
        std::string bytes;
        char buf[4096];
        for (;;) {
          pollfd cp{conn.get(), POLLIN, 0};
          if (::poll(&cp, 1, 5000) <= 0) break;
          const ssize_t n = ::recv(conn.get(), buf, sizeof(buf), 0);
          if (n <= 0) break;
          bytes.append(buf, static_cast<std::size_t>(n));
        }
        std::lock_guard<std::mutex> lk(mu);
        captures.push_back(std::move(bytes));
      }
    });
  }
  ~CaptureSink() {
    stop.store(true);
    thread.join();
  }
  [[nodiscard]] std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> lk(mu);
    return captures;
  }
  /// Waits until `n` connections have fully closed (5 s bound).
  [[nodiscard]] bool wait_captures(std::size_t n) {
    for (int spin = 0; spin < 500; ++spin) {
      {
        std::lock_guard<std::mutex> lk(mu);
        if (captures.size() >= n) return true;
      }
      std::this_thread::sleep_for(10ms);
    }
    return false;
  }
  Fd listener;
  std::uint16_t port = 0;
  std::thread thread;
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::vector<std::string> captures;
};

/// A TCP peer that accepts and never answers (the silent shard).
struct BlackHole {
  BlackHole() {
    listener = listen_tcp(Endpoint{"127.0.0.1", 0}, &port);
    thread = std::thread([this] {
      std::vector<Fd> accepted;
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
  Fd listener;
  std::uint16_t port = 0;
  std::thread thread;
  std::atomic<bool> stop{false};
};

/// A LineBackend shard stub that records every request line and answers
/// ok, echoing the id -- the observer for deadline-rewrite assertions.
struct RecordingBackend : LineBackend {
  Outcome on_line(std::string_view line, int, Done) override {
    std::string id;
    try {
      id = field(parse(std::string(line)), "id");
    } catch (const std::exception&) {
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      lines.push_back(std::string(line));
    }
    Outcome out;
    out.kind = Outcome::Kind::kRespond;
    svc::JsonWriter w;
    if (!id.empty()) w.field("id", id);
    w.field("status", "ok").field("verdict", "RECORDED");
    out.response = w.str();
    return out;
  }
  std::string control(std::string_view, int) override { return "{}"; }
  [[nodiscard]] std::size_t max_line_bytes() const override { return 1 << 16; }
  [[nodiscard]] std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> lk(mu);
    return lines;
  }
  std::mutex mu;
  std::vector<std::string> lines;
};

ChaosProxyConfig one_link(const std::string& id, std::uint16_t upstream_port,
                          std::uint64_t seed = 42) {
  ChaosProxyConfig config;
  config.links.push_back(
      ChaosLinkSpec{id, Endpoint{"127.0.0.1", 0},
                    Endpoint{"127.0.0.1", upstream_port}});
  config.seed = seed;
  return config;
}

Client connect_to(std::uint16_t port, std::chrono::milliseconds recv = 0ms) {
  ClientConfig config;
  config.server = Endpoint{"127.0.0.1", port};
  config.recv_timeout = recv;
  return Client(std::move(config));
}

/// The router's routing key for a consensus solve (mirrors make_key).
std::uint64_t consensus_key(int values) {
  return cluster::fnv1a64("procs=2;task=consensus;values=" +
                          std::to_string(values) + ";");
}

int consensus_values_owned_by(const cluster::Ring& ring,
                              const std::string& target) {
  for (int v = 2; v < 60; ++v) {
    if (ring.pick(consensus_key(v)) == target) return v;
  }
  ADD_FAILURE() << "no consensus fingerprint landed on " << target;
  return 2;
}

// ---------------------------------------------------------------------------
// Proxy basics.
// ---------------------------------------------------------------------------

TEST(ChaosProxy, FaultModeNamesRoundTrip) {
  const FaultMode all[] = {FaultMode::kNone,      FaultMode::kLatency,
                           FaultMode::kBandwidth, FaultMode::kCorrupt,
                           FaultMode::kBlackhole, FaultMode::kRst,
                           FaultMode::kTrickle,   FaultMode::kHalfOpen};
  for (const FaultMode mode : all) {
    FaultMode back = FaultMode::kRst;
    ASSERT_TRUE(parse_fault_mode(fault_mode_name(mode), &back))
        << fault_mode_name(mode);
    EXPECT_EQ(back, mode);
  }
  FaultMode out;
  EXPECT_FALSE(parse_fault_mode("gremlins", &out));
}

TEST(ChaosProxy, RelaysVerbatimAndCountsBytes) {
  Backend backend("s1");
  ChaosProxy proxy(one_link("s1", backend.server->port()));
  proxy.start();
  Client client = connect_to(proxy.port("s1"));
  const Fields fields = parse(client.roundtrip(
      R"({"id":"a","op":"solve","task":"consensus","procs":2,"values":2})"));
  EXPECT_EQ(field(fields, "id"), "a");
  EXPECT_EQ(field(fields, "status"), "ok");
  EXPECT_EQ(field(fields, "verdict"), "UNSOLVABLE");
  const ChaosProxy::LinkStats stats = proxy.link_stats("s1");
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_GT(stats.bytes_up, 0u);
  EXPECT_GT(stats.bytes_down, 0u);
  EXPECT_EQ(stats.corrupted_bytes, 0u);
  EXPECT_EQ(stats.dropped_bytes, 0u);
  proxy.stop();
}

TEST(ChaosProxy, AdminOpsFlipFaultsAndValidate) {
  Backend backend("s1");
  ChaosProxy proxy(one_link("s1", backend.server->port()));
  proxy.start();
  ServerConfig admin_config;
  admin_config.listen = Endpoint{"127.0.0.1", 0};
  Server admin(proxy, admin_config);
  admin.start();
  Client client = connect_to(admin.port());

  const Fields info = parse(client.roundtrip(R"({"id":"i","op":"info"})"));
  EXPECT_EQ(field(info, "role"), "chaosnet");
  EXPECT_EQ(field(info, "links"), "1");

  const Fields ok = parse(client.roundtrip(
      R"({"id":"f1","op":"fault","link":"s1","mode":"latency","ms":80})"));
  EXPECT_EQ(field(ok, "status"), "ok");
  EXPECT_EQ(proxy.fault("s1").mode, FaultMode::kLatency);
  EXPECT_EQ(proxy.fault("s1").latency, 80ms);

  const Fields star = parse(client.roundtrip(
      R"({"id":"f2","op":"fault","link":"*","mode":"none"})"));
  EXPECT_EQ(field(star, "status"), "ok");
  EXPECT_EQ(proxy.fault("s1").mode, FaultMode::kNone);

  const Fields bad_mode = parse(client.roundtrip(
      R"({"id":"f3","op":"fault","link":"s1","mode":"gremlins"})"));
  EXPECT_EQ(field(bad_mode, "status"), "invalid_argument");
  const Fields bad_link = parse(client.roundtrip(
      R"({"id":"f4","op":"fault","link":"nope","mode":"none"})"));
  EXPECT_EQ(field(bad_link, "status"), "invalid_argument");

  const Fields stats =
      parse(client.roundtrip(R"({"id":"s","op":"chaos_stats"})"));
  EXPECT_EQ(field(stats, "status"), "ok");
  EXPECT_EQ(field(stats, "link_s1_mode"), "none");
  admin.drain();
  proxy.stop();
}

TEST(ChaosProxy, AdminEchoesIdsEscapedOnce) {
  Backend backend("s1");
  ChaosProxy proxy(one_link("s1", backend.server->port()));
  proxy.start();
  ServerConfig admin_config;
  admin_config.listen = Endpoint{"127.0.0.1", 0};
  Server admin(proxy, admin_config);
  admin.start();
  Client client = connect_to(admin.port());
  for (const std::string id : {"a\"b", "c\\d"}) {
    for (const std::string op : {"info", "chaos_stats", "nope"}) {
      const Fields reply = parse(client.roundtrip(
          R"({"id":")" + svc::json_escape(id) + R"(","op":")" + op + "\"}"));
      EXPECT_EQ(field(reply, "id"), id) << op;
    }
  }
  admin.drain();
  proxy.stop();
}

TEST(ChaosProxy, CorruptionIsDeterministicPerSeed) {
  // Same seed + same bytes through fresh proxies must corrupt identically;
  // a different seed must not.  (The draw stream is per byte, so TCP
  // segmentation cannot perturb it.)
  const std::string payload(2048, 'A');
  auto run = [&payload](std::uint64_t seed) {
    CaptureSink sink;
    ChaosProxy proxy(one_link("s1", sink.port, seed));
    FaultSpec corrupt;
    corrupt.mode = FaultMode::kCorrupt;
    corrupt.corrupt_prob = 0.05;
    proxy.set_fault("s1", corrupt);
    proxy.start();
    {
      Client client = connect_to(proxy.port("s1"));
      client.send_raw(payload);
      client.shutdown_write();
    }
    EXPECT_TRUE(sink.wait_captures(1));
    proxy.stop();
    const std::vector<std::string> captures = sink.snapshot();
    return captures.empty() ? std::string() : captures[0];
  };
  const std::string first = run(7);
  const std::string second = run(7);
  const std::string other = run(8);
  ASSERT_EQ(first.size(), payload.size());
  EXPECT_NE(first, payload);  // something actually flipped
  EXPECT_EQ(first, second);   // identical under the same seed
  EXPECT_NE(first, other);    // and seed-sensitive
}

TEST(ChaosProxy, LatencyDelaysDelivery) {
  Backend backend("s1");
  ChaosProxy proxy(one_link("s1", backend.server->port()));
  FaultSpec slow;
  slow.mode = FaultMode::kLatency;
  slow.latency = 150ms;
  proxy.set_fault("s1", slow);
  proxy.start();
  Client client = connect_to(proxy.port("s1"));
  const Clock::time_point start = Clock::now();
  const Fields fields = parse(client.roundtrip(R"({"id":"l","op":"info"})"));
  EXPECT_EQ(field(fields, "status"), "ok");
  // 150 ms per direction: the round trip carries at least ~300 ms.
  EXPECT_GE(Clock::now() - start, 250ms);
  proxy.stop();
}

TEST(ChaosProxy, BandwidthCapsDeliveryRate) {
  CaptureSink sink;
  ChaosProxy proxy(one_link("s1", sink.port));
  FaultSpec capped;
  capped.mode = FaultMode::kBandwidth;
  capped.bytes_per_sec = 2000;
  proxy.set_fault("s1", capped);
  proxy.start();
  const std::string payload(3000, 'b');
  const Clock::time_point start = Clock::now();
  {
    Client client = connect_to(proxy.port("s1"));
    client.send_raw(payload);
    client.shutdown_write();
  }
  ASSERT_TRUE(sink.wait_captures(1));
  const auto elapsed = Clock::now() - start;
  EXPECT_EQ(sink.snapshot()[0].size(), payload.size());  // capped, not lost
  EXPECT_GE(elapsed, 1s);  // 3000 B at 2000 B/s is at least ~1.4 s
  proxy.stop();
}

TEST(ChaosProxy, TrickleDripsButDeliversIntact) {
  CaptureSink sink;
  ChaosProxy proxy(one_link("s1", sink.port));
  FaultSpec loris;
  loris.mode = FaultMode::kTrickle;
  loris.trickle_bytes = 5;
  loris.trickle_interval = 20ms;
  proxy.set_fault("s1", loris);
  proxy.start();
  const std::string payload(60, 'c');
  const Clock::time_point start = Clock::now();
  {
    Client client = connect_to(proxy.port("s1"));
    client.send_raw(payload);
    client.shutdown_write();
  }
  ASSERT_TRUE(sink.wait_captures(1));
  EXPECT_EQ(sink.snapshot()[0], payload);  // slow, never corrupted
  // 60 bytes at 5 bytes per 20 ms: ~11 intervals behind the first chunk.
  EXPECT_GE(Clock::now() - start, 150ms);
  proxy.stop();
}

TEST(ChaosProxy, BlackholeDropsBothDirectionsThenHeals) {
  Backend backend("s1");
  ChaosProxy proxy(one_link("s1", backend.server->port()));
  FaultSpec hole;
  hole.mode = FaultMode::kBlackhole;
  proxy.set_fault("s1", hole);
  proxy.start();
  {
    Client client = connect_to(proxy.port("s1"), /*recv=*/300ms);
    client.send_line(R"({"id":"b","op":"info"})");
    EXPECT_THROW((void)client.recv_line(), TimeoutError);
  }
  EXPECT_GT(proxy.link_stats("s1").dropped_bytes, 0u);
  // Heal: a NEW connection relays normally again.
  proxy.set_fault("s1", FaultSpec{});
  Client client = connect_to(proxy.port("s1"), /*recv=*/2s);
  const Fields fields = parse(client.roundtrip(R"({"id":"h","op":"info"})"));
  EXPECT_EQ(field(fields, "status"), "ok");
  proxy.stop();
}

TEST(ChaosProxy, RstHardResetsConnections) {
  Backend backend("s1");
  ChaosProxy proxy(one_link("s1", backend.server->port()));
  FaultSpec reset;
  reset.mode = FaultMode::kRst;
  proxy.set_fault("s1", reset);
  proxy.start();
  EXPECT_THROW(
      {
        Client client = connect_to(proxy.port("s1"), /*recv=*/2s);
        // The reset can land on the send or the first read.
        client.send_line(R"({"id":"r","op":"info"})");
        while (client.recv_line().has_value()) {
        }
      },
      std::system_error);
  EXPECT_GE(proxy.link_stats("s1").rsts, 1u);
  proxy.stop();
}

TEST(ChaosProxy, HalfOpenDeliversRequestDropsResponse) {
  CaptureSink sink;  // records the request; its silence is fine here
  ChaosProxy proxy(one_link("s1", sink.port));
  FaultSpec gray;
  gray.mode = FaultMode::kHalfOpen;
  proxy.set_fault("s1", gray);
  proxy.start();
  {
    Client client = connect_to(proxy.port("s1"), /*recv=*/300ms);
    client.send_line(R"({"id":"g","op":"info"})");
    client.shutdown_write();
    EXPECT_THROW((void)client.recv_line(), TimeoutError);
  }
  // The request DID reach the upstream -- that is the gray failure.
  ASSERT_TRUE(sink.wait_captures(1));
  EXPECT_NE(sink.snapshot()[0].find("\"op\":\"info\""), std::string::npos);
  proxy.stop();
}

// ---------------------------------------------------------------------------
// Router through the proxy: the hardening proofs.
// ---------------------------------------------------------------------------

/// N real backends, each behind its own chaos link, behind a Router
/// behind a front Server.  Destruction unwinds front -> router -> proxy ->
/// backends.
struct ChaosCluster {
  explicit ChaosCluster(int n, cluster::RouterConfig config) {
    ChaosProxyConfig proxy_config;
    proxy_config.seed = 42;
    for (int i = 0; i < n; ++i) {
      const std::string id = "s" + std::to_string(i + 1);
      backends.push_back(std::make_unique<Backend>(id));
      proxy_config.links.push_back(
          ChaosLinkSpec{id, Endpoint{"127.0.0.1", 0},
                        Endpoint{"127.0.0.1", backends.back()->server->port()}});
    }
    proxy = std::make_unique<ChaosProxy>(std::move(proxy_config));
    proxy->start();
    for (int i = 0; i < n; ++i) {
      const std::string id = "s" + std::to_string(i + 1);
      config.shards.push_back(
          cluster::ShardSpec{id, Endpoint{"127.0.0.1", proxy->port(id)}});
    }
    router = std::make_unique<cluster::Router>(std::move(config));
    router->start();
    ServerConfig front_config;
    front_config.listen = Endpoint{"127.0.0.1", 0};
    front = std::make_unique<Server>(*router, front_config);
    front->start();
    for (int i = 0; i < n; ++i) wait_up("s" + std::to_string(i + 1));
  }

  ~ChaosCluster() {
    front->drain();
    router->stop();
    proxy->stop();
  }

  void wait_up(const std::string& id) {
    for (int spin = 0; spin < 500; ++spin) {
      if (router->shard_up_conns(id) > 0 &&
          router->shard_health(id) == cluster::Router::ShardHealth::kUp) {
        return;
      }
      std::this_thread::sleep_for(10ms);
    }
    FAIL() << "shard " << id << " never became healthy";
  }

  std::vector<std::unique_ptr<Backend>> backends;
  std::unique_ptr<ChaosProxy> proxy;
  std::unique_ptr<cluster::Router> router;
  std::unique_ptr<Server> front;
};

cluster::RouterConfig hardened_config() {
  cluster::RouterConfig config;
  config.reconnect_min = 10ms;
  config.reconnect_max = 100ms;
  config.connect_timeout = 500ms;
  config.tick = 5ms;
  config.probe_interval = 40ms;
  config.probe_timeout = 120ms;
  config.probe_down_after = 3;
  config.pending_grace = 1'500ms;
  return config;
}

TEST(ChaosNet, RouterStaysExactlyOnceUnderEveryRegime) {
  ChaosCluster cluster(3, hardened_config());
  const std::vector<std::string> corpus = {
      R"({"op":"solve","task":"consensus","procs":2,"values":2,"timeout_ms":500})",
      R"({"op":"solve","task":"renaming","procs":2,"names":3,"timeout_ms":500})",
      R"({"op":"emulate","procs":2,"shots":1,"timeout_ms":500})",
  };
  struct Regime {
    const char* name;
    FaultSpec spec;
  };
  std::vector<Regime> regimes;
  regimes.push_back({"none", FaultSpec{}});
  {
    FaultSpec s;
    s.mode = FaultMode::kLatency;
    s.latency = 50ms;
    s.jitter = 20ms;
    regimes.push_back({"latency", s});
  }
  {
    FaultSpec s;
    s.mode = FaultMode::kCorrupt;
    s.corrupt_prob = 0.02;
    regimes.push_back({"corrupt", s});
  }
  {
    FaultSpec s;
    s.mode = FaultMode::kRst;
    regimes.push_back({"rst", s});
  }
  {
    FaultSpec s;
    s.mode = FaultMode::kBlackhole;
    regimes.push_back({"blackhole", s});
  }
  for (const Regime& regime : regimes) {
    ASSERT_TRUE(cluster.proxy->set_fault("s1", regime.spec)) << regime.name;
    LoadgenConfig config;
    config.server = Endpoint{"127.0.0.1", cluster.front->port()};
    config.connections = 2;
    config.iterations = 2;
    config.max_inflight = 8;
    const LoadgenReport report = run_loadgen(corpus, config);
    EXPECT_EQ(report.sent, 2u * 2u * corpus.size()) << regime.name;
    EXPECT_EQ(report.lost, 0u) << regime.name;
    EXPECT_EQ(report.duplicates, 0u) << regime.name;
    EXPECT_TRUE(report.exactly_once()) << regime.name;
    // Heal before the next regime so each one starts from a clean cluster.
    ASSERT_TRUE(cluster.proxy->set_fault("s1", FaultSpec{}));
    cluster.wait_up("s1");
  }
  // After the whole matrix the router's books still balance.
  Client client = connect_to(cluster.front->port(), /*recv=*/2s);
  const Fields metrics = parse(client.roundtrip(R"({"id":"m","op":"metrics"})"));
  EXPECT_EQ(field(metrics, "reconciles"), "true");
}

TEST(ChaosNet, ProbeEvictionBeatsPendingTimeoutOnBlackhole) {
  // Hedging off and a 30 s pending_timeout: without probes the parked
  // query would sit the full 30 s; with them it must re-home within a few
  // probe intervals.
  cluster::RouterConfig config = hardened_config();
  config.hedge_fraction = 0;
  config.hedge_after = 0ms;
  config.pending_timeout = 30'000ms;
  ChaosCluster cluster(2, std::move(config));

  cluster::Ring replica(64);
  replica.add("s1");
  replica.add("s2");
  const int values = consensus_values_owned_by(replica, "s1");

  FaultSpec hole;
  hole.mode = FaultMode::kBlackhole;
  ASSERT_TRUE(cluster.proxy->set_fault("s1", hole));

  Client client = connect_to(cluster.front->port(), /*recv=*/10s);
  const Clock::time_point start = Clock::now();
  const Fields fields = parse(client.roundtrip(
      R"({"id":"e","op":"solve","task":"consensus","procs":2,"values":)" +
      std::to_string(values) + "}"));
  const auto elapsed = Clock::now() - start;
  EXPECT_EQ(field(fields, "id"), "e");
  EXPECT_EQ(field(fields, "status"), "ok") << "answered by the survivor";
  EXPECT_LT(elapsed, 5s);  // a few probe intervals, nowhere near 30 s
  EXPECT_EQ(cluster.router->shard_health("s1"),
            cluster::Router::ShardHealth::kDown);
  const cluster::Router::Stats stats = cluster.router->stats();
  EXPECT_GE(stats.probe_failures, 3u);
  EXPECT_GE(stats.redispatches, 1u);
}

TEST(ChaosNet, RetryBudgetCapsRedispatchAmplification) {
  // Six queries parked on a dying shard, a budget of two retries: exactly
  // two re-dispatch to the survivor, the rest fast-fail overloaded -- and
  // every id still answers exactly once.
  auto hole = std::make_unique<BlackHole>();
  cluster::RouterConfig config;
  config.reconnect_min = 10ms;
  config.reconnect_max = 100ms;
  config.connect_timeout = 500ms;
  config.tick = 5ms;
  config.retry_budget_burst = 2;
  config.retry_budget_per_sec = 0.1;
  config.shard_retry_budget_burst = 2;
  config.shard_retry_budget_per_sec = 0.1;
  config.shards.push_back(cluster::ShardSpec{"bh", {"127.0.0.1", hole->port}});

  Backend survivor("s1");
  config.shards.push_back(cluster::ShardSpec{
      "s1", Endpoint{"127.0.0.1", survivor.server->port()}});
  cluster::Router router(std::move(config));
  router.start();
  ServerConfig front_config;
  front_config.listen = Endpoint{"127.0.0.1", 0};
  Server front(router, front_config);
  front.start();
  for (int spin = 0; spin < 500 && router.shard_up_conns("bh") == 0; ++spin) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_GT(router.shard_up_conns("bh"), 0);

  cluster::Ring replica(64);
  replica.add("bh");
  replica.add("s1");
  const int values = consensus_values_owned_by(replica, "bh");

  Client client = connect_to(front.port(), /*recv=*/10s);
  std::string batch;
  const int kBatch = 6;
  for (int i = 0; i < kBatch; ++i) {
    batch += R"({"id":"k)" + std::to_string(i) +
             R"(","op":"solve","task":"consensus","procs":2,"values":)" +
             std::to_string(values) + "}\n";
  }
  client.send_raw(batch);
  std::this_thread::sleep_for(300ms);  // let the sends land on bh
  hole.reset();                        // every bh connection dies

  std::map<std::string, int> statuses;
  std::set<std::string> ids;
  for (int i = 0; i < kBatch; ++i) {
    std::optional<std::string> line = client.recv_line();
    ASSERT_TRUE(line.has_value());
    const Fields fields = parse(*line);
    ids.insert(field(fields, "id"));
    statuses[field(fields, "status")]++;
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kBatch));
  // The budget admits exactly two re-dispatches; the other four answer
  // overloaded instead of stampeding the survivor.
  EXPECT_EQ(statuses["ok"], 2) << "budget burst was 2";
  EXPECT_EQ(statuses["overloaded"], kBatch - 2);
  EXPECT_GE(router.stats().budget_exhausted, static_cast<std::uint64_t>(
                                                 kBatch - 2));
  front.drain();
  router.stop();
}

TEST(ChaosNet, HedgeCarriesRemainingDeadlineDownstream) {
  // Primary = a black hole, hedge target = a recording stub: the hedged
  // copy must carry the REMAINING client budget, not the original 1000 ms.
  BlackHole hole;
  RecordingBackend recorder;
  ServerConfig rec_config;
  rec_config.listen = Endpoint{"127.0.0.1", 0};
  Server rec_server(recorder, rec_config);
  rec_server.start();

  cluster::RouterConfig config;
  config.reconnect_min = 10ms;
  config.connect_timeout = 500ms;
  config.tick = 5ms;
  config.hedge_fraction = 0.3;
  config.shards.push_back(cluster::ShardSpec{"bh", {"127.0.0.1", hole.port}});
  config.shards.push_back(
      cluster::ShardSpec{"rec", Endpoint{"127.0.0.1", rec_server.port()}});
  cluster::Router router(std::move(config));
  router.start();
  ServerConfig front_config;
  front_config.listen = Endpoint{"127.0.0.1", 0};
  Server front(router, front_config);
  front.start();
  for (int spin = 0; spin < 500 && (router.shard_up_conns("bh") == 0 ||
                                    router.shard_up_conns("rec") == 0);
       ++spin) {
    std::this_thread::sleep_for(10ms);
  }

  cluster::Ring replica(64);
  replica.add("bh");
  replica.add("rec");
  const int values = consensus_values_owned_by(replica, "bh");

  Client client = connect_to(front.port(), /*recv=*/10s);
  const Fields fields = parse(client.roundtrip(
      R"({"id":"d","op":"solve","task":"consensus","procs":2,"values":)" +
      std::to_string(values) + R"(,"timeout_ms":1000})"));
  EXPECT_EQ(field(fields, "id"), "d");
  EXPECT_EQ(field(fields, "status"), "ok");  // the hedge won

  bool saw_rewrite = false;
  for (const std::string& line : recorder.snapshot()) {
    const Fields sent = parse(line);
    const std::string timeout = field(sent, "timeout_ms");
    if (timeout.empty()) continue;
    const int remaining = std::stoi(timeout);
    EXPECT_LT(remaining, 1000) << line;  // hedge fired ~300 ms in
    EXPECT_GT(remaining, 0) << line;
    saw_rewrite = true;
  }
  EXPECT_TRUE(saw_rewrite) << "no hedged request reached the recorder";
  EXPECT_GE(router.stats().hedge_wins, 1u);
  front.drain();
  router.stop();
}

TEST(ChaosNet, SpentDeadlineFastFailsInsteadOfRedispatching) {
  // The shard dies AFTER the client budget is spent: re-dispatching would
  // make a healthy shard burn CPU on a dead answer, so the router must
  // fast-fail deadline_exceeded instead -- long before its own
  // pending_timeout clock.
  auto hole = std::make_unique<BlackHole>();
  Backend survivor("s1");
  cluster::RouterConfig config;
  config.reconnect_min = 10ms;
  config.connect_timeout = 500ms;
  config.tick = 5ms;
  config.hedge_fraction = 0;  // nothing rescues the query early
  config.pending_grace = 5'000ms;
  config.shards.push_back(cluster::ShardSpec{"bh", {"127.0.0.1", hole->port}});
  config.shards.push_back(cluster::ShardSpec{
      "s1", Endpoint{"127.0.0.1", survivor.server->port()}});
  cluster::Router router(std::move(config));
  router.start();
  ServerConfig front_config;
  front_config.listen = Endpoint{"127.0.0.1", 0};
  Server front(router, front_config);
  front.start();
  for (int spin = 0; spin < 500 && router.shard_up_conns("bh") == 0; ++spin) {
    std::this_thread::sleep_for(10ms);
  }

  cluster::Ring replica(64);
  replica.add("bh");
  replica.add("s1");
  const int values = consensus_values_owned_by(replica, "bh");

  Client client = connect_to(front.port(), /*recv=*/10s);
  client.send_line(
      R"({"id":"x","op":"solve","task":"consensus","procs":2,"values":)" +
      std::to_string(values) + R"(,"timeout_ms":150})");
  std::this_thread::sleep_for(400ms);  // budget is now provably spent
  hole.reset();                        // conn death triggers the sweep

  const std::optional<std::string> line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  const Fields fields = parse(*line);
  EXPECT_EQ(field(fields, "id"), "x");
  EXPECT_EQ(field(fields, "status"), "deadline_exceeded");
  EXPECT_GE(router.stats().hop_deadline_expired, 1u);
  front.drain();
  router.stop();
}

}  // namespace
}  // namespace wfc::net
