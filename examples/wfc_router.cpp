// wfc_router -- the consistent-hash routing tier in front of wfc_serve
// shards (cluster/router.hpp).
//
// Accepts the same JSONL v2 lines over TCP as a single wfc_serve, hashes
// each query's task fingerprint onto the shard ring, and proxies over
// pooled connections with hedging, breakers, and exactly-once id splicing.
// SIGTERM / SIGINT drain the front door gracefully (inflight queries
// finish and flush), then stop the router.
//
// Usage:
//   wfc_router --listen host:port --shard id=host:port [--shard ...]
//              [--port-file PATH] [--io-threads N] [--vnodes N]
//              [--conns-per-shard N] [--hedge-fraction F]
//              [--hedge-after-ms N] [--max-pending N] [--no-admin-ops]
//              [--no-obs] [--router-id S] [--random-routing] [--quiet]
//              [--probe-interval-ms N] [--probe-timeout-ms N]
//              [--probe-down-after N] [--retry-budget N]
//              [--retry-budget-per-sec F] [--store-readonly]
//
// Active probing is ON here (1s interval) unlike the library default;
// --probe-interval-ms 0 turns it off.
//
// Example (three local shards):
//   wfc_serve --listen :0 --port-file s1.port --shard-id s1 &
//   ...
//   wfc_router --listen 127.0.0.1:7500 --shard s1=127.0.0.1:$(cat s1.port)
//     --shard s2=127.0.0.1:$(cat s2.port) --shard s3=127.0.0.1:$(cat s3.port)
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/router.hpp"
#include "net/server.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: wfc_router --listen host:port --shard id=host:port ...\n"
      "                  [--port-file PATH] [--io-threads N] [--vnodes N]\n"
      "                  [--conns-per-shard N] [--hedge-fraction F]\n"
      "                  [--hedge-after-ms N] [--max-pending N]\n"
      "                  [--no-admin-ops] [--no-obs] [--router-id S]\n"
      "                  [--random-routing] [--quiet]\n"
      "                  [--probe-interval-ms N] [--probe-timeout-ms N]\n"
      "                  [--probe-down-after N] [--retry-budget N]\n"
      "                  [--retry-budget-per-sec F] [--store-readonly]\n"
      "Routes JSONL v2 queries to wfc_serve shards by consistent hash of\n"
      "the task fingerprint.  \"--listen :0\" binds an ephemeral port;\n"
      "--port-file writes it once accepting.\n"
      "{\"op\":\"store\"} fans out to every shard and aggregates;\n"
      "--store-readonly makes this router refuse to forward publish.\n");
  return 2;
}

/// "id=host:port" -> ShardSpec.  Throws std::invalid_argument.
wfc::cluster::ShardSpec parse_shard(const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("--shard expects id=host:port, got \"" +
                                spec + "\"");
  }
  wfc::cluster::ShardSpec out;
  out.id = spec.substr(0, eq);
  out.addr = wfc::net::parse_endpoint(spec.substr(eq + 1));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  wfc::cluster::RouterConfig config;
  std::string listen_spec;
  std::string port_file;
  int io_threads = 0;
  bool quiet = false;
  bool observability = true;
  // The binary probes by default; tests construct RouterConfig directly
  // and opt in, so the library default stays 0.
  config.probe_interval = std::chrono::milliseconds(1'000);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_str = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return !out.empty();
    };
    auto next_int = [&](int& out) {
      if (i + 1 >= argc) return false;
      out = std::atoi(argv[++i]);
      return out > 0;
    };
    std::string value;
    int number = 0;
    try {
      if (arg == "--listen" && next_str(listen_spec)) {
      } else if (arg == "--shard" && next_str(value)) {
        config.shards.push_back(parse_shard(value));
      } else if (arg == "--port-file" && next_str(port_file)) {
      } else if (arg == "--io-threads" && next_int(io_threads)) {
      } else if (arg == "--vnodes" && next_int(number)) {
        config.vnodes = number;
      } else if (arg == "--conns-per-shard" && next_int(number)) {
        config.conns_per_shard = number;
      } else if (arg == "--hedge-fraction" && i + 1 < argc) {
        config.hedge_fraction = std::atof(argv[++i]);
      } else if (arg == "--hedge-after-ms" && next_int(number)) {
        config.hedge_after = std::chrono::milliseconds(number);
      } else if (arg == "--max-pending" && next_int(number)) {
        config.max_pending = static_cast<std::size_t>(number);
      } else if (arg == "--no-admin-ops") {
        config.admin_ops = false;
      } else if (arg == "--no-obs") {
        observability = false;
      } else if (arg == "--router-id" && next_str(value)) {
        config.router_id = value;
      } else if (arg == "--random-routing") {
        config.random_routing = true;
      } else if (arg == "--probe-interval-ms" && i + 1 < argc) {
        config.probe_interval = std::chrono::milliseconds(std::atoi(argv[++i]));
      } else if (arg == "--probe-timeout-ms" && next_int(number)) {
        config.probe_timeout = std::chrono::milliseconds(number);
      } else if (arg == "--probe-down-after" && next_int(number)) {
        config.probe_down_after = number;
      } else if (arg == "--retry-budget" && i + 1 < argc) {
        // 0 disables both buckets (burst <= 0 always grants).
        config.retry_budget_burst = std::atoi(argv[++i]);
        config.shard_retry_budget_burst = config.retry_budget_burst;
      } else if (arg == "--retry-budget-per-sec" && i + 1 < argc) {
        config.retry_budget_per_sec = std::atof(argv[++i]);
        config.shard_retry_budget_per_sec = config.retry_budget_per_sec / 2;
      } else if (arg == "--store-readonly") {
        config.store_readonly = true;
      } else if (arg == "--quiet") {
        quiet = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wfc_router: %s\n", e.what());
      return 2;
    }
  }
  if (listen_spec.empty() || config.shards.empty()) return usage();
  config.obs.enabled = observability;
  if (!quiet) {
    config.log = [](const std::string& note) {
      std::fprintf(stderr, "wfc_router: %s\n", note.c_str());
    };
  }

  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
    std::fprintf(stderr, "wfc_router: pthread_sigmask failed\n");
    return 1;
  }

  try {
    wfc::cluster::Router router(std::move(config));
    router.start();

    wfc::net::ServerConfig server_config;
    server_config.listen = wfc::net::parse_endpoint(listen_spec);
    if (io_threads > 0) server_config.io_threads = io_threads;
    wfc::net::Server server(router, server_config);
    server.start();
    std::fprintf(stderr, "wfc_router: listening on %s port %u (%zu shards)\n",
                 server_config.listen.host.c_str(), server.port(),
                 router.shard_count());
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      if (!out) {
        std::fprintf(stderr, "wfc_router: cannot write port file \"%s\"\n",
                     port_file.c_str());
        return 1;
      }
      out << server.port() << "\n";
    }

    int sig = 0;
    while (sigwait(&mask, &sig) != 0) {
    }
    std::fprintf(stderr, "wfc_router: %s, draining\n", strsignal(sig));
    server.drain();
    router.stop();
    const wfc::cluster::Router::Stats s = router.stats();
    if (!quiet) {
      std::fprintf(stderr,
                   "wfc_router: requests=%llu responses=%llu hedges=%llu "
                   "hedge_wins=%llu redispatches=%llu timeouts=%llu "
                   "failed=%llu rejected=%llu\n",
                   static_cast<unsigned long long>(s.requests),
                   static_cast<unsigned long long>(s.responses),
                   static_cast<unsigned long long>(s.hedges),
                   static_cast<unsigned long long>(s.hedge_wins),
                   static_cast<unsigned long long>(s.redispatches),
                   static_cast<unsigned long long>(s.timeouts),
                   static_cast<unsigned long long>(s.failed),
                   static_cast<unsigned long long>(s.rejected));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wfc_router: %s\n", e.what());
    return 1;
  }
}
