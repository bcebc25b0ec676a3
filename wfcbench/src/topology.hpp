// The serving topology under test, started in-process on loopback.
//
//   direct: one shard -- QueryService + net::Server, as `wfc_serve --listen`
//           builds them by default (obs on, default workers and io threads);
//   routed: two such shards behind cluster::Router behind a front
//           net::Server, as `wfc_router --listen ... --shard ...` builds them
//           (probing every second, obs on, default pools).
//
// With a Recorder the topology is the TRACED variant: each shard serves
// through a tap that does what net::ServiceBackend::on_line does, through
// svc::RequestHandler::parse and submit_async, with a span around each call;
// the front server serves through a LineBackend wrapper around the Router.
// Without one it uses the plain ServiceBackend and Router.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"

namespace wfc::cluster {
class Router;
}
namespace wfc::net {
class LineBackend;
class Server;
}

namespace wfcbench {

/// Counters read from outside the program through the libraries' public
/// stats() and metrics registries.  Differences of two snapshots cover the
/// interval between them.
struct Counters {
  // svc::QueryService, summed over shards.
  double queries = 0;
  double result_hits = 0;
  double nodes_explored = 0;
  double queue_peak_depth = 0;  // max over shards, not a difference
  double queue_wait_us_sum = 0, queue_wait_count = 0;
  double exec_us_sum = 0, exec_count = 0;
  double chain_for_us_sum = 0, chain_for_count = 0;
  double model_runs_admitted = 0;
  double model_runs_rejected = 0;
  // svc::SdsCache, summed over shards.
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_extensions = 0;
  double resident_vertices = 0;  // level, not a difference
  // net::Server, summed over every server of the topology.
  double net_bytes = 0;
  double net_dropped = 0;
  std::vector<double> shard_requests;  // per shard server
  // cluster::Router.
  double router_retries = 0;  // redispatches + hedges
  double router_failed = 0;   // timeouts + failed + rejected + late drops
  // obs trace sinks of every observer in the topology.
  double spans_recorded = 0;
  double spans_dropped = 0;
  // wf::telemetry(), process-wide.
  double wf_cas_retries = 0;
  double wf_help_ops = 0;
  // getrusage(RUSAGE_SELF).
  double vcsw = 0;
  double ivcsw = 0;

  /// this - before, field by field (levels and maxima are kept as is).
  [[nodiscard]] Counters since(const Counters& before) const;
  /// Accumulates another interval (levels and maxima take the max).
  void add(const Counters& other);
};

class Topology {
 public:
  Topology(bool routed, Recorder* recorder);
  ~Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] Counters snapshot() const;

 private:
  struct Shard;
  void start_router(Recorder* recorder);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<wfc::cluster::Router> router_;
  std::unique_ptr<wfc::net::LineBackend> front_tap_;
  std::unique_ptr<wfc::net::Server> front_;
};

/// Threads of this process (from /proc/self/status), 0 when unreadable.
int process_threads();

}  // namespace wfcbench
