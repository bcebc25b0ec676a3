#include "topology.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "cluster/router.hpp"
#include "net/backend.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "service/frontend.hpp"
#include "service/handler.hpp"
#include "service/query_service.hpp"
#include "wf/telemetry.hpp"

namespace wfcbench {

namespace {

using wfc::net::LineBackend;

/// What net::ServiceBackend does per line, with a span around the handler's
/// parse and submit_async and around the whole line (parse -> done).  When
/// it is the front server, it also publishes each request's span under the
/// client's id so the generator can take the net layer's self time.
class ShardTap final : public LineBackend {
 public:
  ShardTap(wfc::svc::QueryService& service, wfc::svc::HandlerConfig config,
           Recorder& recorder, bool front)
      : service_(service),
        handler_(service, std::move(config)),
        recorder_(recorder),
        front_(front) {}

  Outcome on_line(std::string_view line, int line_no, Done done) override {
    const std::uint64_t t0 = Recorder::now_ns();
    wfc::svc::RequestHandler::ParsedLine parsed =
        handler_.parse(line, line_no);
    const std::uint64_t t1 = Recorder::now_ns();
    std::uint64_t id = 0;
    const bool numeric =
        parse_numeric_id(line.data(), line.data() + line.size(), &id);
    recorder_.add(Track::kHandlerParse, t0, t1, id);
    using Action = wfc::svc::RequestHandler::Action;
    switch (parsed.action) {
      case Action::kSkip:
        return {Outcome::Kind::kSkip, {}};
      case Action::kRespond:
        return {Outcome::Kind::kRespond, std::move(parsed.immediate.line)};
      case Action::kControl:
        return {Outcome::Kind::kControl, {}};
      case Action::kSubmit:
        break;
    }
    const bool publish = front_ && numeric;
    wfc::svc::RequestHandler::Rendered error;
    const bool ok = handler_.submit_async(
        parsed,
        [this, done = std::move(done), t0, id,
         publish](wfc::svc::RequestHandler::Rendered&& rendered) {
          const std::uint64_t t = Recorder::now_ns();
          recorder_.add(Track::kBackendSpan, t0, t, id);
          if (publish) recorder_.publish_front(id, t - t0);
          done(std::move(rendered.line));
        },
        &error);
    recorder_.add(Track::kHandlerSubmit, t1, Recorder::now_ns(), id);
    if (!ok) return {Outcome::Kind::kRespond, std::move(error.line)};
    return {Outcome::Kind::kSubmitted, {}};
  }

  std::string control(std::string_view line, int line_no) override {
    return handler_.control(handler_.parse(line, line_no)).line;
  }
  [[nodiscard]] std::size_t max_line_bytes() const override {
    return handler_.config().max_line_bytes;
  }
  [[nodiscard]] wfc::obs::Observer* observer() override {
    return &service_.observer();
  }

 private:
  wfc::svc::QueryService& service_;
  wfc::svc::RequestHandler handler_;
  Recorder& recorder_;
  bool front_;
};

/// The front server's backend in the traced routed topology: the Router,
/// with a span from on_line to done and one around the inline part.
class RouterTap final : public LineBackend {
 public:
  RouterTap(wfc::cluster::Router& router, Recorder& recorder)
      : router_(router), recorder_(recorder) {}

  Outcome on_line(std::string_view line, int line_no, Done done) override {
    const std::uint64_t t0 = Recorder::now_ns();
    std::uint64_t id = 0;
    const bool numeric =
        parse_numeric_id(line.data(), line.data() + line.size(), &id);
    Outcome out = router_.on_line(
        line, line_no,
        [this, done = std::move(done), t0, id, numeric](std::string&& r) {
          const std::uint64_t t = Recorder::now_ns();
          recorder_.add(Track::kRouterSpan, t0, t, id);
          if (numeric) recorder_.publish_front(id, t - t0);
          done(std::move(r));
        });
    recorder_.add(Track::kRouterOnLine, t0, Recorder::now_ns(), id);
    return out;
  }
  std::string control(std::string_view line, int line_no) override {
    return router_.control(line, line_no);
  }
  [[nodiscard]] std::size_t max_line_bytes() const override {
    return router_.max_line_bytes();
  }
  [[nodiscard]] wfc::obs::Observer* observer() override {
    return router_.observer();
  }

 private:
  wfc::cluster::Router& router_;
  Recorder& recorder_;
};

double histogram_sum(wfc::obs::Observer& observer, const char* name,
                     double* count) {
  wfc::obs::Histogram& h = observer.metrics().histogram(
      name, wfc::obs::latency_bounds_us());
  *count = static_cast<double>(h.count());
  return static_cast<double>(h.sum());
}

}  // namespace

// Destroyed bottom-up: the server, then the service (joining workers whose
// late completions still call into the tap), then the tap.
struct Topology::Shard {
  std::string id;
  std::unique_ptr<LineBackend> tap;
  std::unique_ptr<wfc::svc::QueryService> service;
  std::unique_ptr<wfc::net::Server> server;
};

Topology::Topology(bool routed, Recorder* recorder) {
  // wfc_serve's defaults: ServeConfig's service options with obs forced on.
  const wfc::svc::ServeConfig serve;
  const int n_shards = routed ? 2 : 1;
  for (int i = 0; i < n_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->id = routed ? "s" + std::to_string(i + 1) : "";
    wfc::svc::QueryService::Options options = serve.service;
    options.obs.enabled = serve.observability;
    shard->service = std::make_unique<wfc::svc::QueryService>(options);
    wfc::net::ServerConfig config;
    config.listen = wfc::net::parse_endpoint("127.0.0.1:0");
    config.handler.default_max_level = serve.default_max_level;
    config.handler.legacy_envelope = serve.legacy_envelope;
    config.handler.max_line_bytes = serve.max_line_bytes;
    config.handler.server_id = shard->id;
    if (recorder != nullptr) {
      shard->tap = std::make_unique<ShardTap>(*shard->service, config.handler,
                                              *recorder, !routed);
      shard->server = std::make_unique<wfc::net::Server>(*shard->tap, config);
    } else {
      shard->server =
          std::make_unique<wfc::net::Server>(*shard->service, config);
    }
    shard->server->start();
    shards_.push_back(std::move(shard));
  }
  if (routed) start_router(recorder);
}

void Topology::start_router(Recorder* recorder) {
  // wfc_router's defaults: library RouterConfig, probing every second.
  wfc::cluster::RouterConfig config;
  config.probe_interval = std::chrono::milliseconds(1'000);
  config.obs.enabled = true;
  for (const auto& shard : shards_) {
    wfc::cluster::ShardSpec spec;
    spec.id = shard->id;
    spec.addr.port = shard->server->port();
    config.shards.push_back(spec);
  }
  const int conns = config.conns_per_shard;
  router_ = std::make_unique<wfc::cluster::Router>(std::move(config));
  router_->start();
  // Ready means every pooled upstream connection is up.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (const auto& shard : shards_) {
    while (router_->shard_up_conns(shard->id) < conns) {
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("router did not connect to shard " +
                                 shard->id);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  wfc::net::ServerConfig front;
  front.listen = wfc::net::parse_endpoint("127.0.0.1:0");
  if (recorder != nullptr) {
    front_tap_ = std::make_unique<RouterTap>(*router_, *recorder);
    front_ = std::make_unique<wfc::net::Server>(*front_tap_, front);
  } else {
    front_ = std::make_unique<wfc::net::Server>(*router_, front);
  }
  front_->start();
}

Topology::~Topology() {
  // Front door first, then the router, then the shards (each shard's server
  // before its service, by member order).
  if (front_) front_->stop();
  front_.reset();
  if (router_) router_->stop();
  front_tap_.reset();
  router_.reset();
  for (auto& shard : shards_) shard->server->stop();
  shards_.clear();
}

std::uint16_t Topology::port() const {
  return front_ ? front_->port() : shards_.front()->server->port();
}

Counters Topology::snapshot() const {
  Counters c;
  auto add_sink = [&c](wfc::obs::Observer& observer) {
    if (const wfc::obs::TraceSink* sink = observer.trace()) {
      c.spans_recorded += static_cast<double>(sink->recorded());
      c.spans_dropped += static_cast<double>(sink->dropped());
    }
  };
  for (const auto& shard : shards_) {
    wfc::svc::QueryService& service = *shard->service;
    const wfc::svc::ServiceStats s = service.stats();
    c.queries += static_cast<double>(s.queries);
    c.result_hits += static_cast<double>(s.result_hits);
    c.nodes_explored += static_cast<double>(s.nodes_explored);
    c.queue_peak_depth =
        std::max(c.queue_peak_depth, static_cast<double>(s.queue_peak_depth));
    c.cache_hits += static_cast<double>(s.cache.hits);
    c.cache_misses += static_cast<double>(s.cache.misses);
    c.cache_extensions += static_cast<double>(s.cache.extensions);
    c.resident_vertices += static_cast<double>(s.cache.resident_vertices);
    wfc::obs::Observer& observer = service.observer();
    double n = 0;
    c.queue_wait_us_sum += histogram_sum(observer, "wfc_queue_wait_us", &n);
    c.queue_wait_count += n;
    c.exec_us_sum += histogram_sum(observer, "wfc_exec_us", &n);
    c.exec_count += n;
    c.chain_for_us_sum += histogram_sum(observer, "wfc_chain_for_us", &n);
    c.chain_for_count += n;
    c.model_runs_admitted += static_cast<double>(
        observer.metrics().counter("wfc_model_runs_admitted_total").value());
    c.model_runs_rejected += static_cast<double>(
        observer.metrics().counter("wfc_model_runs_rejected_total").value());
    add_sink(observer);
    const wfc::net::Server::Stats w = shard->server->stats();
    c.net_bytes += static_cast<double>(w.bytes_read + w.bytes_written);
    c.net_dropped += static_cast<double>(w.dropped);
    c.shard_requests.push_back(static_cast<double>(w.requests));
  }
  if (router_) {
    const wfc::cluster::Router::Stats r = router_->stats();
    c.router_retries = static_cast<double>(r.redispatches + r.hedges);
    c.router_failed = static_cast<double>(r.timeouts + r.failed + r.rejected +
                                          r.late_drops);
    add_sink(*router_->observer());
  }
  if (front_) {
    const wfc::net::Server::Stats w = front_->stats();
    c.net_bytes += static_cast<double>(w.bytes_read + w.bytes_written);
    c.net_dropped += static_cast<double>(w.dropped);
  }
  const wfc::wf::Telemetry& t = wfc::wf::telemetry();
  c.wf_cas_retries = static_cast<double>(t.cas_retries.value());
  c.wf_help_ops = static_cast<double>(t.help_ops.value());
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  c.vcsw = static_cast<double>(ru.ru_nvcsw);
  c.ivcsw = static_cast<double>(ru.ru_nivcsw);
  return c;
}

Counters Counters::since(const Counters& before) const {
  Counters d = *this;
  d.queries -= before.queries;
  d.result_hits -= before.result_hits;
  d.nodes_explored -= before.nodes_explored;
  d.queue_wait_us_sum -= before.queue_wait_us_sum;
  d.queue_wait_count -= before.queue_wait_count;
  d.exec_us_sum -= before.exec_us_sum;
  d.exec_count -= before.exec_count;
  d.chain_for_us_sum -= before.chain_for_us_sum;
  d.chain_for_count -= before.chain_for_count;
  d.model_runs_admitted -= before.model_runs_admitted;
  d.model_runs_rejected -= before.model_runs_rejected;
  d.cache_hits -= before.cache_hits;
  d.cache_misses -= before.cache_misses;
  d.cache_extensions -= before.cache_extensions;
  d.net_bytes -= before.net_bytes;
  d.net_dropped -= before.net_dropped;
  for (std::size_t i = 0;
       i < d.shard_requests.size() && i < before.shard_requests.size(); ++i) {
    d.shard_requests[i] -= before.shard_requests[i];
  }
  d.router_retries -= before.router_retries;
  d.router_failed -= before.router_failed;
  d.spans_recorded -= before.spans_recorded;
  d.spans_dropped -= before.spans_dropped;
  d.wf_cas_retries -= before.wf_cas_retries;
  d.wf_help_ops -= before.wf_help_ops;
  d.vcsw -= before.vcsw;
  d.ivcsw -= before.ivcsw;
  return d;
}

void Counters::add(const Counters& o) {
  queries += o.queries;
  result_hits += o.result_hits;
  nodes_explored += o.nodes_explored;
  queue_peak_depth = std::max(queue_peak_depth, o.queue_peak_depth);
  queue_wait_us_sum += o.queue_wait_us_sum;
  queue_wait_count += o.queue_wait_count;
  exec_us_sum += o.exec_us_sum;
  exec_count += o.exec_count;
  chain_for_us_sum += o.chain_for_us_sum;
  chain_for_count += o.chain_for_count;
  model_runs_admitted += o.model_runs_admitted;
  model_runs_rejected += o.model_runs_rejected;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_extensions += o.cache_extensions;
  resident_vertices = std::max(resident_vertices, o.resident_vertices);
  net_bytes += o.net_bytes;
  net_dropped += o.net_dropped;
  shard_requests.resize(
      std::max(shard_requests.size(), o.shard_requests.size()));
  for (std::size_t i = 0; i < o.shard_requests.size(); ++i) {
    shard_requests[i] += o.shard_requests[i];
  }
  router_retries += o.router_retries;
  router_failed += o.router_failed;
  spans_recorded += o.spans_recorded;
  spans_dropped += o.spans_dropped;
  wf_cas_retries += o.wf_cas_retries;
  wf_help_ops += o.wf_help_ops;
  vcsw += o.vcsw;
  ivcsw += o.ivcsw;
}

int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = 0;
      status >> n;
      return n;
    }
    std::string rest;
    std::getline(status, rest);
  }
  return 0;
}

}  // namespace wfcbench
