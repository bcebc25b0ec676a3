// wfcbench main: one workload per process.
//
//   wfcbench --workload routed_hot|direct_hot|direct_cold --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 first measures the
// untraced topology, then the traced one, and prints the per-layer metrics
// plus the tracing overhead, and writes the spans as Chrome trace_event JSON
// into DIR.  The last stdout line is one JSON object:
//   {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
// Exit codes: 0 ok, 1 a wrong / missing / duplicate answer (the result line
// still prints, with "correct":false), 2 the run could not be made.
#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "topology.hpp"

namespace wfcbench {

namespace {

constexpr int kConnections = 4;
constexpr int kHotWindow = 16;   // requests in flight per connection
constexpr int kColdWindow = 4;   // 16 in flight > the server's 4 workers
constexpr int kHotTopologies = 10;     // fresh topologies per hot run
constexpr int kHotSetups = 40;  // set-ups per hot run, measured ones included
constexpr int kSlicesPerTopology = 3;  // medians are over all slices
constexpr double kHotWarmupS = 0.25;   // per topology, unmeasured
constexpr int kColdWarmPasses = 2;
constexpr int kColdSlices = 30;        // medians are over these
constexpr std::size_t kColdRssPasses = 300;
constexpr std::size_t kSpanCapacity = 60'000;  // spans kept for the file

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(Recorder::now_ns() - t0) / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Everything one measured phase produced.
struct Phase {
  std::vector<Slice> slices;
  std::vector<double> setup_s;
  Counters counters;              // measured window (hot) / summed passes
  std::vector<Counters> passes;   // direct_cold: one entry per pass
  int threads = 0;
  /// direct_cold: peak RSS once kColdRssPasses passes are done, so the
  /// figure covers a fixed amount of work however fast the host runs.
  double rss_mb = 0;
};

double throughput(const Phase& p) {
  std::vector<double> v;
  for (const Slice& s : p.slices) v.push_back(ratio(s.ok, s.wall_s));
  return median(v);
}

/// Share of all CPU time the hypervisor gave to other guests while the
/// phase was measuring.
double steal_ratio(const Phase& p) {
  double stolen = 0, ticks = 0;
  for (const Slice& s : p.slices) {
    stolen += s.host_steal;
    ticks += s.host_ticks;
  }
  return ratio(stolen, ticks);
}

std::uint64_t answered(const Phase& p) {
  std::uint64_t n = 0;
  for (const Slice& s : p.slices) n += s.answered;
  return n;
}

// ---------------------------------------------------------------- phases

/// The hot window is split over kHotTopologies fresh topologies, so one
/// run's medians span several independent set-ups.  setup_s is the median
/// of kHotSetups set-up times: a single set-up varies by tens of percent,
/// so the topologies that are only set up (first) add samples to it.
Phase run_hot(bool routed, const Args& args, Generator& gen,
              Recorder* recorder) {
  Phase phase;
  auto set_up = [&] {
    const std::uint64_t t0 = Recorder::now_ns();
    auto topo = std::make_unique<Topology>(routed, recorder);
    gen.connect(topo->port(), kConnections);
    gen.answer_each_once();
    phase.setup_s.push_back(seconds_since(t0));
    return topo;
  };
  for (int i = kHotTopologies; i < kHotSetups && gen.tally().failed() == 0;
       ++i) {
    const std::unique_ptr<Topology> topo = set_up();
    gen.disconnect();
  }
  for (int i = 0; i < kHotTopologies && gen.tally().failed() == 0; ++i) {
    const std::unique_ptr<Topology> topo = set_up();
    if (gen.tally().failed() > 0) break;
    Counters before;
    std::vector<Slice> slices = gen.run_hot(
        kHotWindow, kHotWarmupS, args.seconds / kHotTopologies,
        kSlicesPerTopology, [&](bool start) {
          if (start) {
            before = topo->snapshot();
            if (recorder != nullptr) recorder->set_enabled(true);
          } else {
            if (recorder != nullptr) recorder->set_enabled(false);
            phase.counters.add(topo->snapshot().since(before));
            phase.threads = process_threads();
          }
        });
    for (Slice& s : slices) phase.slices.push_back(std::move(s));
    gen.disconnect();
  }
  return phase;
}

/// Passes on fresh servers, back to back; each pass adds its serving time
/// and answers to the slice of the window it runs in.
Phase run_cold(const Args& args, Generator& gen, Recorder* recorder) {
  Phase phase;
  std::uint64_t pass = 0;
  auto one_pass = [&](Slice* slice) {  // null: unmeasured
    const std::uint64_t t0 = Recorder::now_ns();
    Topology topo(false, recorder);
    gen.connect(topo.port(), kConnections);
    const double setup = seconds_since(t0);
    const Counters before = topo.snapshot();
    if (slice != nullptr && recorder != nullptr) recorder->set_enabled(true);
    gen.run_pass(kColdWindow, pass++, slice);
    if (recorder != nullptr) recorder->set_enabled(false);
    if (slice != nullptr) {
      const Counters delta = topo.snapshot().since(before);
      if (phase.passes.empty()) phase.threads = process_threads();
      phase.counters.add(delta);
      phase.passes.push_back(delta);
      phase.setup_s.push_back(setup);
      if (phase.passes.size() == kColdRssPasses) phase.rss_mb = peak_rss_mb();
    }
    gen.disconnect();
  };
  for (int i = 0; i < kColdWarmPasses && gen.tally().failed() == 0; ++i) {
    one_pass(nullptr);
  }
  const double slice_s = args.seconds / kColdSlices;
  const std::uint64_t start = Recorder::now_ns();
  for (int i = 1; i <= kColdSlices && gen.tally().failed() == 0; ++i) {
    Slice slice;
    do {
      one_pass(&slice);
    } while (seconds_since(start) < slice_s * i && gen.tally().failed() == 0);
    phase.slices.push_back(std::move(slice));
  }
  return phase;
}

Phase run_phase(const Args& args, Generator& gen, Recorder* recorder) {
  if (args.workload == "direct_cold") return run_cold(args, gen, recorder);
  return run_hot(args.workload == "routed_hot", args, gen, recorder);
}

// --------------------------------------------------------------- metrics

std::vector<Metric> end_to_end(const Phase& p) {
  std::vector<double> p50, p90, cpu;
  for (const Slice& s : p.slices) {
    p50.push_back(s.latency.quantile_us(0.5));
    p90.push_back(s.latency.quantile_us(0.9));
    cpu.push_back(ratio(s.program_cpu_s * 1e6, s.answered));
  }
  return {
      {"setup_s", median(p.setup_s), "s"},
      {"throughput_qps", throughput(p), "1/s"},
      {"latency_p50_us", median(p50), "us"},
      {"latency_p90_us", median(p90), "us"},
      {"cpu_us_per_query", median(cpu), "us"},
      {"peak_rss_mb", p.rss_mb > 0 ? p.rss_mb : peak_rss_mb(), "MB"},
  };
}

Histogram merged_latency(const Phase& p) {
  Histogram all;
  for (const Slice& s : p.slices) all.merge(s.latency);
  return all;
}

/// Median of one per-pass count, and whether it repeated exactly.
std::pair<double, bool> per_pass(const Phase& p,
                                 double (*field)(const Counters&)) {
  std::vector<double> v;
  for (const Counters& c : p.passes) v.push_back(field(c));
  const bool exact =
      v.empty() || std::all_of(v.begin(), v.end(),
                               [&](double x) { return x == v.front(); });
  return {median(v), exact};
}

struct LayerReport {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
};

LayerReport per_layer(const Args& args, const Phase& traced,
                      const Recorder& rec, const Generator& gen,
                      double untraced_qps) {
  const bool routed = args.workload == "routed_hot";
  const bool cold = args.workload == "direct_cold";
  const Counters& c = traced.counters;
  const double n = static_cast<double>(answered(traced));
  const Histogram client = merged_latency(traced);
  double wall = 0, gen_cpu = 0;
  for (const Slice& s : traced.slices) {
    wall += s.wall_s;
    gen_cpu += s.gen_cpu_s;
  }
  const NetSelf& ns = gen.net_self();
  const double net_self = ratio(ns.sum_us, ns.matched);
  const double router_span = rec.mean_us(Track::kRouterSpan);
  const double backend_span = rec.mean_us(Track::kBackendSpan);
  double share_max = 0, share_sum = 0;
  for (double r : c.shard_requests) share_sum += r;
  for (double r : c.shard_requests) share_max = std::max(share_max, r);
  const double exec_mean = ratio(c.exec_us_sum, c.exec_count);
  const double chain_for_mean = ratio(c.chain_for_us_sum, c.chain_for_count);
  const double lookups = c.cache_hits + c.cache_misses + c.cache_extensions;

  LayerReport out;
  // direct_cold reports these per pass -- each pass starts a fresh server,
  // so they must repeat exactly; the hot workloads count the whole window.
  auto count = [&](double (*field)(const Counters&), const char* name) {
    if (!cold) return field(c);
    const auto [value, exact] = per_pass(traced, field);
    if (!exact) {
      out.notes.push_back(std::string(name) +
                          " did not repeat exactly across passes");
    }
    return value;
  };
  const double chain_builds = count(
      [](const Counters& x) { return x.cache_misses + x.cache_extensions; },
      "sds_cache.chain_builds");
  const double resident =
      count([](const Counters& x) { return x.resident_vertices; },
            "sds_cache.resident_vertices");
  const double search_nodes =
      count([](const Counters& x) { return x.nodes_explored; },
            "tasks.search_nodes");
  const double admitted =
      count([](const Counters& x) { return x.model_runs_admitted; },
            "model.runs_admitted");
  const double rejected =
      count([](const Counters& x) { return x.model_runs_rejected; },
            "model.runs_rejected");
  const double traced_qps = throughput(traced);

  out.metrics = {
      {"client.samples", static_cast<double>(client.count()), "count"},
      {"client.latency_p99_us", client.quantile_us(0.99), "us"},
      {"client.gen_busy_ratio", ratio(gen_cpu, wall), "1"},
      {"net.self_us_mean", net_self, "us"},
      {"net.bytes_per_query", ratio(c.net_bytes, n), "B"},
      {"net.dropped", c.net_dropped, "count"},
      {"cluster.span_us_p50", routed ? rec.p50_us(Track::kRouterSpan) : 0,
       "us"},
      {"cluster.on_line_us_mean",
       routed ? rec.mean_us(Track::kRouterOnLine) : 0, "us"},
      {"cluster.hop_self_us_mean", routed ? router_span - backend_span : 0,
       "us"},
      {"cluster.shard_share_max", routed ? ratio(share_max, share_sum) : 0,
       "1"},
      {"cluster.retries", c.router_retries, "count"},
      {"cluster.failed", c.router_failed, "count"},
      {"service.parse_us_mean", rec.mean_us(Track::kHandlerParse), "us"},
      {"service.submit_us_mean", rec.mean_us(Track::kHandlerSubmit), "us"},
      {"service.backend_us_p50", rec.p50_us(Track::kBackendSpan), "us"},
      {"service.memo_hit_ratio", ratio(c.result_hits, c.queries), "1"},
      {"service.queue_wait_us_mean",
       ratio(c.queue_wait_us_sum, c.queue_wait_count), "us"},
      // The peak is a high-water mark since start-up; nothing queued in
      // the window when nothing waited.
      {"service.queue_peak_depth",
       c.queue_wait_count > 0 ? c.queue_peak_depth : 0, "count"},
      {"service.exec_us_mean", exec_mean, "us"},
      {"sds_cache.chain_builds", chain_builds, "count"},
      {"sds_cache.hit_ratio", ratio(c.cache_hits, lookups), "1"},
      {"sds_cache.chain_for_us_mean", chain_for_mean, "us"},
      {"sds_cache.resident_vertices", resident, "count"},
      {"tasks.search_nodes", search_nodes, "count"},
      {"tasks.search_us_mean",
       c.exec_count > 0 ? std::max(0.0, exec_mean - chain_for_mean) : 0, "us"},
      {"model.runs_admitted", admitted, "count"},
      {"model.runs_rejected", rejected, "count"},
      {"wf.cas_retries_per_query", ratio(c.wf_cas_retries, n), "1"},
      {"wf.help_ops_per_query", ratio(c.wf_help_ops, n), "1"},
      {"obs.spans_per_query", ratio(c.spans_recorded, n), "1"},
      {"obs.spans_dropped", c.spans_dropped, "count"},
      {"proc.vcsw_per_query", ratio(c.vcsw, n), "1"},
      {"proc.ivcsw_per_query", ratio(c.ivcsw, n), "1"},
      {"proc.threads", static_cast<double>(traced.threads), "count"},
      {"proc.steal_ratio", steal_ratio(traced), "1"},
      {"trace.overhead_ratio", ratio(untraced_qps - traced_qps, untraced_qps),
       "1"},
  };
  return out;
}

/// Where the client's mean latency goes, layer by layer (traced run).
void print_breakdown(const Args& args, const Recorder& rec,
                     const Generator& gen) {
  const bool routed = args.workload == "routed_hot";
  const double client = rec.mean_us(Track::kClient);
  const double net = ratio(gen.net_self().sum_us, gen.net_self().matched);
  const double backend = rec.mean_us(Track::kBackendSpan);
  const double parse = rec.mean_us(Track::kHandlerParse);
  struct Row {
    const char* key;
    const char* label;
    double us;
  };
  std::vector<Row> rows = {
      {"net", "net: client, sockets, front net::Server (L - front span)",
       net}};
  if (routed) {
    const double span = rec.mean_us(Track::kRouterSpan);
    const double on_line = rec.mean_us(Track::kRouterOnLine);
    rows.push_back({"router_inline", "cluster: Router::on_line inline",
                    on_line});
    rows.push_back({"router_hop",
                    "cluster: hop rest (router span - on_line - shard span)",
                    span - on_line - backend});
  }
  rows.push_back({"parse", "service: RequestHandler::parse", parse});
  rows.push_back({"service",
                  "service: submit_async -> done (memo hit, or queue + exec)",
                  backend - parse});
  std::printf("layer breakdown of the client's mean latency (%s, us):\n",
              args.workload.c_str());
  double sum = 0;
  for (const Row& row : rows) {
    std::printf("  %-58s %10.2f\n", row.label, row.us);
    sum += row.us;
  }
  std::printf("  %-58s %10.2f\n", "sum of layers", sum);
  std::printf("  %-58s %10.2f\n", "client mean latency", client);
  std::printf("  %-58s %10.2f\n", "(submit_async inline call, for reference)",
              rec.mean_us(Track::kHandlerSubmit));
  std::printf("  BREAKDOWN %s", args.workload.c_str());
  for (const Row& row : rows) std::printf(" %s=%.3f", row.key, row.us);
  std::printf(" client=%.3f\n", client);
}

// ---------------------------------------------------------------- output

std::string number(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) v = 0;  // JSON has no NaN/inf
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  return std::string(buf, end);
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += tally.failed() == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.sent);
  line += ", \"failed\": " + std::to_string(tally.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void report_tally(const Tally& t) {
  std::printf(
      "answers: sent=%llu ok=%llu non_ok=%llu wrong=%llu lost=%llu "
      "duplicate=%llu unmatched=%llu error_ratio=%g nodes=%llu\n",
      static_cast<unsigned long long>(t.sent),
      static_cast<unsigned long long>(t.ok),
      static_cast<unsigned long long>(t.non_ok),
      static_cast<unsigned long long>(t.wrong),
      static_cast<unsigned long long>(t.lost),
      static_cast<unsigned long long>(t.duplicate),
      static_cast<unsigned long long>(t.unmatched),
      ratio(static_cast<double>(t.failed()), static_cast<double>(t.sent)),
      static_cast<unsigned long long>(t.nodes));
  for (const std::string& e : t.errors) {
    std::fprintf(stderr, "wfcbench: %s\n", e.c_str());
  }
}

int run(const Args& args) {
  const bool cold = args.workload == "direct_cold";
  const std::vector<Line> corpus = cold ? cold_corpus() : hot_corpus();
  Generator gen(corpus, args.seed, nullptr);
  const Phase untraced = run_phase(args, gen, nullptr);
  if (gen.tally().failed() > 0) {
    report_tally(gen.tally());
    print_result(gen.tally(), end_to_end(untraced));
    return 1;
  }
  std::printf("workload %s seed %llu: %zu lines, %zu slices\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), corpus.size(),
              untraced.slices.size());
  std::printf("slice throughput_qps/host steal %%:");
  for (const Slice& s : untraced.slices) {
    std::printf(" %.0f/%.0f", ratio(s.ok, s.wall_s), 100 * s.steal_ratio());
  }
  std::printf("\n");
  if (cold) {
    std::printf("peak RSS %.2f MB after %zu passes, %.2f MB after %zu\n",
                untraced.rss_mb, kColdRssPasses, peak_rss_mb(),
                untraced.passes.size());
  }
  // Host versus program: steal is CPU time the hypervisor gave elsewhere;
  // context switches per query are the program's own blocking.
  const Counters& uc = untraced.counters;
  const double un = static_cast<double>(answered(untraced));
  std::printf("host steal_ratio %.4f, vcsw/query %.4f, ivcsw/query %.4f\n",
              steal_ratio(untraced), ratio(uc.vcsw, un), ratio(uc.ivcsw, un));
  const std::vector<Metric> e2e = end_to_end(untraced);
  if (!args.trace) {
    // Printed beside the gated metrics, not gated: the p99, its sample
    // count, and the error ratio (0 on every accepted run).
    const Histogram all = merged_latency(untraced);
    std::vector<Metric> table = e2e;
    table.push_back({"client.latency_p99_us", all.quantile_us(0.99), "us"});
    table.push_back({"client.samples", static_cast<double>(all.count()),
                     "count"});
    table.push_back({"error_ratio",
                     ratio(static_cast<double>(gen.tally().failed()),
                           static_cast<double>(gen.tally().sent)),
                     "1"});
    print_table("end-to-end metrics (untraced):", table);
    report_tally(gen.tally());
    print_result(gen.tally(), e2e);
    return 0;
  }

  Recorder rec(kSpanCapacity);
  Generator traced_gen(corpus, args.seed, &rec);
  const Phase traced = run_phase(args, traced_gen, &rec);
  Tally tally = gen.tally();
  tally.add(traced_gen.tally());
  const LayerReport layers =
      per_layer(args, traced, rec, traced_gen, throughput(untraced));
  print_table("per-layer metrics (traced run):", layers.metrics);
  for (const std::string& note : layers.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::printf("tracing overhead: %.0f q/s untraced, %.0f q/s traced\n",
              throughput(untraced), throughput(traced));
  print_breakdown(args, rec, traced_gen);
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  if (rec.write_chrome_trace(path)) {
    std::printf("spans: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "wfcbench: cannot write %s\n", path.c_str());
    return 2;
  }
  report_tally(tally);
  print_result(tally, layers.metrics);
  return tally.failed() == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: wfcbench --workload routed_hot|direct_hot|direct_cold "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace

}  // namespace wfcbench

int main(int argc, char** argv) {
  using namespace wfcbench;
  ::signal(SIGPIPE, SIG_IGN);
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0 ||
      (args.workload != "routed_hot" && args.workload != "direct_hot" &&
       args.workload != "direct_cold")) {
    return usage();
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wfcbench: %s\n", e.what());
    return 2;
  }
}
