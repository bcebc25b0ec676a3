// Chaos and resilience tests for the wfc::svc query service: admission
// control (reject-new / drop-oldest), deadline-at-dequeue, the watchdog's
// hard cap and stall detector, bad_alloc containment with cache shedding,
// pin-protected cache eviction, and the seeded chaos soak storm whose
// invariants define "robust": every ticket reaches exactly one terminal
// status, destruction mid-storm never deadlocks, and the service counters
// reconcile (submitted == sum of terminal statuses).
//
// Soak length is WFC_CHAOS_SOAK_MS (default 2000); CI's chaos-soak job runs
// a long storm under TSan.  The fault sequence is seeded via WFC_TEST_SEED.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "exposition.hpp"
#include "service/chaos.hpp"
#include "service/query_service.hpp"
#include "service/sds_cache.hpp"
#include "service/status.hpp"
#include "tasks/canonical.hpp"
#include "topology/complex.hpp"

namespace wfc::svc {
namespace {

using task::Solvability;
using topo::base_simplex;

int soak_millis() {
  const char* env = std::getenv("WFC_CHAOS_SOAK_MS");
  if (env == nullptr || *env == '\0') return 2000;
  return std::max(1, std::atoi(env));
}

/// Consensus whose Delta sleeps: a deterministically slow first search.
/// The sleeps land in the task's one Delta compile (32 allows() calls for
/// consensus(2,2)), which polls the query's cancel token and deadline
/// before each of the 8 faces of I, at most 6 calls apart; the search
/// after it polls at every node.  At the default 300us per call a fresh
/// query stays busy for about 10ms.
class SlowConsensus final : public task::Task {
 public:
  explicit SlowConsensus(std::chrono::microseconds nap =
                             std::chrono::microseconds(300))
      : inner_(2, 2), nap_(nap) {}
  [[nodiscard]] const topo::ChromaticComplex& input() const override {
    return inner_.input();
  }
  [[nodiscard]] const topo::ChromaticComplex& output() const override {
    return inner_.output();
  }
  [[nodiscard]] std::string name() const override { return "slow-consensus"; }
  [[nodiscard]] bool allows(const topo::Simplex& in,
                            const topo::Simplex& out) const override {
    std::this_thread::sleep_for(nap_);
    return inner_.allows(in, out);
  }

 private:
  task::ConsensusTask inner_;
  std::chrono::microseconds nap_;
};

/// Blocks a test until the worker has actually begun executing a query.
/// Sleeping instead is racy: under TSan the worker may still be starting
/// up, and a "queued" probe would land in the queue slot the test thinks
/// is empty (drop-oldest would then evict the wrong query).
struct StartGate {
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  void arm(QueryService::Options& options) {
    options.execute_hook = [this](std::atomic<bool>&) {
      {
        std::lock_guard<std::mutex> lock(mu);
        ++started;
      }
      cv.notify_all();
    };
  }
  void await(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started >= n; });
  }
};

/// Waits (bounded) for a ticket and returns its result; fails the test
/// instead of hanging forever if the service lost the query.
QueryResult get_within(QueryTicket& ticket, int seconds = 60) {
  const auto status =
      ticket.result.wait_for(std::chrono::seconds(seconds));
  EXPECT_EQ(status, std::future_status::ready)
      << "query never reached a terminal status";
  if (status != std::future_status::ready) return {};
  return ticket.result.get();
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST(Admission, RejectNewShedsWithRetryHint) {
  QueryService::Options options;
  options.workers = 1;
  options.max_queue_depth = 1;
  options.admission_policy = AdmissionQueue::Policy::kRejectNew;
  StartGate gate;
  gate.arm(options);
  QueryService service(options);

  // Occupy the worker, fill the queue, then overflow.
  auto running = service.submit(Query::solve(std::make_shared<SlowConsensus>()));
  gate.await(1);
  auto queued = service.submit(Query::solve(std::make_shared<SlowConsensus>()));
  auto shed = service.submit(Query::solve(std::make_shared<SlowConsensus>()));

  const QueryResult r = get_within(shed);
  EXPECT_EQ(r.status, Status::kOverloaded);
  EXPECT_GT(r.retry_after_ms, 0u);

  service.cancel_all();
  get_within(running);
  get_within(queued);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.count(Status::kOverloaded), 1u);
  EXPECT_TRUE(stats.reconciles()) << stats.to_string();
}

TEST(Admission, DropOldestCancelsTheVictimAndAdmitsTheNewcomer) {
  QueryService::Options options;
  options.workers = 1;
  options.max_queue_depth = 1;
  options.admission_policy = AdmissionQueue::Policy::kDropOldest;
  StartGate gate;
  gate.arm(options);
  QueryService service(options);

  auto running = service.submit(Query::solve(std::make_shared<SlowConsensus>()));
  gate.await(1);
  auto victim = service.submit(Query::solve(std::make_shared<SlowConsensus>()));
  auto newcomer = service.submit(Query::solve(std::make_shared<SlowConsensus>()));

  // The victim is aborted synchronously by the overflowing submit.
  const QueryResult v = get_within(victim);
  EXPECT_EQ(v.status, Status::kOverloaded);

  service.cancel_all();
  get_within(running);
  const QueryResult n = get_within(newcomer);
  EXPECT_NE(n.status, Status::kOverloaded);  // admitted, then cancelled
  EXPECT_TRUE(service.stats().reconciles());
}

TEST(Admission, DeadlineExpiredWhileQueuedNeverStartsTheSearch) {
  QueryService::Options options;
  options.workers = 1;
  QueryService service(options);

  // Saturate the single worker so the timed query must wait in the queue
  // past its 0ms deadline.
  auto blocker = service.submit(Query::solve(std::make_shared<SlowConsensus>()));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  QueryOptions qopts;
  qopts.timeout = std::chrono::milliseconds(0);
  auto expired =
      service.submit(Query::solve(std::make_shared<SlowConsensus>(), qopts));

  service.cancel_all();
  const QueryResult r = get_within(expired);
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_EQ(r.solve.status, Solvability::kCancelled);
  EXPECT_EQ(r.solve.nodes_explored, 0u);  // the search never ran
  get_within(blocker);
}

TEST(Admission, DegradedBudgetUnderLoadYieldsUnknown) {
  QueryService::Options options;
  options.workers = 1;
  options.max_queue_depth = 4;
  options.degrade_budget_under_load = true;
  StartGate gate;
  gate.arm(options);
  QueryService service(options);

  auto running = service.submit(Query::solve(std::make_shared<SlowConsensus>()));
  gate.await(1);
  // Fill the queue at least half full so dequeued searches degrade.  Approx
  // agreement needs real search nodes for its level-1 witness (unlike
  // consensus, which root propagation refutes for free), so a degraded
  // budget of 1 forces kUnknown.
  std::vector<QueryTicket> queued;
  for (int i = 0; i < 4; ++i) {
    QueryOptions qopts;
    qopts.node_budget = 2;  // degrades to 1 under pressure
    queued.push_back(service.submit(Query::solve(
        std::make_shared<task::ApproxAgreementTask>(2, 3), qopts)));
  }
  running.cancel->store(true);  // free the worker; the queue is now deep
  bool saw_degraded = false;
  for (auto& t : queued) {
    const QueryResult r = get_within(t);
    if (r.degraded) {
      saw_degraded = true;
      EXPECT_EQ(r.status, Status::kOk);
      EXPECT_EQ(r.solve.status, Solvability::kUnknown);
    }
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_GE(service.stats().degraded, 1u);
  get_within(running);
}

// ---------------------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------------------

TEST(WatchdogRules, HardTimeoutKillsARunawayQuery) {
  QueryService::Options options;
  options.workers = 1;
  options.hard_timeout = std::chrono::milliseconds(100);
  options.watchdog_scan_period = std::chrono::milliseconds(5);
  QueryService service(options);

  // No per-query deadline: only the watchdog can stop this slow query
  // (10ms per Delta call puts the 32-call compile at 320ms, far past the
  // hard cap).
  auto ticket = service.submit(Query::solve(
      std::make_shared<SlowConsensus>(std::chrono::milliseconds(10))));
  const QueryResult r = get_within(ticket);
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_EQ(r.solve.status, Solvability::kCancelled);
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.watchdog_kills, 1u);
  EXPECT_TRUE(stats.reconciles());
}

TEST(WatchdogRules, SilentHeartbeatIsReportedAsStuck) {
  QueryService::Options options;
  options.workers = 1;
  options.watchdog_scan_period = std::chrono::milliseconds(5);
  options.watchdog_stall_scans = 3;
  options.hard_timeout = std::chrono::milliseconds(250);  // eventual rescue
  QueryService service(options);

  // Delta sleeps 20ms PER CALL: while the task compiles its Delta tables
  // the heartbeat is silent for many scans, which is exactly a stuck-worker
  // signature.
  auto ticket = service.submit(Query::solve(
      std::make_shared<SlowConsensus>(std::chrono::milliseconds(20))));
  const QueryResult r = get_within(ticket);
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);  // killed by the hard cap
  EXPECT_GE(service.stats().stuck_worker_reports, 1u);
}

// ---------------------------------------------------------------------------
// Fault containment: bad_alloc inside a query.
// ---------------------------------------------------------------------------

TEST(FaultContainment, BuildFaultIsContainedAndRetryable) {
  QueryService::Options options;
  options.workers = 1;
  std::atomic<int> faults_left{1};
  options.cache.build_fault_hook = [&faults_left] {
    if (faults_left.fetch_sub(1) > 0) throw std::bad_alloc();
  };
  QueryService service(options);

  auto first =
      service.submit(Query::solve(std::make_shared<task::ConsensusTask>(2, 2)));
  const QueryResult r1 = get_within(first);
  EXPECT_EQ(r1.status, Status::kResourceExhausted);
  EXPECT_GT(r1.retry_after_ms, 0u);
  EXPECT_GE(service.stats().cache.sheds, 1u);  // pressure response fired

  // The fault was transient; the retry succeeds and the cache is usable.
  auto second =
      service.submit(Query::solve(std::make_shared<task::ConsensusTask>(2, 2)));
  const QueryResult r2 = get_within(second);
  EXPECT_EQ(r2.status, Status::kOk);
  EXPECT_EQ(r2.solve.status, Solvability::kUnsolvable);
  EXPECT_TRUE(service.stats().reconciles());
}

// ---------------------------------------------------------------------------
// Cache pinning and shedding.
// ---------------------------------------------------------------------------

TEST(CachePinning, EvictionSkipsEntriesBeingBuilt) {
  SdsCache::Options options;
  options.max_entries = 1;  // maximal eviction pressure
  std::mutex mu;
  std::condition_variable cv;
  bool block_build = true;  // only the first build blocks
  bool in_build = false;
  bool release = false;
  options.build_fault_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!block_build) return;
    block_build = false;
    in_build = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  SdsCache cache(options);

  // Builder parks mid-build of base_simplex(3)'s tower, holding the pin.
  std::thread builder([&cache] {
    auto chain = cache.chain_for(base_simplex(3), 1);
    EXPECT_GE(chain->depth(), 1);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return in_build; });
  }
  // Churn other entries through the over-capacity cache: the pinned entry
  // must survive every eviction pass (the WFC_CHECK inside chain_for would
  // abort the build if it did not).
  cache.chain_for(base_simplex(2), 1);
  cache.chain_for(base_simplex(4), 0);
  {
    // Pressure really was applied around the pin: a cold entry was evicted,
    // while the mid-build entry is still indexed.
    const CacheStats mid = cache.stats();
    EXPECT_GE(mid.evictions, 1u);
    EXPECT_EQ(mid.entries, 2u);  // the hottest entry plus the pinned one
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  builder.join();
  // Once unpinned, the entry is subject to the normal LRU bound again --
  // containment over, no special cases left behind.
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(CachePinning, ShedReleasesColdWeight) {
  SdsCache cache;
  cache.chain_for(base_simplex(2), 1);
  cache.chain_for(base_simplex(3), 1);
  cache.chain_for(base_simplex(4), 1);
  const std::size_t before = cache.stats().resident_vertices;
  ASSERT_GT(before, 0u);

  const std::size_t evicted = cache.shed(0.5);
  EXPECT_GE(evicted, 1u);
  const CacheStats after = cache.stats();
  EXPECT_EQ(after.sheds, 1u);
  EXPECT_LT(after.resident_vertices, before);
  // Shedding starts from the cold tail: the most recent entry survives.
  bool built = true;
  cache.chain_for(base_simplex(4), 1, &built);
  EXPECT_FALSE(built);
}

// ---------------------------------------------------------------------------
// Shutdown.
// ---------------------------------------------------------------------------

TEST(Shutdown, DestructorDrainsEveryPendingFuture) {
  std::vector<QueryTicket> tickets;
  {
    QueryService::Options options;
    options.workers = 2;
    options.max_queue_depth = 64;
    QueryService service(options);
    for (int i = 0; i < 24; ++i) {
      tickets.push_back(
          service.submit(Query::solve(std::make_shared<SlowConsensus>())));
    }
  }  // destructor: cancel, close, drain, join -- no ticket left behind
  for (QueryTicket& t : tickets) {
    const auto status = t.result.wait_for(std::chrono::seconds(0));
    EXPECT_EQ(status, std::future_status::ready);
    const QueryResult r = t.result.get();
    EXPECT_NE(r.status, Status::kOk);  // nothing this slow finished cleanly
  }
}

TEST(Shutdown, SubmitAfterHeavyCancelStillTerminates) {
  QueryService::Options options;
  options.workers = 1;
  QueryService service(options);
  auto a = service.submit(Query::solve(std::make_shared<SlowConsensus>()));
  service.cancel_all();
  auto b = service.submit(Query::solve(std::make_shared<task::ConsensusTask>(2, 2)));
  get_within(a);
  const QueryResult r = get_within(b);
  EXPECT_EQ(r.status, Status::kOk);  // cancel_all is not shutdown
  EXPECT_TRUE(service.stats().reconciles());
}

// ---------------------------------------------------------------------------
// The chaos soak storm.
// ---------------------------------------------------------------------------

TEST(ChaosSoak, StormPreservesEveryInvariant) {
  const std::uint64_t seed = logged_test_seed("service_chaos_test", 0xC4A05);
  Rng rng(seed);

  ChaosMonkey::Options chaos_options;
  chaos_options.seed = seed ^ 0x9e3779b97f4a7c15ull;
  chaos_options.cancel_prob = 0.25;
  chaos_options.stall_prob = 0.10;
  chaos_options.stall_for = std::chrono::milliseconds(20);
  chaos_options.build_fault_prob = 0.10;
  ChaosMonkey chaos(chaos_options);

  QueryService::Options options;
  options.workers = 3;
  options.max_queue_depth = 8;
  options.admission_policy = AdmissionQueue::Policy::kRejectNew;
  options.degrade_budget_under_load = true;
  options.hard_timeout = std::chrono::milliseconds(400);
  options.watchdog_scan_period = std::chrono::milliseconds(5);
  options.watchdog_stall_scans = 3;
  options.obs.enabled = true;  // metrics + tracing ride along under chaos
  options.obs.trace_capacity = 1 << 12;
  chaos.arm(options);

  const auto storm_end = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(soak_millis());
  std::uint64_t submitted = 0;
  std::uint64_t terminal[kNumStatuses] = {};
  std::vector<QueryTicket> window;

  {
    QueryService service(options);

    auto reap = [&](std::size_t keep) {
      while (window.size() > keep) {
        QueryResult r = get_within(window.front());
        ++terminal[static_cast<int>(r.status)];
        window.erase(window.begin());
      }
    };

    // A small pool of shared tasks (memo + cache hits), fresh instances
    // (real searches), slow tasks (stall/kill fodder), check queries, and
    // direct caller cancellations on top of the injected faults.
    auto shared_consensus = std::make_shared<task::ConsensusTask>(2, 2);
    auto shared_approx = std::make_shared<task::ApproxAgreementTask>(2, 3);
    while (std::chrono::steady_clock::now() < storm_end) {
      switch (rng.below(6)) {
        case 0:
          window.push_back(service.submit(Query::solve(shared_consensus)));
          break;
        case 1:
          window.push_back(service.submit(Query::solve(shared_approx)));
          break;
        case 2:
          window.push_back(service.submit(Query::solve(
              std::make_shared<task::ApproxAgreementTask>(
                  2, rng.between(2, 4)))));
          break;
        case 3:
          window.push_back(service.submit(Query::solve(
              std::make_shared<SlowConsensus>(
                  std::chrono::microseconds(1100)))));
          break;
        case 4: {
          CheckRequest check;
          check.target = CheckRequest::Target::kSds;
          check.procs = rng.between(2, 3);
          check.rounds = 1;
          Query query = Query::check(check);
          if (rng.below(8) == 0) {
            query.options.timeout = std::chrono::milliseconds(
                rng.between(0, 5));
          }
          window.push_back(service.submit(std::move(query)));
          break;
        }
        default: {
          QueryOptions qopts;
          if (rng.below(4) == 0) {
            qopts.timeout = std::chrono::milliseconds(rng.between(0, 10));
          }
          window.push_back(service.submit(Query::solve(
              std::make_shared<task::ConsensusTask>(2, 2), qopts)));
          break;
        }
      }
      ++submitted;
      if (rng.below(10) == 0) window.back().cancel->store(true);
      if (window.size() >= 64) reap(32);
      if (rng.below(50) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

    // Mid-storm the exported view must agree with the service on
    // admissions (submit() bumps ServiceStats synchronously) and the trace
    // ring must be absorbing spans despite the injected faults.
    EXPECT_EQ(exposed_value(exposition_of(service.observer()),
                            "wfc_queries_submitted_total"),
              submitted);
    EXPECT_EQ(service.stats().submitted, submitted);
    ASSERT_NE(service.observer().trace(), nullptr);
    EXPECT_GT(service.observer().trace()->recorded(), 0u);

    // Exit the scope with queries still queued and running: destruction
    // mid-storm must cancel, drain, and join without deadlocking.
  }

  // Every ticket -- including those alive at destruction -- reaches exactly
  // one terminal status.
  for (QueryTicket& t : window) {
    const auto status = t.result.wait_for(std::chrono::seconds(0));
    ASSERT_EQ(status, std::future_status::ready)
        << "ticket left pending after service destruction";
    ++terminal[static_cast<int>(t.result.get().status)];
  }
  std::uint64_t reaped = 0;
  for (std::uint64_t c : terminal) reaped += c;
  EXPECT_EQ(reaped, submitted);

  // Under these odds a real storm exercised every fault path.
  const ChaosMonkey::Stats injected = chaos.stats();
  EXPECT_GT(injected.cancels + injected.stalls + injected.build_faults, 0u);
  EXPECT_GT(submitted, 0u);
}

TEST(ChaosSoak, StatsReconcileAfterAStormThatRunsToCompletion) {
  const std::uint64_t seed = test_seed(0x50a7ull);
  Rng rng(seed);

  ChaosMonkey::Options chaos_options;
  chaos_options.seed = seed;
  chaos_options.cancel_prob = 0.3;
  chaos_options.build_fault_prob = 0.2;
  ChaosMonkey chaos(chaos_options);

  QueryService::Options options;
  options.workers = 2;
  options.max_queue_depth = 4;
  options.admission_policy = AdmissionQueue::Policy::kDropOldest;
  options.obs.enabled = true;
  chaos.arm(options);
  QueryService service(options);

  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 200; ++i) {
    tickets.push_back(service.submit(Query::solve(
        rng.coin()
            ? std::static_pointer_cast<const task::Task>(
                  std::make_shared<task::ConsensusTask>(2, 2))
            : std::static_pointer_cast<const task::Task>(
                  std::make_shared<task::ApproxAgreementTask>(2, 3)))));
    if (rng.below(5) == 0) tickets.back().cancel->store(true);
  }
  for (QueryTicket& t : tickets) get_within(t);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 200u);
  EXPECT_TRUE(stats.reconciles()) << stats.to_string();

  // The exposition agrees with ServiceStats after the same storm: the
  // submitted view matches and the per-status terminal views sum back to
  // it, despite cancellations, drop-oldest evictions, and injected build
  // faults.
  const std::string text = exposition_of(service.observer());
  EXPECT_EQ(exposed_value(text, "wfc_queries_submitted_total"),
            stats.submitted);
  std::uint64_t obs_terminal = 0;
  for (int s = 0; s < kNumStatuses; ++s) {
    const std::optional<std::uint64_t> c = exposed_value(
        text, std::string(R"(wfc_queries_terminal_total{status=")") +
                  to_json_token(static_cast<Status>(s)) + R"("})");
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(*c, stats.by_status[s]);
    obs_terminal += *c;
  }
  EXPECT_EQ(obs_terminal, stats.submitted);
  // The service survived injected faults and still answers correctly.
  auto probe = service.submit(Query::solve(
      std::make_shared<task::ConsensusTask>(2, 2)));
  // A build fault may still hit the probe; retry a few times.
  QueryResult r = get_within(probe);
  for (int i = 0; i < 32 && r.status != Status::kOk; ++i) {
    auto again = service.submit(Query::solve(
        std::make_shared<task::ConsensusTask>(2, 2)));
    r = get_within(again);
  }
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.solve.status, Solvability::kUnsolvable);
}

}  // namespace
}  // namespace wfc::svc
