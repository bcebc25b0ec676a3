// wfc::svc::QueryService -- the library as a concurrent query engine.
//
// A fixed pool of workers (thread_pool.hpp) drains a BOUNDED admission
// queue (admission.hpp) and executes characterization queries against a
// shared, memoized SDS-chain cache (sds_cache.hpp):
//
//   * kSolve       -- the Prop 3.1 decision procedure (task::solve) for any
//                     Task, chains served from the cache;
//   * kConvergence -- §5 simplex agreement solved by convergence-map
//                     compilation (conv::solve_simplex_agreement_by_...);
//   * kEmulate     -- the §4 Figure 2 emulation of the k-shot full-
//                     information protocol, reporting rounds/steps;
//   * kCheck      -- the wfc::chk model checker.
//
// Resilience layer (PR 3): every query finishes with exactly one structured
// Status (status.hpp).
//
//   * Admission control: at most max_queue_depth queries wait; overflow is
//     answered kOverloaded with a retry_after_ms hint (kRejectNew) or makes
//     room by cancelling the oldest queued query (kDropOldest).  Deadlines
//     are re-checked AT DEQUEUE, so an already-expired query never occupies
//     a worker.
//   * Watchdog (watchdog.hpp): a scanner thread force-flips cancel tokens
//     past Options::hard_timeout and reports workers whose progress
//     heartbeat (bumped per search node / chain build) stops moving.
//   * Fault containment: std::bad_alloc inside a query is contained to that
//     query (kResourceExhausted) and answered with cache shedding;
//     std::invalid_argument maps to kInvalidArgument; anything else to
//     kInternal.  Under queue pressure, Options::degrade_budget_under_load
//     scales down the effective node budget instead of queueing doomed
//     full-size searches.
//
// Every query gets a cooperative cancel token and an optional deadline
// measured FROM SUBMISSION (so queue time counts against it).  Per-query
// latency/nodes, queue wait, and cache/service/watchdog counters are
// aggregated into ServiceStats (stats.hpp); the counters reconcile:
// submitted == sum of terminal statuses once all futures are ready.
//
// Two caching layers serve repeated work:
//   * the SdsCache shares subdivision towers across queries over the same
//     input complex (keyed by canonical fingerprint);
//   * a result memo replays definitive kSolve verdicts for the SAME task
//     object (keyed by address, pinned by shared_ptr) at the same
//     max_level/node budget -- resubmitting a task instance is O(1).
//
// Typed request API (PR 4): a Query is a std::variant of per-kind request
// structs (SolveRequest / ConvergenceRequest / EmulateRequest /
// CheckRequest) plus shared QueryOptions -- submit(Query) is the single
// entry point for every family, with Query::solve(...) etc. as the
// idiomatic constructors.  (The deprecated per-kind submit_solve() wrapper
// was removed in PR 5.)
//
// Completion callbacks (PR 5): submit(Query, CompletionFn) invokes the
// callback with the terminal QueryResult exactly once, from whichever
// thread reaches the terminal status first -- a service worker, the
// watchdog path, or INLINE on the submitting thread (memo hits, admission
// sheds, shutdown).  This is what lets a networked transport complete
// pipelined responses out of order without parking a thread per request;
// the ticket's future remains valid alongside the callback.
//
// Observability (PR 4): when Options::obs.enabled is set, the service owns
// an obs::Observer and every query carries an obs::TraceContext.  Spans
// cover queue wait, chain builds, the Prop 3.1 search (with node-count
// checkpoint samples riding the watchdog heartbeat seam), emulation runs,
// and check sweeps.  Counts ServiceStats keeps are exported as registry
// views of it (obs/metrics.hpp), so the exposition reconciles by
// construction; only events nothing else counts get owned counters and
// fixed-bucket histograms.  Disabled (the default), the layer costs one
// branch per site.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "model/model.hpp"
#include "obs/obs.hpp"
#include "service/admission.hpp"
#include "service/sds_cache.hpp"
#include "service/stats.hpp"
#include "service/status.hpp"
#include "service/thread_pool.hpp"
#include "service/watchdog.hpp"
#include "tasks/canonical.hpp"
#include "tasks/solvability.hpp"
#include "wf/clock_cache.hpp"
#include "wf/counter.hpp"

namespace wfc::svc {

struct QueryOptions {
  int max_level = 2;
  std::uint64_t node_budget = task::SolveOptions{}.node_budget;
  /// Per-query deadline, measured from submission.
  std::optional<std::chrono::milliseconds> timeout;
};

/// Decide solvability of `task` (Prop 3.1 search).  `model` restricts the
/// admissible IIS runs (wfc::model); null or wait_free leaves the search
/// bit-for-bit identical to the model-less query.
struct SolveRequest {
  std::shared_ptr<const task::Task> task;
  std::shared_ptr<const model::Model> model = nullptr;
};

/// Compile a §5 convergence map for a simplex-agreement instance.  With a
/// non-wait-free `model` the convergence compiler does not apply (its maps
/// assume the full run set); the service falls back to the restricted
/// Prop 3.1 solve for the same agreement task.
struct ConvergenceRequest {
  std::shared_ptr<const task::SimplexAgreementTask> agreement;
  std::shared_ptr<const model::Model> model = nullptr;
};

/// Run the §4 Figure 2 emulation of the k-shot full-information protocol.
struct EmulateRequest {
  int procs = 2;
  int shots = 1;
};

/// Model-check a component (dispatched to wfc::chk).
struct CheckRequest {
  enum class Target {
    kSds,             // view vectors land in SDS^b (Lemmas 3.2/3.3)
    kEmulation,       // §4 emulation histories are legal atomic snapshots
    kLinearizability  // register AtomicSnapshot linearizes under all
                      // step interleavings of a fixed scenario
  };
  Target target = Target::kSds;
  int procs = 2;
  int rounds = 1;   // IIS rounds (kSds) / explored prefix (kEmulation)
  int crashes = 0;  // crash-injection budget
  int shots = 1;    // kEmulation: full-information snapshots per client
  bool symmetry = false;  // kSds: symmetry-reduced exploration
  /// kSds: explore only the runs this model admits (null = all runs).
  std::shared_ptr<const model::Model> model = nullptr;
};

/// One request of any family.  The variant index IS the query kind (see
/// Query::Kind below); adding a family means adding a struct here and a
/// case in QueryService::execute.
using Request = std::variant<SolveRequest, ConvergenceRequest, EmulateRequest,
                             CheckRequest>;

struct Query {
  /// Kind values deliberately equal the request's variant index.
  enum class Kind { kSolve = 0, kConvergence = 1, kEmulate = 2, kCheck = 3 };

  Request request;  // defaults to an (invalid, task-less) SolveRequest
  QueryOptions options;

  Query() = default;
  explicit Query(Request req, QueryOptions opts = {})
      : request(std::move(req)), options(opts) {}

  [[nodiscard]] Kind kind() const { return static_cast<Kind>(request.index()); }

  /// Typed accessor: null unless the query holds a request of family R.
  template <typename R>
  [[nodiscard]] const R* as() const {
    return std::get_if<R>(&request);
  }

  // Idiomatic constructors, one per family.
  static Query solve(std::shared_ptr<const task::Task> task,
                     QueryOptions opts = {}) {
    return Query(SolveRequest{std::move(task)}, opts);
  }
  static Query convergence(std::shared_ptr<const task::SimplexAgreementTask>
                               agreement,
                           QueryOptions opts = {}) {
    return Query(ConvergenceRequest{std::move(agreement)}, opts);
  }
  static Query emulate(int procs, int shots = 1, QueryOptions opts = {}) {
    return Query(EmulateRequest{procs, shots}, opts);
  }
  static Query check(CheckRequest request, QueryOptions opts = {}) {
    return Query(Request(std::in_place_type<CheckRequest>, request), opts);
  }
};

// Kind <-> variant-index correspondence Query::kind() relies on.
static_assert(std::is_same_v<std::variant_alternative_t<0, Request>,
                             SolveRequest> &&
              std::is_same_v<std::variant_alternative_t<1, Request>,
                             ConvergenceRequest> &&
              std::is_same_v<std::variant_alternative_t<2, Request>,
                             EmulateRequest> &&
              std::is_same_v<std::variant_alternative_t<3, Request>,
                             CheckRequest>,
              "Query::Kind must mirror the Request variant order");

struct QueryResult {
  /// Terminal fate of the query; every other field is meaningful only for
  /// kOk (except `error`, set for kInvalidArgument / kInternal /
  /// kResourceExhausted, and the latency fields, always set).
  Status status = Status::kOk;
  /// Client backoff hint, milliseconds; nonzero only when is_retryable(
  /// status) -- the service estimates when capacity will free up.
  std::uint32_t retry_after_ms = 0;
  /// kSolve / kConvergence: the verdict (status, level, decision, nodes).
  task::SolveResult solve;
  /// True when the query's SDS chains were all served from cache without
  /// any new subdivision work.
  bool cache_hit = false;
  /// True when the whole verdict came from the result memo (no search ran;
  /// nodes are the original run's).  Implies cache_hit.
  bool memoized = false;
  /// True when the search ran with a load-degraded node budget.
  bool degraded = false;
  /// Wall latency from submission to completion, microseconds.
  std::uint64_t micros = 0;
  /// Time spent waiting in the admission queue, microseconds.
  std::uint64_t queue_micros = 0;
  // kEmulate outputs.
  int emu_rounds = 0;
  std::vector<int> emu_steps;
  // kCheck outputs.
  bool is_check = false;
  bool check_ok = false;
  std::uint64_t check_schedules = 0;  // executions / interleavings explored
  std::uint64_t check_histories = 0;  // histories verified
  std::uint64_t check_max_depth = 0;  // deepest linearization search
  std::string check_violation;        // empty when check_ok
  /// Human-readable diagnostic accompanying a non-kOk status.
  std::string error;
};

/// Handle returned by submit(): the future plus this query's cancel token
/// (flip it from any thread; the query finishes with kCancelled).
struct QueryTicket {
  std::future<QueryResult> result;
  std::shared_ptr<std::atomic<bool>> cancel;
};

/// Terminal-status continuation for submit(Query, CompletionFn).  Invoked
/// exactly once with the same QueryResult the ticket's future yields; may
/// run on a service worker thread or inline on the submitting thread (memo
/// hits, admission sheds, shutdown), so it must not block or throw.
using CompletionFn = std::function<void(const QueryResult&)>;

class QueryService {
 public:
  struct Options {
    int workers = 0;  // 0 = std::thread::hardware_concurrency (min 1)
    SdsCache::Options cache;
    /// Definitive kSolve verdicts are memoized by task OBJECT identity
    /// (the shared_ptr pins the object, so the address cannot be reused):
    /// resubmitting the same task instance with the same max_level and
    /// node budget is answered without running the search.  0 disables.
    std::size_t result_memo_entries = 256;

    // --- Admission control -------------------------------------------------
    /// Maximum queries waiting for a worker; excess is shed per `policy`.
    std::size_t max_queue_depth = 1024;
    AdmissionQueue::Policy admission_policy =
        AdmissionQueue::Policy::kRejectNew;
    /// Concurrent executions allowed (0 = one per worker).  Lowering it
    /// below `workers` reserves workers for queue turnover (fast-failing
    /// expired queries) under load.
    int max_inflight = 0;
    /// retry_after_ms hint used before any latency history exists.
    std::uint32_t retry_after_ms_base = 50;
    /// Under queue pressure (>= 1/4 full) run searches at half the node
    /// budget, (>= 1/2 full) at a quarter: overloaded service answers more
    /// queries kUnknown instead of queueing doomed full-size searches.
    bool degrade_budget_under_load = false;

    // --- Watchdog ----------------------------------------------------------
    /// Hard wall-time cap on a query's EXECUTION; the watchdog force-flips
    /// the cancel token past it (terminal status kDeadlineExceeded).
    std::optional<std::chrono::milliseconds> hard_timeout;
    std::chrono::milliseconds watchdog_scan_period{25};
    /// Scans without a progress-heartbeat bump before a stuck-worker
    /// report; 0 disables stall detection.
    int watchdog_stall_scans = 0;

    /// Test seam (chaos harness): runs on the worker immediately before a
    /// query executes; may sleep (stalled worker) or flip `cancel`.
    std::function<void(std::atomic<bool>& cancel)> execute_hook;

    // --- Observability -----------------------------------------------------
    /// Tracing + metrics (obs/obs.hpp).  Disabled by default: the service
    /// behaves exactly as before the obs layer existed.
    obs::ObsConfig obs;
  };

  QueryService();  // default Options
  explicit QueryService(Options options);

  /// Cancels and drains everything in flight (every outstanding future is
  /// fulfilled -- queued queries with kCancelled, running ones as soon as
  /// they poll their token) and joins the pool.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// The single entry point for every query family; build the Query with
  /// Query::solve / ::convergence / ::emulate / ::check.  Never throws for
  /// load reasons: an inadmissible query yields a ticket already completed
  /// with kOverloaded (or kCancelled during shutdown).  When `on_complete`
  /// is set it receives the terminal QueryResult exactly once -- possibly
  /// inline on this thread (memo hits, sheds, shutdown), possibly later on
  /// a worker -- in addition to (and always before) the ticket's future
  /// becoming ready.
  QueryTicket submit(Query query, CompletionFn on_complete = nullptr);

  /// Flips the cancel token of every query still in flight or queued.
  void cancel_all();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] int workers() const noexcept { return pool_.size(); }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  [[nodiscard]] SdsCache& cache() noexcept { return cache_; }
  /// The tracing/metrics facade (obs/obs.hpp); inert unless Options::obs
  /// enabled it.
  [[nodiscard]] obs::Observer& observer() noexcept { return observer_; }
  [[nodiscard]] const obs::Observer& observer() const noexcept {
    return observer_;
  }

 private:
  /// Everything a query carries from submission to its terminal status.
  struct Job {
    Query query;
    std::shared_ptr<std::atomic<bool>> cancel;
    std::promise<QueryResult> promise;
    std::chrono::steady_clock::time_point submitted;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// Per-query trace handle (disabled context when obs is off).
    obs::TraceContext trace;
    /// Terminal-status continuation (may be empty); see CompletionFn.
    CompletionFn on_complete;
    /// Watchdog heartbeat: bumped at search/subdivision checkpoints.
    std::atomic<std::uint64_t> progress{0};
    /// Exactly-once terminal-status latch.
    std::atomic<bool> finished{false};
  };

  /// Owned metric series the service resolves once at construction (all
  /// null when obs is disabled, so every instrumentation site is a pointer
  /// check).  Counts ServiceStats already keeps are registry views instead.
  struct MetricSet {
    obs::Counter* by_kind[4] = {};          // indexed by Query::Kind
    obs::Counter* emu_rounds = nullptr;
    obs::Counter* model_queries = nullptr;       // non-wait_free model set
    obs::Counter* model_runs_admitted = nullptr; // runs kept by restriction
    obs::Counter* model_runs_rejected = nullptr; // runs pruned by restriction
    obs::Histogram* queue_wait_us = nullptr;
    obs::Histogram* exec_us = nullptr;      // execution (dequeue -> done)
    obs::Histogram* e2e_us = nullptr;       // submission -> terminal status
    obs::Histogram* chain_for_us = nullptr; // chain_for incl. build-lock wait
    obs::Histogram* search_nodes = nullptr;
  };

  /// Result-memo key: the task instance plus every option that can change
  /// the verdict -- including the model tag (wfc::model), so the same task
  /// under distinct models never shares a memo entry.  Tag 0 is wait_free
  /// (and a null model), keeping pre-model keys identical.  Deadlines/
  /// cancellation only yield kCancelled, which is never stored, so they are
  /// deliberately not part of the key.
  struct MemoKey {
    const task::Task* task;
    int max_level;
    std::uint64_t node_budget;
    std::uint64_t model_tag;
    bool operator==(const MemoKey& o) const {
      return task == o.task && max_level == o.max_level &&
             node_budget == o.node_budget && model_tag == o.model_tag;
    }
  };
  struct MemoKeyHash {
    std::size_t operator()(const MemoKey& k) const {
      std::size_t h = std::hash<const task::Task*>{}(k.task);
      h ^= std::hash<int>{}(k.max_level) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
      h ^= std::hash<std::uint64_t>{}(k.node_budget) + 0x9e3779b97f4a7c15ull +
           (h << 6) + (h >> 2);
      h ^= std::hash<std::uint64_t>{}(k.model_tag) + 0x9e3779b97f4a7c15ull +
           (h << 6) + (h >> 2);
      return h;
    }
  };
  struct MemoVal {
    std::shared_ptr<const task::Task> pin;  // keeps the key address unique
    task::SolveResult result;
  };
  /// Lock-free memo: definitive verdicts are copy-out lookups with CLOCK
  /// recency, bounded by result_memo_entries.
  using ResultMemo = wf::ClockCache<MemoKey, MemoVal, MemoKeyHash>;

  /// Hot ServiceStats counters, one wf::StatsShard slot each; workers bump
  /// per-thread shards and stats() folds them, so the completion path never
  /// serializes on a stats mutex.
  enum StatSlot : std::size_t {
    kStatSubmitted,
    kStatQueries,
    kStatStatusBase,  // + kNumStatuses slots, indexed by Status
    kStatSolvable = kStatStatusBase + kNumStatuses,
    kStatUnsolvable,
    kStatUnknown,
    kStatResultHits,
    kStatNodesExplored,
    kStatDegraded,
    kStatTotalMicros,
    kStatQueueTotalMicros,
    kStatCheckRuns,
    kStatCheckSchedules,
    kStatCheckHistories,
    kStatCheckViolations,
    kStatCount
  };

  void worker_loop();
  /// Dequeue-side handling: deadline re-check, chaos hook, inflight gate,
  /// watchdog bracket, execution, terminal status.
  void run_job(const std::shared_ptr<Job>& job);
  /// Completes `job` without running it (shed, shutdown, expired).
  void finish_without_running(const std::shared_ptr<Job>& job, Status status);
  /// Exactly-once: records and fulfils the promise.
  void finish(const std::shared_ptr<Job>& job, QueryResult result);
  QueryResult execute(const Query& query,
                      const std::shared_ptr<std::atomic<bool>>& cancel,
                      std::chrono::steady_clock::time_point submitted,
                      const std::optional<std::chrono::steady_clock::
                                              time_point>& deadline,
                      std::uint64_t effective_budget,
                      std::atomic<std::uint64_t>* progress,
                      const obs::TraceContext& trace);
  /// Registers the stats views and resolves the owned MetricSet series.
  void init_observability();
  void record(const QueryResult& result);
  /// Effective node budget after load degradation; sets *degraded.
  std::uint64_t degraded_budget(std::uint64_t requested, bool* degraded);
  /// Client backoff estimate from queue depth and recent latency.
  std::uint32_t retry_hint();
  void acquire_inflight_slot();
  void release_inflight_slot();
  /// Restrictor for a non-wait-free model: serves each level's admissible
  /// subcomplex from the derived-tower cache (key = mixed fingerprint), so
  /// repeated model queries over the same input prune once.  Null models
  /// and wait_free return an empty function (search untouched).
  task::LevelRestrictor model_restrictor(
      std::shared_ptr<const model::Model> model, bool* any_build);
  /// The memoized definitive result for this query, if any.
  [[nodiscard]] std::optional<task::SolveResult> memo_lookup(
      const Query& query);
  void memo_store(const Query& query, const task::SolveResult& result);

  Options options_;
  obs::Observer observer_;  // before pool_/watchdog_: recorded into at drain
  MetricSet metrics_;
  SdsCache cache_;
  Watchdog watchdog_;
  AdmissionQueue queue_;
  std::atomic<bool> accepting_{true};

  wf::StatsShard<kStatCount> stats_;
  wf::MaxCell max_micros_;
  wf::MaxCell queue_max_micros_;
  wf::MaxCell check_max_depth_;
  std::atomic<std::uint64_t> ewma_exec_micros_{0};

  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  int inflight_ = 0;
  int max_inflight_ = 1;

  std::mutex tokens_mu_;
  std::vector<std::weak_ptr<std::atomic<bool>>> live_tokens_;

  std::size_t memo_capacity_;
  ResultMemo memo_;

  ThreadPool pool_;  // last member: workers die before state they touch
};

}  // namespace wfc::svc
