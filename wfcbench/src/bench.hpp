// wfcbench -- the end-to-end benchmark of the wfc serving stack.
//
// One process per workload: it starts the serving topology in-process on
// ephemeral loopback ports (shards, router and front server built from the
// library exactly as wfc_serve / wfc_router build them by default), drives
// it from ONE generator thread over four TCP connections in a closed loop,
// checks every answer against the corpus oracle, and prints the metrics.
// See README.md next to this directory for the workloads and the layer
// table.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace wfcbench {

// ---------------------------------------------------------------- corpus

/// One request of a corpus together with its oracle.
struct Line {
  std::string body;     // JSON members without braces and without "id"
  std::string verdict;  // expected "verdict" of the ok response
  int level = -1;       // expected minimal level when verdict is SOLVABLE
};

/// ~24 cheap solve lines for the memo-hit workloads.
std::vector<Line> hot_corpus();
/// ~130 distinct requests, each computed once per fresh server.
std::vector<Line> cold_corpus();

// ------------------------------------------------------------- histogram

/// Fixed-size, log-bucketed latency histogram over nanoseconds: 64 exact
/// buckets, then 32 linear sub-buckets per power of two (~3% resolution up
/// to ~70 minutes; longer values land in the last bucket).  Recording is one relaxed atomic add, so traced layers
/// may share one instance across threads; memory never grows with the
/// sample count.
class Histogram {
 public:
  Histogram();
  void record(std::uint64_t ns);
  void merge(const Histogram& other);
  [[nodiscard]] std::uint64_t count() const;
  /// Quantile in microseconds, linearly interpolated inside the bucket.
  [[nodiscard]] double quantile_us(double q) const;

 private:
  static constexpr std::size_t kBuckets = 64 + 36 * 32;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
};

// ---------------------------------------------------------------- tracing

/// Span tracks of the traced run, one per layer boundary the benchmark
/// wraps from outside the program.
enum class Track : std::uint8_t {
  kClient = 1,     // generator: send -> response read
  kRouterSpan,     // front LineBackend wrapper: Router::on_line -> done
  kRouterOnLine,   // the inline part of Router::on_line
  kBackendSpan,    // shard tap: parse -> done (what ServiceBackend does)
  kHandlerParse,   // svc::RequestHandler::parse
  kHandlerSubmit,  // svc::RequestHandler::submit_async
};
inline constexpr int kNumTracks = 7;

/// In-memory span recorder.  Aggregates (count, sum, histogram) cover every
/// span of the measured window; the first `capacity` spans are also kept
/// verbatim for the Chrome trace file, written after the run.
class Recorder {
 public:
  explicit Recorder(std::size_t capacity);
  /// Monotonic nanoseconds (steady_clock).
  static std::uint64_t now_ns();
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void add(Track track, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint64_t id);
  [[nodiscard]] double mean_us(Track t) const;
  [[nodiscard]] double p50_us(Track t) const;

  /// Per-request front spans, matched to client requests by id.  The front
  /// backend publishes (id, duration) before it hands the response to the
  /// server, so the slot is filled when the client reads the response.
  void publish_front(std::uint64_t id, std::uint64_t dur_ns);
  /// Front span duration for `id`, or -1 when none was published.
  [[nodiscard]] std::int64_t front_ns(std::uint64_t id) const;

  /// Chrome trace_event JSON, one track (tid) per layer.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Rec {
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    std::uint64_t id;
    Track track;
  };
  struct Agg {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_ns{0};
    Histogram hist;
  };
  static constexpr std::size_t kFrontSlots = 1u << 12;
  std::atomic<bool> enabled_{false};
  std::uint64_t epoch_ns_;
  std::vector<Rec> spans_;
  std::atomic<std::size_t> next_{0};
  Agg agg_[kNumTracks];
  std::unique_ptr<std::atomic<std::uint64_t>[]> front_id_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> front_dur_;
};

/// Parses the digits of a `"id":"<digits>"` member; false when the line has
/// no numeric string id (e.g. the router's "r<seq>" ids).
bool parse_numeric_id(const char* begin, const char* end, std::uint64_t* out);

// --------------------------------------------------------------- generator

/// Checked outcome counts of one generator (whole run, all phases).
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;         // ok status with the expected answer
  std::uint64_t non_ok = 0;     // status other than "ok"
  std::uint64_t wrong = 0;      // ok status, wrong verdict or level
  std::uint64_t lost = 0;       // never answered
  std::uint64_t duplicate = 0;  // answered twice
  std::uint64_t unmatched = 0;  // id never sent
  std::uint64_t nodes = 0;      // summed "nodes" of solve answers
  std::vector<std::string> errors;  // first few failures, by line
  [[nodiscard]] std::uint64_t failed() const {
    return non_ok + wrong + lost + duplicate + unmatched;
  }
  void add(const Tally& o) {
    sent += o.sent;
    ok += o.ok;
    non_ok += o.non_ok;
    wrong += o.wrong;
    lost += o.lost;
    duplicate += o.duplicate;
    unmatched += o.unmatched;
    nodes += o.nodes;
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  }
};

/// One measurement slice: a fixed share of the measured time.  Cold passes
/// add up into the slice they run in; wall_s counts only their serving time.
struct Slice {
  double wall_s = 0;
  double program_cpu_s = 0;  // process CPU minus the generator thread's
  double gen_cpu_s = 0;
  double host_steal = 0;  // /proc/stat ticks the hypervisor gave elsewhere
  double host_ticks = 0;  // all /proc/stat CPU ticks meanwhile
  std::uint64_t answered = 0;
  std::uint64_t ok = 0;
  Histogram latency;
  [[nodiscard]] double steal_ratio() const {
    return host_ticks > 0 ? host_steal / host_ticks : 0;
  }
};

/// Per-request self time of the client+net layer in the traced run.
struct NetSelf {
  std::uint64_t matched = 0;
  double sum_us = 0;
};

class Generator {
 public:
  Generator(const std::vector<Line>& corpus, std::uint64_t seed,
            Recorder* recorder);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void connect(std::uint16_t port, int connections);
  void disconnect();

  /// Sends every corpus line once (pipelined on the first connection) and
  /// waits for all answers: the setup pass that fills the result memo.
  void answer_each_once();

  /// Closed loop: every connection keeps `window` requests in flight,
  /// cycling through its own seeded shuffle of the corpus.  Runs `warmup_s`
  /// unmeasured, then `nslices` slices of `seconds / nslices` each, then
  /// drains.  `mark(true)` runs as the measured window opens and
  /// `mark(false)` as it closes.  Returns the slices.
  std::vector<Slice> run_hot(int window, double warmup_s, double seconds,
                             int nslices,
                             const std::function<void(bool)>& mark);

  /// One cold pass: a seeded shuffle of the corpus dealt over the
  /// connections, each line sent once, `window` in flight per connection.
  /// Adds the pass to `slice` (null: unmeasured).
  void run_pass(int window, std::uint64_t pass, Slice* slice);

  [[nodiscard]] const Tally& tally() const { return tally_; }
  [[nodiscard]] const NetSelf& net_self() const { return net_self_; }

 private:
  struct Conn;
  struct Slot;
  bool pump(int timeout_ms, bool measuring, Slice* slice);
  void queue_request(Conn& conn, std::uint32_t line);
  void flush(Conn& conn);
  void on_response(const char* begin, const char* end,
                   std::uint64_t recv_ns, bool measuring, Slice* slice);
  void fail(const std::string& message);
  void drain(double timeout_s);
  std::uint32_t next_line(Conn& conn);

  const std::vector<Line>& corpus_;
  std::uint64_t seed_;
  Recorder* recorder_;
  std::vector<std::unique_ptr<Conn>> conns_;
  int epoll_fd_ = -1;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;  // an id is (seq << kSlotBits) | slot
  std::uint64_t inflight_ = 0;
  std::uint64_t connects_ = 0;
  Tally tally_;
  NetSelf net_self_;
  std::vector<std::uint32_t> stamp_;  // slots queued since the last flush
};

}  // namespace wfcbench
