// wfc::cluster::Router -- the consistent-hash routing tier.
//
// The router is a net::LineBackend: plugged into the epoll front door
// (net/server.hpp) it accepts the same JSONL v2 lines a single wfc_serve
// does, but instead of executing queries locally it consistent-hashes each
// query's canonical task fingerprint onto a ring of backend shards and
// proxies the line over pooled net::Client connections.  Clients cannot
// tell the difference: same envelopes, same "id" echo, same out-of-order
// pipelined completion -- a cluster behind one address.
//
// Id splice.  Every forwarded request is re-stamped with a router-unique
// id ("r<seq>"); the client's own id (or its absence) is remembered in the
// pending table and spliced back into the response before it goes out.
// The splice is what makes EXACTLY-ONCE delivery enforceable at the
// router: duplicate upstream responses (hedges, retried shards) resolve
// the same pending entry, and only the first wins.
//
// Fingerprint routing.  The routing key hashes exactly the fields that
// identify the canonical task (everything except id/op/max_level/budget/
// timeout_ms -- the same identity svc::RequestHandler interns tasks by),
// so repeats of a task land on the shard whose SDS-chain cache and result
// memo are already warm.  bench_cluster quantifies the win over random
// routing.
//
// Resilience:
//   * hedged requests -- when a query carries timeout_ms and no response
//     has arrived by hedge_fraction of it, a copy is sent to the ring
//     successor under the SAME router id; first response wins, the loser
//     finds the pending entry gone and is dropped (counted, not forwarded);
//   * per-shard breaker -- a shard with zero live connections is Down and
//     leaves the ring's candidate set until a background reconnect (the
//     probe) succeeds; an upstream overloaded/resource_exhausted envelope
//     with retry_after_ms puts the shard into a soft backoff window that
//     routes AROUND it while it sheds, unless every candidate is backing
//     off (then the primary is used anyway: degraded beats down);
//   * re-dispatch -- when a connection dies, unresolved requests whose only
//     outstanding send was on that connection are re-routed to the current
//     ring target (bounded by max_attempts).  A shard that already
//     executed such a request before dying cost a duplicate EXECUTION, but
//     the pending latch still guarantees a single RESPONSE;
//   * drain -- a draining shard stops receiving new keys (its arcs fall to
//     the successors) while its inflight requests finish normally; remove
//     then detaches it entirely, re-dispatching whatever was left.
//
// Control plane (same gating as every control op: the front server answers
// them only once the connection's own inflight count is zero):
//   {"op":"cluster_stats"}              flat-JSON counters, per-shard state
//   {"op":"cluster_add","shard":S,"host":H,"port":P}
//   {"op":"cluster_remove","shard":S}   hard detach + re-dispatch
//   {"op":"cluster_drain","shard":S}    stop routing new keys to S
//   {"op":"info"}                       router identity/uptime/membership
//   {"op":"stats"}                      one-line human summary
//   {"op":"metrics"}                    flat-JSON reconciliation line
//   {"op":"trace"}                      rejected (no trace ring here)
// Everything else ("solve", "check", unknown ops, legacy bare task lines)
// is forwarded verbatim -- shards own the protocol's semantics; the router
// stays thin.  cluster_add/remove/drain mutate membership and are meant
// for a trusted network; RouterConfig::admin_ops turns them off.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/ring.hpp"
#include "net/backend.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "obs/obs.hpp"

namespace wfc::cluster {

struct ShardSpec {
  std::string id;
  net::Endpoint addr;
};

struct RouterConfig {
  /// Initial membership; cluster_add/remove change it at runtime.
  std::vector<ShardSpec> shards;
  /// Ring points per shard (ring.hpp).
  int vnodes = 64;
  /// Pooled connections per shard; each owns a reader thread.
  int conns_per_shard = 2;
  /// Request-line bound mirrored to the front server (LineBackend API).
  std::size_t max_line_bytes = 1u << 20;
  /// Router-wide unresolved-request cap; past it new queries answer
  /// overloaded + retry_after_ms instead of growing the pending table.
  std::size_t max_pending = 64 * 1024;
  /// Upstream connect bound (also the breaker probe bound).
  std::chrono::milliseconds connect_timeout{1'000};
  /// Upstream send bound: a shard that stops draining its socket fails the
  /// send instead of wedging a front io thread.
  std::chrono::milliseconds send_timeout{2'000};
  /// Reconnect backoff for down shards, doubling between these bounds.
  std::chrono::milliseconds reconnect_min{50};
  std::chrono::milliseconds reconnect_max{2'000};
  /// Hedge a query carrying timeout_ms once this fraction of it has passed
  /// with no response (never earlier than hedge_min).  <= 0 disables
  /// deadline-driven hedging.
  double hedge_fraction = 0.5;
  std::chrono::milliseconds hedge_min{20};
  /// Hedge delay for queries WITHOUT timeout_ms; 0 = such queries never
  /// hedge (they have no deadline at risk).
  std::chrono::milliseconds hedge_after{0};
  /// Absolute answer-by bound for queries without timeout_ms; with one the
  /// bound is timeout_ms + grace (the shard enforces the deadline itself;
  /// the router's bound only catches a shard that went silent).  Generous
  /// on purpose: legitimate deep-subdivision queries run for tens of
  /// seconds, and a dead shard is caught much earlier by the connection
  /// teardown re-dispatch, not by this clock.
  std::chrono::milliseconds pending_timeout{120'000};
  std::chrono::milliseconds pending_grace{2'000};
  /// Maintenance cadence (hedging, timeouts).
  std::chrono::milliseconds tick{10};
  /// Total sends per request (first dispatch + re-dispatches; hedges not
  /// counted) before it resolves overloaded.
  int max_attempts = 3;
  /// Base retry_after_ms hint stamped on router-side rejections.  The
  /// stamped value is jittered uniformly in [base/2, base*3/2] so a burst
  /// of synchronized rejections fans back in spread out instead of
  /// re-herding on the same tick.
  int retry_after_ms = 100;
  /// Active health probing: every probe_interval a dedicated thread opens
  /// a fresh connection to each shard and roundtrips {"op":"info"} under
  /// probe_timeout.  probe_suspect_after consecutive failures mark the
  /// shard Suspect (routed around while healthy alternatives exist);
  /// probe_down_after mark it Down -- evicted from the candidate set and
  /// its unresolved sends re-dispatched immediately, instead of waiting
  /// out pending_timeout.  One probe success restores Up.  This is what
  /// catches the failures a dead socket never reports: blackholed,
  /// wedged, or half-open shards whose connections look alive.
  /// 0 disables probing (the library default; wfc_router enables it).
  std::chrono::milliseconds probe_interval{0};
  std::chrono::milliseconds probe_timeout{500};
  int probe_suspect_after = 1;
  int probe_down_after = 3;
  /// Retry budgets: token buckets capping re-dispatches and hedges so a
  /// sick cluster degrades to fast-fail instead of a retry storm.  The
  /// global bucket gates every retry; the per-shard bucket additionally
  /// gates retries charged to one shard (the dead shard for re-dispatches,
  /// the target for hedges).  burst <= 0 disables that bucket.
  double retry_budget_per_sec = 32.0;
  int retry_budget_burst = 64;
  double shard_retry_budget_per_sec = 16.0;
  int shard_retry_budget_burst = 32;
  /// Deadline propagation: rewrite timeout_ms on hedges and re-dispatches
  /// to the REMAINING client budget (original minus time already burned
  /// at this hop) and fast-fail deadline_exceeded instead of forwarding
  /// once it reaches zero -- a shard never executes a query whose client
  /// already gave up.
  bool propagate_deadlines = true;
  /// Ignore fingerprints and spread keys uniformly (the bench's control
  /// arm for the cache-locality experiment).
  bool random_routing = false;
  /// Allow cluster_add/remove/drain over the wire.
  bool admin_ops = true;
  /// Cluster-wide chain-store posture.  The router holds no store itself;
  /// {"op":"store"} fans out to every shard and aggregates.  `store_dir`
  /// and `store_max_bytes` are operator documentation echoed in the
  /// aggregate (the shards own the actual directory); `store_readonly`
  /// makes the ROUTER refuse to forward publish at all, a cluster-level
  /// guard on top of each shard's own transport gating.
  std::string store_dir;
  bool store_readonly = false;
  std::uint64_t store_max_bytes = 0;
  /// Router-local observability: the front server's connection spans and
  /// wfc_net_* views.  Router counts live in Stats, served as flat JSON by
  /// {"op":"metrics"} and {"op":"cluster_stats"}.
  obs::ObsConfig obs{};
  /// Echoed by {"op":"info"} as server_id.
  std::string router_id = "router";
  /// Diagnostics sink (membership changes, shard state flips); null
  /// discards.
  std::function<void(const std::string&)> log;
};

/// A small mutex-guarded token bucket: `burst` capacity, `per_sec`
/// steady refill, one token per take.  burst <= 0 disables the bucket
/// (try_take always grants).  Exposed for tests; the router uses it for
/// the retry budgets.
class TokenBucket {
 public:
  TokenBucket() = default;
  void configure(double per_sec, int burst);
  bool try_take();

 private:
  std::mutex mu_;
  double per_sec_ = 0.0;
  double burst_ = 0.0;
  double tokens_ = 0.0;
  std::chrono::steady_clock::time_point last_{};
};

class Router : public net::LineBackend {
 public:
  explicit Router(RouterConfig config);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Spawns the upstream connection pools and the maintenance thread.
  /// Shards that are down just stay in reconnect backoff -- the router
  /// comes up regardless.
  void start();
  /// Stops maintenance and every upstream connection; unresolved pendings
  /// resolve overloaded so no Done callback is leaked.  Idempotent.
  void stop();

  // -- net::LineBackend -------------------------------------------------
  Outcome on_line(std::string_view line, int line_no, Done done) override;
  std::string control(std::string_view line, int line_no) override;
  [[nodiscard]] std::size_t max_line_bytes() const override {
    return config_.max_line_bytes;
  }
  [[nodiscard]] obs::Observer* observer() override { return &observer_; }

  // -- membership (the wire ops call these; tests drive them directly) --
  /// False (no change) when the id already exists.
  bool add_shard(const ShardSpec& spec);
  /// Hard detach: closes the pool, re-dispatches unresolved sends.  False
  /// when the id is unknown.
  bool remove_shard(const std::string& id);
  /// Stops routing NEW keys to the shard; inflight finishes.  False when
  /// the id is unknown.
  bool drain_shard(const std::string& id);

  /// Router-level counters (monotone unless noted).  Invariant, held at
  /// every instant: requests == responses + timeouts + failed + pending.
  struct Stats {
    std::uint64_t requests = 0;    // pendings registered
    std::uint64_t responses = 0;   // resolved by an upstream response
    std::uint64_t hedges = 0;      // hedge copies sent
    std::uint64_t hedge_wins = 0;  // resolved by a non-primary shard
    std::uint64_t late_drops = 0;  // upstream lines for already-resolved ids
    std::uint64_t redispatches = 0;
    std::uint64_t timeouts = 0;    // resolved deadline_exceeded by the router
    std::uint64_t failed = 0;      // resolved by a router-generated error
    std::uint64_t rejected = 0;    // refused before registration (capacity)
    std::uint64_t pending = 0;     // snapshot, not monotone
    std::uint64_t probe_failures = 0;       // failed active health probes
    std::uint64_t budget_exhausted = 0;     // retries refused by the budget
    std::uint64_t hop_deadline_expired = 0;  // fast-failed: deadline passed
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t shard_count() const;

  /// Live pool connections for `id` (0 = Down / unknown) -- test hook.
  [[nodiscard]] int shard_up_conns(const std::string& id) const;

  /// Probe-driven health of `id` (kDown for unknown ids) -- test hook.
  enum class ShardHealth { kUp, kSuspect, kDown };
  [[nodiscard]] ShardHealth shard_health(const std::string& id) const;

 private:
  struct UpstreamConn;
  struct Shard;
  struct Pending;

  // Submit path.
  Outcome submit(const svc::Fields& fields, std::string_view line,
                 int line_no, Done done);
  /// Sends `wire` for `p` to the ring target (or `exclude`d fallback).
  /// Records the attempt; false when no shard accepted the send.
  bool route_and_send(const std::shared_ptr<Pending>& p,
                      const std::string& wire, const std::string& exclude);
  bool send_on_shard(const std::shared_ptr<Shard>& shard,
                     const std::shared_ptr<Pending>& p,
                     const std::string& wire);
  [[nodiscard]] std::uint64_t make_key(const svc::Fields& fields);

  // Upstream path.
  void conn_reader(std::shared_ptr<Shard> shard, UpstreamConn* conn);
  void on_upstream_line(const std::shared_ptr<Shard>& shard,
                        UpstreamConn* conn, std::uint64_t generation,
                        std::string&& line);
  void on_conn_down(const std::shared_ptr<Shard>& shard, UpstreamConn* conn,
                    std::uint64_t generation);

  // Resolution.  Exactly-once: take_pending atomically removes the entry
  // from the table (the winner gets the Pending, everyone else null) and
  // advances the cause counter under the same lock.
  enum class Cause { kResponse, kTimeout, kFailed };
  std::shared_ptr<Pending> take_pending(std::uint64_t seq, Cause cause);
  void resolve_response(const std::shared_ptr<Pending>& p,
                        std::string&& response, const std::string& shard_id);
  void resolve_error(const std::shared_ptr<Pending>& p, const char* status,
                     const std::string& message, bool retryable);

  // Maintenance.
  void maintenance_thread();
  void hedge_one(const std::shared_ptr<Pending>& p);

  // Hardening (probes / budgets / deadlines).
  void probe_thread();
  void probe_shard(const std::shared_ptr<Shard>& shard);
  /// Pulls every pending whose only outstanding sends were on `shard` and
  /// re-dispatches them elsewhere (probe-driven eviction).
  void evict_shard_pendings(const std::shared_ptr<Shard>& shard);
  /// Budget-gated re-dispatch of orphaned pendings; `allow_fallback`
  /// permits falling back to `shard` itself when nothing else accepts.
  void redispatch_orphans(
      const std::vector<std::shared_ptr<Pending>>& orphans,
      const std::shared_ptr<Shard>& shard, bool allow_fallback);
  /// The wire line for `p` with timeout_ms rewritten to the remaining
  /// client budget; nullopt when that budget is already spent.
  [[nodiscard]] std::optional<std::string> wire_now(
      const std::shared_ptr<Pending>& p) const;
  /// Charges one retry against the global and `shard` buckets; on refusal
  /// counts budget_exhausted and returns false.
  bool charge_retry(const std::shared_ptr<Shard>& shard);
  [[nodiscard]] int jittered_retry_after() const;

  // Membership helpers.
  void start_shard(const std::shared_ptr<Shard>& shard);
  void stop_shard(const std::shared_ptr<Shard>& shard);
  [[nodiscard]] Ring::Accept accept_predicate(bool skip_backoff) const;

  // Control-plane renderings.
  std::string render_cluster_stats(const std::string& id);
  std::string render_info(const std::string& id);
  std::string render_metrics(const std::string& id);
  /// {"op":"store"}: per-shard fan-out over fresh connections (the probe
  /// pattern -- pooled sockets must stay dedicated to the data plane),
  /// summing numeric store gauges and reporting per-shard status.
  std::string render_store_op(const svc::Fields& fields,
                              const std::string& id, int line_no);
  std::string render_membership_op(const svc::Fields& fields,
                                   const std::string& op);

  RouterConfig config_;
  obs::Observer observer_;
  std::chrono::steady_clock::time_point started_;

  // Membership: guarded by membership_mu_ (lookups shared, changes
  // exclusive).  Never held while joining reader threads.
  mutable std::shared_mutex membership_mu_;
  std::unordered_map<std::string, std::shared_ptr<Shard>> shards_;
  Ring ring_;

  // Pending table: seq -> entry.  Rule: membership_mu_ / send locks are
  // never acquired while holding pending_mu_.
  mutable std::mutex pending_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Pending>> pending_;
  std::atomic<std::uint64_t> seq_{0};

  std::atomic<bool> started_flag_{false};
  std::atomic<bool> stopping_{false};
  std::thread maintenance_;
  std::thread prober_;
  std::condition_variable stop_cv_;
  std::mutex stop_mu_;

  // Retry budgets + rejection-hint jitter lane.
  TokenBucket retry_budget_;
  mutable std::atomic<std::uint64_t> retry_jitter_{0};

  // Counters (see Stats).  requests_ and the three cause counters move
  // only under pending_mu_, which is what makes the reconciliation
  // invariant exact.
  std::atomic<std::uint64_t> requests_{0}, responses_{0}, hedges_{0},
      hedge_wins_{0}, late_drops_{0}, redispatches_{0}, timeouts_{0},
      failed_{0}, rejected_{0};
  std::atomic<std::uint64_t> probe_failures_{0}, budget_exhausted_{0},
      hop_deadline_expired_{0};
};

}  // namespace wfc::cluster
