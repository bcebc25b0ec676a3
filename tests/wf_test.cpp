// Torture tests for the wfc::wf wait-free data plane: epoch reclamation
// (deferral until guards exit, drain-to-zero under churn), the lock-free
// hash map (exactness, same-key convergence, the announce/helping path
// and one fixed helper interleaving, tombstone reuse), the CLOCK cache
// (hit+miss reconciliation under multi-threaded churn, pin-skipping
// eviction, coldest-first victim choice, shed/clear, detached-handle
// overflow), and the sharded stats primitives (fold exactness once
// writers are quiescent).
//
// Thread counts deliberately oversubscribe small machines: the interesting
// interleavings (CAS races, helping, evict-vs-pin) come from preemption,
// not parallel speedup.  These tests also run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "wf/clock_cache.hpp"
#include "wf/counter.hpp"
#include "wf/epoch.hpp"
#include "wf/hashmap.hpp"
#include "wf/telemetry.hpp"

namespace wfc::wf {
namespace {

// ---------------------------------------------------------------------------
// Epoch

TEST(Epoch, RetireDefersWhileAGuardIsPinned) {
  static std::atomic<bool> freed{false};
  freed.store(false);

  std::atomic<bool> retired{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    Epoch::Guard guard(Epoch::global());
    retired.store(true);
    while (!release.load()) std::this_thread::yield();
    // Guard still open: the retiree must not have been freed yet.
    EXPECT_FALSE(freed.load());
  });

  while (!retired.load()) std::this_thread::yield();
  // Retire from this thread while the reader is pinned in an older epoch.
  Epoch::global().retire(&freed, [](void* p) {
    static_cast<std::atomic<bool>*>(p)->store(true);
  });
  for (int i = 0; i < 8; ++i) Epoch::global().collect();
  EXPECT_FALSE(freed.load()) << "freed under a live guard";

  release.store(true);
  reader.join();
  for (int i = 0; i < 8; ++i) Epoch::global().collect();
  EXPECT_TRUE(freed.load()) << "never freed after all guards exited";
}

TEST(Epoch, GuardsAreReentrant) {
  Epoch::Guard outer(Epoch::global());
  {
    Epoch::Guard inner(Epoch::global());
    Epoch::Guard innermost(Epoch::global());
  }
  // Still pinned here; a retire + collect must not free yet.
  static std::atomic<bool> freed{false};
  freed.store(false);
  Epoch::global().retire(&freed, [](void* p) {
    static_cast<std::atomic<bool>*>(p)->store(true);
  });
  for (int i = 0; i < 8; ++i) Epoch::global().collect();
  EXPECT_FALSE(freed.load());
}

TEST(Epoch, PendingDrainsToZeroAfterChurn) {
  constexpr int kThreads = 4;
  constexpr int kRetires = 2'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      for (int i = 0; i < kRetires; ++i) {
        Epoch::Guard guard(Epoch::global());
        Epoch::global().retire(new int(i));
      }
    });
  }
  for (auto& t : ts) t.join();
  // All writers quiescent: a few collects must advance past every stamped
  // epoch and free everything (exited threads' limbo lists included).
  for (int i = 0; i < 8; ++i) Epoch::global().collect();
  EXPECT_EQ(Epoch::global().pending(), 0u);
}

// ---------------------------------------------------------------------------
// HashMap

using IntMap = HashMap<std::uint64_t, std::uint64_t>;

TEST(WfHashMap, InsertFindExactSequential) {
  IntMap::Options opt;
  opt.min_slots = 256;
  IntMap map(std::move(opt));
  Epoch::Guard guard(Epoch::global());
  for (std::uint64_t k = 0; k < 100; ++k) {
    bool inserted = false;
    IntMap::Node* n = map.insert_or_get(
        k, [&] { return new IntMap::Node{k, k * 10}; }, &inserted);
    ASSERT_NE(n, nullptr);
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(map.size(), 100u);
  for (std::uint64_t k = 0; k < 100; ++k) {
    IntMap::Node* n = map.find(k);
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->value, k * 10);
  }
  EXPECT_EQ(map.find(12345), nullptr);
}

TEST(WfHashMap, EraseTombstonesAndSlotsAreReused) {
  IntMap::Options opt;
  opt.min_slots = 64;
  IntMap map(std::move(opt));
  Epoch::Guard guard(Epoch::global());
  // Fill every slot so re-insertion MUST go through tombstones.
  for (std::uint64_t k = 0; k < 64; ++k) {
    bool inserted = false;
    ASSERT_NE(map.insert_or_get(
                  k, [&] { return new IntMap::Node{k, k}; }, &inserted),
              nullptr);
  }
  EXPECT_EQ(map.size(), 64u);
  for (std::uint64_t k = 0; k < 64; k += 2) EXPECT_TRUE(map.erase(k));
  EXPECT_FALSE(map.erase(0));  // already gone
  EXPECT_EQ(map.size(), 32u);
  for (std::uint64_t k = 0; k < 64; k += 2) EXPECT_EQ(map.find(k), nullptr);
  // Odd keys must still be reachable across the tombstones.
  for (std::uint64_t k = 1; k < 64; k += 2) ASSERT_NE(map.find(k), nullptr);
  // Reuse: new keys land in tombstoned slots (the table has no free nulls).
  for (std::uint64_t k = 100; k < 132; ++k) {
    bool inserted = false;
    ASSERT_NE(map.insert_or_get(
                  k, [&] { return new IntMap::Node{k, k}; }, &inserted),
              nullptr)
        << "tombstoned slot not reused for key " << k;
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(map.size(), 64u);
}

TEST(WfHashMap, FullTableRefusesNewKeysButServesOldOnes) {
  IntMap::Options opt;
  opt.min_slots = 64;
  IntMap map(std::move(opt));
  Epoch::Guard guard(Epoch::global());
  for (std::uint64_t k = 0; k < 64; ++k) {
    bool inserted = false;
    ASSERT_NE(map.insert_or_get(
                  k, [&] { return new IntMap::Node{k, k}; }, &inserted),
              nullptr);
  }
  bool inserted = false;
  EXPECT_EQ(map.insert_or_get(
                999, [&] { return new IntMap::Node{999, 999}; }, &inserted),
            nullptr);
  EXPECT_FALSE(inserted);
  // Existing keys still resolve (and do not allocate).
  EXPECT_NE(map.insert_or_get(
                7, [&]() -> IntMap::Node* {
                  ADD_FAILURE() << "make() called for a present key";
                  return new IntMap::Node{7, 7};
                }, &inserted),
            nullptr);
}

TEST(WfHashMap, ConcurrentSameKeyConvergesToOneNode) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  for (unsigned announce_after : {8u, 0u}) {  // fast path and helping path
    IntMap::Options opt;
    opt.min_slots = 4096;
    opt.announce_after = announce_after;
    IntMap map(std::move(opt));
    std::atomic<int> inserted_count{0};
    std::atomic<std::uintptr_t> winner[kRounds] = {};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r) {
          Epoch::Guard guard(Epoch::global());
          const std::uint64_t key = static_cast<std::uint64_t>(r);
          bool ins = false;
          IntMap::Node* n = map.insert_or_get(
              key,
              [&] {
                return new IntMap::Node{
                    key, static_cast<std::uint64_t>(t) * 1'000'000 + key};
              },
              &ins);
          ASSERT_NE(n, nullptr);
          if (ins) inserted_count.fetch_add(1);
          // Every thread must agree on one surviving node per key.
          std::uintptr_t mine = reinterpret_cast<std::uintptr_t>(n);
          std::uintptr_t expect = 0;
          if (!winner[r].compare_exchange_strong(expect, mine)) {
            EXPECT_EQ(expect, mine) << "two surviving nodes for key " << r;
          }
        }
      });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(inserted_count.load(), kRounds)
        << "exactly one thread per key must observe inserted=true";
    EXPECT_EQ(map.size(), static_cast<std::size_t>(kRounds));
  }
}

TEST(WfHashMap, AnnouncePathCompletesEveryInsert) {
  // announce_after = 0: every insert publishes itself and is completed by
  // helpers (or by its own announcer) -- the BG-style helping discipline.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;
  const std::uint64_t announces_before = telemetry().announces.value();
  IntMap::Options opt;
  opt.min_slots = 8192;
  opt.announce_after = 0;
  IntMap map(std::move(opt));
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Epoch::Guard guard(Epoch::global());
        const std::uint64_t key =
            static_cast<std::uint64_t>(t) * kPerThread + i;
        bool ins = false;
        IntMap::Node* n = map.insert_or_get(
            key, [&] { return new IntMap::Node{key, key ^ 0xabcdu}; }, &ins);
        ASSERT_NE(n, nullptr);
        EXPECT_TRUE(ins);  // keys are disjoint across threads
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kThreads * kPerThread));
  Epoch::Guard guard(Epoch::global());
  for (std::uint64_t k = 0; k < kThreads * kPerThread; ++k) {
    IntMap::Node* n = map.find(k);
    ASSERT_NE(n, nullptr) << "announced insert lost for key " << k;
    EXPECT_EQ(n->value, k ^ 0xabcdu);
  }
  EXPECT_GE(telemetry().announces.value(),
            announces_before + kThreads * kPerThread);
}

// A fixed interleaving of three helpers on one announced insert.  Every key
// hashes to slot 0, and threads park inside the two places where the map
// calls user code: key comparison and value copies.
namespace park {

enum class Role { kNone, kAnnouncer, kHelper, kLateHelper };
thread_local Role role = Role::kNone;

struct Gate {
  std::atomic<bool> parked{false};
  std::atomic<bool> open{false};
  void park() {
    parked.store(true);
    while (!open.load()) std::this_thread::yield();
  }
};
Gate announcer_scan;  // the announcer, in its duplicate scan
Gate late_copy;       // the late helper, copying the prototype
Gate late_scan;       // the late helper, in its duplicate scan
std::atomic<bool> announcer_copied{false};
std::atomic<bool> helper_copied{false};
std::atomic<bool> late_copied{false};

void open_all() {
  for (Gate* g : {&announcer_scan, &late_copy, &late_scan}) g->open.store(true);
}

void reset() {  // for --gtest_repeat
  for (Gate* g : {&announcer_scan, &late_copy, &late_scan}) {
    g->parked.store(false);
    g->open.store(false);
  }
  for (auto* f : {&announcer_copied, &helper_copied, &late_copied}) {
    f->store(false);
  }
}

std::size_t live_nodes();  // the map's size(); defined once the map exists

struct Value {
  int v = 0;
  Value() = default;
  explicit Value(int x) : v(x) {}
  Value(const Value& other) : v(other.v) {
    if (role == Role::kAnnouncer) announcer_copied.store(true);
    if (role == Role::kHelper) helper_copied.store(true);
    if (role == Role::kLateHelper && !late_copied.exchange(true)) {
      late_copy.park();
    }
  }
  Value& operator=(const Value&) = default;
};

struct SlotZero {
  std::size_t operator()(std::uint64_t) const { return 0; }
};

struct ParkingEq {
  bool operator()(std::uint64_t a, std::uint64_t b) const {
    // Three live nodes after a thread's own copy went in: the comparison is
    // the first step of its duplicate scan (slot 0).
    if (live_nodes() == 3) {
      if (role == Role::kAnnouncer && announcer_copied.load() &&
          !announcer_scan.parked.load()) {
        announcer_scan.park();
      }
      if (role == Role::kLateHelper && late_copied.load() &&
          !late_scan.parked.load()) {
        late_scan.park();
      }
    }
    return a == b;
  }
};

using Map = HashMap<std::uint64_t, Value, SlotZero, ParkingEq>;
Map* map = nullptr;
std::size_t live_nodes() { return map->size(); }

// Waits until `gate` parks.  On timeout opens every gate so all threads
// finish, and returns false.
bool parked(const Gate& gate) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!gate.parked.load()) {
    if (std::chrono::steady_clock::now() > deadline) {
      open_all();
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

}  // namespace park

TEST(WfHashMap, HelpersNeverUnlinkTheCommittedCopy) {
  // Keys Y=1 and X=2 sit in slots 0 and 1.  The announcer of K=3 installs
  // its copy p in slot 2 and parks in its duplicate scan.  A late helper
  // reads the op as open and parks while copying.  A helper meets p and
  // commits it.  X is erased.  The late helper installs copy c in X's
  // tombstone -- earlier than p -- and parks in its scan.  The announcer
  // resumes and meets c.  p was committed, so p must stay and c must go.
  park::reset();
  park::Map::Options opt;
  opt.announce_after = 0;
  park::Map map(std::move(opt));
  park::map = &map;
  const auto insert = [&map](std::uint64_t key, int value, bool* inserted) {
    Epoch::Guard guard(Epoch::global());
    return map.insert_or_get(
        key, [&] { return new park::Map::Node{key, park::Value(value)}; },
        inserted);
  };
  bool ins = false;
  ASSERT_NE(insert(1, 10, &ins), nullptr);
  ASSERT_NE(insert(2, 20, &ins), nullptr);

  park::Map::Node* got = nullptr;
  bool inserted = false;
  std::thread announcer([&] {
    park::role = park::Role::kAnnouncer;
    got = insert(3, 30, &inserted);
  });
  // A helper polls one announce cell per operation; 2 * 64 operations on
  // the present key Y visit the announcer's cell at least once.
  const auto helper = [&](park::Role role, const std::atomic<bool>& copied) {
    return std::thread([&, role] {
      park::role = role;
      for (int i = 0; i < 2 * 64 && !copied.load(); ++i) {
        bool present = false;
        insert(1, 10, &present);
      }
    });
  };
  EXPECT_TRUE(park::parked(park::announcer_scan));
  std::thread late = helper(park::Role::kLateHelper, park::late_copied);
  EXPECT_TRUE(park::parked(park::late_copy));
  std::thread early = helper(park::Role::kHelper, park::helper_copied);
  early.join();
  EXPECT_TRUE(park::helper_copied.load());
  {
    Epoch::Guard guard(Epoch::global());
    EXPECT_TRUE(map.erase(2));
  }
  park::late_copy.open.store(true);
  EXPECT_TRUE(park::parked(park::late_scan));
  park::announcer_scan.open.store(true);
  announcer.join();
  park::late_scan.open.store(true);
  late.join();

  Epoch::Guard guard(Epoch::global());
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(inserted) << "a copy made for the op was reported as found";
  EXPECT_EQ(map.find(3), got) << "the committed copy was unlinked";
  EXPECT_EQ(got->value.v, 30);
  EXPECT_EQ(map.size(), 2u);
  park::map = nullptr;
}

// ---------------------------------------------------------------------------
// ClockCache

using IntCache = ClockCache<std::uint64_t, std::uint64_t>;

TEST(WfClockCache, HitsPlusMissesEqualsLookupsUnderChurn) {
  // The reconciliation invariant the service stats tests depend on: every
  // get / lookup / get_or_insert counts exactly one hit or one miss, even
  // while eviction, duplicate-unlink, and the detached overflow path all
  // race.  Checked after join, when folds are exact.
  constexpr int kThreads = 6;
  constexpr int kOps = 8'000;
  constexpr std::uint64_t kKeys = 256;
  IntCache cache(IntCache::Options{.max_entries = 64, .segments = 4});
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Rng rng(test_seed(0x5eedu) + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t key = rng.below(kKeys);
        switch (rng.below(3)) {
          case 0: {
            IntCache::Handle h = cache.get(key);
            if (h) {
              EXPECT_EQ(*h, key * 3);
            }
            break;
          }
          case 1: {
            std::uint64_t out = 0;
            if (cache.lookup(key, &out)) {
              EXPECT_EQ(out, key * 3);
            }
            break;
          }
          default: {
            IntCache::Handle h =
                cache.get_or_insert(key, [&] { return key * 3; });
            ASSERT_TRUE(h);
            EXPECT_EQ(*h, key * 3);
            break;
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_LE(cache.size(), 64u + kThreads);  // transient overshoot only
}

TEST(WfClockCache, EvictionNeverTouchesPinnedEntries) {
  IntCache cache(IntCache::Options{.max_entries = 4});
  IntCache::Handle pinned = cache.get_or_insert(1, [] { return 111u; });
  ASSERT_TRUE(pinned);
  // Flood far past the bound; entry 1 is pinned the whole time.
  for (std::uint64_t k = 2; k <= 40; ++k) {
    IntCache::Handle h = cache.get_or_insert(k, [&] { return k; });
    ASSERT_TRUE(h);
  }
  EXPECT_EQ(*pinned, 111u);
  {
    IntCache::Handle again = cache.get(1);
    ASSERT_TRUE(again) << "pinned entry was evicted";
    EXPECT_EQ(*again, 111u);
  }
  pinned.release();
  // Unpinned now: flooding evicts it like anything else.
  for (std::uint64_t k = 50; k <= 90; ++k) {
    (void)cache.get_or_insert(k, [&] { return k; });
  }
  EXPECT_FALSE(cache.get(1));
  EXPECT_LE(cache.size(), 5u);
}

TEST(WfClockCache, SequentialEvictionIsColdestFirst) {
  IntCache cache(IntCache::Options{.max_entries = 3});
  (void)cache.get_or_insert(1, [] { return 1u; });
  (void)cache.get_or_insert(2, [] { return 2u; });
  (void)cache.get_or_insert(3, [] { return 3u; });
  // Touch 1 then 2: key 3 is now the coldest.
  EXPECT_TRUE(cache.get(1));
  EXPECT_TRUE(cache.get(2));
  (void)cache.get_or_insert(4, [] { return 4u; });
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.get(3)) << "victim was not the coldest entry";
  EXPECT_TRUE(cache.get(1));
  EXPECT_TRUE(cache.get(2));
  EXPECT_TRUE(cache.get(4));
}

TEST(WfClockCache, HottestEntrySurvivesChurnInATinyCache) {
  IntCache cache(IntCache::Options{.max_entries = 1});
  for (std::uint64_t k = 0; k < 50; ++k) {
    IntCache::Handle h = cache.get_or_insert(k, [&] { return k; });
    ASSERT_TRUE(h);
    h.release();
    // keep_hottest: the entry just inserted (globally newest ticket) is
    // never the victim, so the most recent tower survives its own insert.
    EXPECT_TRUE(cache.get(k)) << "most recent entry evicted, key " << k;
  }
}

TEST(WfClockCache, WeightBoundShedAndClear) {
  IntCache cache(IntCache::Options{.max_weight = 100});
  for (std::uint64_t k = 0; k < 10; ++k) {
    IntCache::Handle h = cache.get_or_insert(k, [&] { return k; });
    cache.update_weight(h, 10);
    h.release();
    cache.maybe_evict();
  }
  EXPECT_LE(cache.weight(), 100u);
  const std::size_t before = cache.weight();
  const std::size_t released = cache.shed_release(35);
  EXPECT_GE(released, 35u);
  EXPECT_EQ(cache.weight(), before - released);

  IntCache::Handle keep = cache.get_or_insert(777, [] { return 7u; });
  const std::uint64_t evictions_before_clear = cache.evictions();
  cache.clear();
  EXPECT_EQ(cache.evictions(), evictions_before_clear)
      << "clear() must not count as evictions";
  EXPECT_EQ(cache.size(), 1u) << "pinned entry must survive clear()";
  EXPECT_EQ(*keep, 7u);
}

TEST(WfClockCache, SaturatedTableServesDetachedHandles) {
  // 64 slots (the floor), every one filled with a *pinned* entry: nothing
  // is evictable, so a new key must be served uncached rather than spin.
  IntCache cache(IntCache::Options{.max_entries = 8});
  std::vector<IntCache::Handle> pins;
  pins.reserve(64);
  for (std::uint64_t k = 0; k < 64; ++k) {
    bool inserted = false;
    IntCache::Handle h =
        cache.get_or_insert(k, [&] { return k; }, &inserted);
    ASSERT_TRUE(h);
    if (inserted) pins.push_back(std::move(h));
  }
  ASSERT_EQ(cache.size(), 64u);
  bool inserted = false;
  IntCache::Handle overflow =
      cache.get_or_insert(999, [] { return 999u; }, &inserted);
  ASSERT_TRUE(overflow);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*overflow, 999u);
  EXPECT_EQ(cache.size(), 64u) << "detached entry must not enter the table";
  overflow.release();  // owns its node; must not leak or double-free
  pins.clear();
}

TEST(WfClockCache, ConcurrentChurnReclaimsEvictedNodes) {
  {
    IntCache cache(IntCache::Options{.max_entries = 32, .segments = 4});
    constexpr int kThreads = 6;
    constexpr int kOps = 5'000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        Rng rng(test_seed(0xc0feu) + static_cast<std::uint64_t>(t));
        for (int i = 0; i < kOps; ++i) {
          const std::uint64_t key = rng.below(512);
          IntCache::Handle h =
              cache.get_or_insert(key, [&] { return key + 7; });
          ASSERT_TRUE(h);
          EXPECT_EQ(*h, key + 7);
        }
      });
    }
    for (auto& t : ts) t.join();
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_LE(cache.size(), 32u + kThreads);
  }
  // Cache destroyed, worker threads exited: everything retired during the
  // churn must now be reclaimable.
  for (int i = 0; i < 8; ++i) Epoch::global().collect();
  EXPECT_EQ(Epoch::global().pending(), 0u);
}

// ---------------------------------------------------------------------------
// Counters

TEST(WfCounter, FoldsExactlyOnceQuiescent) {
  Counter c;
  MaxCell m;
  StatsShard<3> shard;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIncs = 10'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kIncs; ++i) {
        c.inc();
        shard.inc(i % 3);
        m.bump(static_cast<std::uint64_t>(t) * kIncs + i);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), kThreads * kIncs);
  EXPECT_EQ(m.value(), kThreads * kIncs - 1);
  const auto folded = shard.fold();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(folded[i], shard.value(i));
    total += folded[i];
  }
  EXPECT_EQ(total, kThreads * kIncs);
}

TEST(WfTelemetry, ContentionCountersAreMonotone) {
  // The wf_* gauges exported through wfc::obs read these directly; they
  // must only ever grow.
  Telemetry& t = telemetry();
  const std::uint64_t before = t.cas_retries.value();
  t.cas_retries.inc(3);
  EXPECT_EQ(t.cas_retries.value(), before + 3);
}

}  // namespace
}  // namespace wfc::wf
