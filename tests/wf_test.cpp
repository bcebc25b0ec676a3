// Torture tests for the wfc::wf wait-free data plane: epoch reclamation
// (deferral until guards exit, drain-to-zero under churn), the hash map
// (exactness, tombstone reuse, same-key convergence, racing inserts across
// an erase, and every step interleaving of small insert/erase/find
// scenarios under chk::for_each_step_interleaving), the CLOCK cache
// (hit+miss reconciliation under multi-threaded churn, pin-skipping
// eviction, coldest-first victim choice, shed/clear, detached-handle
// overflow), and the sharded stats primitives (fold exactness once
// writers are quiescent).
//
// Thread counts deliberately oversubscribe small machines: the interesting
// interleavings (CAS races, evict-vs-pin) come from preemption, not
// parallel speedup.  These tests also run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/step_driver.hpp"
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
  IntMap::Options opt;
  opt.min_slots = 4096;
  IntMap map(opt);
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

// Every key hashes to slot 0, so all keys of a test share one cluster.
struct SlotZero {
  std::size_t operator()(std::uint64_t) const { return 0; }
};
using ZeroMap = HashMap<std::uint64_t, std::uint64_t, SlotZero>;
constexpr std::uint64_t kY = 1, kX = 2, kK = 3;

TEST(WfHashMap, RacingInsertsAcrossAnEraseKeepOneCopy) {
  // Y and X sit in slots 0 and 1.  B's insert of K misses and parks while
  // building its node.  A inserts K (slot 2), then erases X, so slot 1 is
  // a tombstone in front of A's copy.  B resumes: its store must not put a
  // second K into that tombstone.
  ZeroMap map;
  const auto insert = [&map](std::uint64_t key, std::uint64_t value,
                             bool* inserted) {
    return map.insert_or_get(
        key, [&] { return new ZeroMap::Node{key, value}; }, inserted);
  };
  Epoch::Guard guard(Epoch::global());
  bool ins = false;
  ASSERT_NE(insert(kY, 10, &ins), nullptr);
  ASSERT_NE(insert(kX, 20, &ins), nullptr);

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  ZeroMap::Node* b_node = nullptr;
  bool b_inserted = false;
  std::thread b([&] {
    Epoch::Guard b_guard(Epoch::global());
    b_node = map.insert_or_get(
        kK,
        [&] {
          parked.store(true);
          while (!release.load()) std::this_thread::yield();
          return new ZeroMap::Node{kK, 31};
        },
        &b_inserted);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!parked.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(parked.load()) << "B never reached make()";

  bool a_inserted = false;
  ZeroMap::Node* a_node = insert(kK, 30, &a_inserted);
  EXPECT_TRUE(map.erase(kX));
  release.store(true);
  b.join();

  ASSERT_NE(a_node, nullptr);
  EXPECT_EQ(int{a_inserted} + int{b_inserted}, 1)
      << "both racing inserts reported inserted=true";
  EXPECT_EQ(a_node, b_node) << "the two callers got different nodes";
  EXPECT_EQ(map.find(kK), a_node);
  EXPECT_EQ(map.size(), 2u);
}

// ---------------------------------------------------------------------------
// HashMap under every step interleaving.  chk::for_each_step_interleaving
// runs two operations once per interleaving of the map's slot accesses
// (each one a detail::step_point()), on a 64-slot ZeroMap rebuilt per
// schedule.  Oracle per schedule: the results and the final table equal a
// std::map replay of one of the two sequential orders, size() equals the
// live count, and find() reaches every live key.

struct MapOp {
  enum Kind { kInsert, kErase, kFind } kind;
  std::uint64_t key;
};

// An insert reports (inserted, value of the returned node); an erase
// (erased, 0); a find (found, value).  Inserted nodes carry key + 100, so
// a re-inserted key is told apart from its initial node (value = key).
struct MapResult {
  bool flag = false;
  std::uint64_t value = 0;
  bool operator==(const MapResult&) const = default;
};

MapResult apply(std::map<std::uint64_t, std::uint64_t>& table, MapOp op) {
  const auto it = table.find(op.key);
  switch (op.kind) {
    case MapOp::kInsert:
      if (it != table.end()) return {false, it->second};
      table.emplace(op.key, op.key + 100);
      return {true, op.key + 100};
    case MapOp::kErase:
      if (it == table.end()) return {};
      table.erase(it);
      return {true, 0};
    case MapOp::kFind:
      if (it == table.end()) return {};
      return {true, it->second};
  }
  return {};
}

MapResult apply(ZeroMap& map, MapOp op) {
  Epoch::Guard guard(Epoch::global());
  switch (op.kind) {
    case MapOp::kInsert: {
      bool inserted = false;
      ZeroMap::Node* n = map.insert_or_get(
          op.key, [&] { return new ZeroMap::Node{op.key, op.key + 100}; },
          &inserted);
      return {inserted, n == nullptr ? 0 : n->value};
    }
    case MapOp::kErase:
      return {map.erase(op.key), 0};
    case MapOp::kFind: {
      ZeroMap::Node* n = map.find(op.key);
      if (n == nullptr) return {};
      return {true, n->value};
    }
  }
  return {};
}

// The first oracle rule the finished schedule breaks, or "".
std::string check_schedule(const std::vector<std::uint64_t>& initial,
                           const MapOp (&ops)[2], const MapResult (&got)[2],
                           ZeroMap& map) {
  Epoch::Guard guard(Epoch::global());
  using Entries = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  Entries live;
  for (std::size_t i = 0; i < map.slots(); ++i) {
    if (ZeroMap::Node* n = map.peek(i)) live.emplace_back(n->key, n->value);
  }
  std::sort(live.begin(), live.end());
  if (map.size() != live.size()) return "size() differs from the live count";
  bool replayed = false;
  for (const auto& order : {std::array{0, 1}, std::array{1, 0}}) {
    std::map<std::uint64_t, std::uint64_t> table;
    for (std::uint64_t k : initial) table.emplace(k, k);
    MapResult want[2];
    for (int p : order) want[p] = apply(table, ops[p]);
    if (want[0] == got[0] && want[1] == got[1] &&
        Entries(table.begin(), table.end()) == live) {
      replayed = true;
    }
  }
  if (!replayed) return "no sequential order gives these results and table";
  for (const auto& [key, value] : live) {
    ZeroMap::Node* n = map.find(key);
    if (n == nullptr || n->value != value) {
      return "find() misses live key " + std::to_string(key);
    }
  }
  return "";
}

// Runs `ops` from `initial` (inserted in order, so key i sits in slot i)
// under every interleaving; returns the schedule count and fails the test
// on the first schedule that breaks the oracle.
std::uint64_t explore(const std::vector<std::uint64_t>& initial,
                      const MapOp (&ops)[2]) {
  std::unique_ptr<ZeroMap> map;
  MapResult got[2];
  std::uint64_t failed = 0;
  std::string first_failure;
  const auto started = std::chrono::steady_clock::now();
  const chk::InterleaveStats stats = chk::for_each_step_interleaving(
      2,
      [&](chk::StepDriver& driver) {
        map = std::make_unique<ZeroMap>();
        Epoch::Guard guard(Epoch::global());
        for (std::uint64_t k : initial) {
          bool inserted = false;
          map->insert_or_get(
              k, [&] { return new ZeroMap::Node{k, k}; }, &inserted);
        }
        for (int p = 0; p < 2; ++p) {
          driver.spawn(p, [&, p] { got[p] = apply(*map, ops[p]); });
        }
      },
      [&](const std::vector<int>& schedule) {
        const std::string why = check_schedule(initial, ops, got, *map);
        if (why.empty()) return;
        if (failed++ == 0) {
          first_failure = why + " (schedule";
          for (int p : schedule) first_failure += " " + std::to_string(p);
          first_failure += ")";
        }
      });
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started)
                          .count();
  std::fprintf(stderr, "[ wf ] %llu schedules, %llu failed, %.2f s\n",
               static_cast<unsigned long long>(stats.schedules),
               static_cast<unsigned long long>(failed), secs);
  EXPECT_EQ(failed, 0u) << first_failure;
  return stats.schedules;
}

TEST(WfHashMapSteps, InsertWhileAnotherKeyOfItsClusterIsErased) {
  // The locked rescan races the erase that turns X into a tombstone.
  const MapOp ops[2] = {{MapOp::kInsert, kK}, {MapOp::kErase, kX}};
  EXPECT_EQ(explore({kY, kX}, ops), 495u);
}

TEST(WfHashMapSteps, EraseAndInsertOfOneKey) {
  // The insert either meets K or refills K's tombstone, never both.
  const MapOp ops[2] = {{MapOp::kErase, kK}, {MapOp::kInsert, kK}};
  EXPECT_EQ(explore({kY, kK}, ops), 35u);
}

TEST(WfHashMapSteps, FindLooksPastATombstoneMadeUnderIt) {
  // K sits behind X; erasing X must not hide K from a concurrent find.
  const MapOp ops[2] = {{MapOp::kErase, kX}, {MapOp::kFind, kK}};
  EXPECT_EQ(explore({kY, kX, kK}, ops), 70u);
}

// ---------------------------------------------------------------------------
// ClockCache

using IntCache = ClockCache<std::uint64_t, std::uint64_t>;

TEST(WfClockCache, HitsPlusMissesEqualsLookupsUnderChurn) {
  // The reconciliation invariant the service stats tests depend on: every
  // get / lookup / get_or_insert counts exactly one hit or one miss, even
  // while eviction and the detached overflow path race.  Checked after join, when folds are exact.
  constexpr int kThreads = 6;
  constexpr int kOps = 8'000;
  constexpr std::uint64_t kKeys = 256;
  IntCache cache(IntCache::Options{.max_entries = 64});
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
    // The entry just inserted (globally newest ticket) is never the
    // victim, so the most recent tower survives its own insert.
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
    IntCache cache(IntCache::Options{.max_entries = 32});
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
