// Open-addressed hash map with wait-free reads and serialized inserts
// (wfc::wf).
//
// Layout: a fixed power-of-two array of atomic slots, each holding null
// (never occupied), a tombstone sentinel (erased; probes continue past
// it, inserts may reuse it), or a heap-allocated Node{key, value}.
// Linear probing from hash(key); a probe stops at the first null.
//
// Guarantees:
//   * find() is wait-free: a bounded scan of acquire loads, no writes.
//   * insert_or_get() runs find() first, so a present key never waits.  On
//     a miss it builds the candidate node outside any lock, takes the map's
//     one mutex, and rescans the key's cluster from the home slot to the
//     first null: it returns the node it meets, or stores the candidate
//     into the first tombstone or null it passed.
//   * erase()/erase_at() are lock-free: one CAS turns a node into a
//     tombstone.  A failed CAS means another eraser removed that node.
//   * Erased nodes are retired through wf::Epoch (callers hold a Guard
//     across every call), so readers may keep dereferencing a node until
//     their guard closes.
//
// Why this is enough.  Only an insert under the mutex turns a null or a
// tombstone into a node, and nothing ever writes a null.  So every slot
// between a key's home and its node stays non-null, and find() cannot stop
// short of a present key.  While the mutex is held the only other writers
// are erasers, which turn nodes into tombstones: the rescan meets the key
// if it is present, and the null or tombstone it chose is still free when
// it stores, so the store needs no CAS.  Hence a key has at most one live
// node: no duplicate ever forms, so none is resolved.
// Inserts happen only after a find() miss, and the map's users (ClockCache
// memo, intern and tower tables) miss rarely, so the mutex is uncontended
// in practice.  Lock-free inserts would need a per-node commit state that
// find() and every inserter respect, or operation helping as in the BG
// simulation (src/bg); neither pays for itself here.
//
// Every slot load, store and CAS first calls detail::step_point(), so
// chk::for_each_step_interleaving can drive find, erase and the locked
// rescan through every interleaving (tests/wf_test.cpp).
//
// The table does not resize: capacity is fixed at construction and
// callers size it for their bound (ClockCache keeps occupancy low by
// evicting).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>

#include "common/step_point.hpp"
#include "wf/epoch.hpp"
#include "wf/telemetry.hpp"

namespace wfc::wf {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class HashMap {
 public:
  struct Node {
    K key;
    V value;
  };

  struct Options {
    /// Slot count is the smallest power of two >= max(64, min_slots).
    std::size_t min_slots = 64;
  };

  explicit HashMap(Options options = {}) {
    std::size_t cap = 64;
    while (cap < options.min_slots) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<std::atomic<Node*>[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].store(nullptr, std::memory_order_relaxed);
    }
  }

  ~HashMap() {
    // Callers must be quiescent; live nodes are freed directly.
    for (std::size_t i = 0; i <= mask_; ++i) {
      Node* n = slots_[i].load(std::memory_order_relaxed);
      if (n != nullptr && n != tomb()) delete n;
    }
  }

  HashMap(const HashMap&) = delete;
  HashMap& operator=(const HashMap&) = delete;

  /// The node for `key`, or null.  Wait-free.  Caller must hold an Epoch
  /// guard.
  [[nodiscard]] Node* find(const K& key) const {
    const std::size_t home = Hash{}(key) & mask_;
    for (std::size_t step = 0; step <= mask_; ++step) {
      Node* n = load((home + step) & mask_);
      if (n == nullptr) return nullptr;
      if (n == tomb()) continue;
      if (Eq{}(n->key, key)) return n;
    }
    return nullptr;
  }

  /// Returns the node for `key`, inserting `make()` (a Node*) if absent.
  /// Sets *inserted iff this call stored its node.  Returns null only if
  /// the table is full of live keys.  Caller must hold an Epoch guard.
  template <typename MakeNode>
  Node* insert_or_get(const K& key, MakeNode&& make, bool* inserted) {
    *inserted = false;
    if (Node* n = find(key)) return n;
    std::unique_ptr<Node> cand(make());
    std::lock_guard<std::mutex> lock(insert_mu_);
    const std::size_t home = Hash{}(key) & mask_;
    constexpr std::size_t kNone = ~std::size_t{0};
    std::size_t vacant = kNone;  // the first tombstone or null passed
    for (std::size_t step = 0; step <= mask_; ++step) {
      const std::size_t i = (home + step) & mask_;
      Node* n = load(i);
      if (n != nullptr && n != tomb()) {
        if (Eq{}(n->key, key)) return n;
        continue;
      }
      if (vacant == kNone) vacant = i;
      if (n == nullptr) break;
    }
    if (vacant == kNone) return nullptr;
    detail::step_point();
    slots_[vacant].store(cand.get(), std::memory_order_release);
    size_.fetch_add(1, std::memory_order_relaxed);
    *inserted = true;
    return cand.release();
  }

  /// Tombstones slot `i` iff it still holds `expected`.  Does NOT retire
  /// the node -- the caller owns that (it usually holds an evict claim).
  bool erase_at(std::size_t i, Node* expected) {
    detail::step_point();
    if (slots_[i].compare_exchange_strong(expected, tomb(),
                                          std::memory_order_acq_rel)) {
      size_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Removes `key` if present (no claim protocol -- for plain-map use;
  /// ClockCache evicts through erase_at instead).  A lost CAS means a
  /// concurrent erase removed the key's one node first.
  bool erase(const K& key) {
    const std::size_t home = Hash{}(key) & mask_;
    for (std::size_t step = 0; step <= mask_; ++step) {
      const std::size_t i = (home + step) & mask_;
      Node* n = load(i);
      if (n == nullptr) return false;
      if (n == tomb() || !Eq{}(n->key, key)) continue;
      if (!erase_at(i, n)) {
        telemetry().cas_retries.inc();
        return false;
      }
      Epoch::global().retire(n);
      return true;
    }
    return false;
  }

  /// Live node at slot `i`, or null (empty / tombstone).  For scanners
  /// (eviction laps) holding an Epoch guard.
  [[nodiscard]] Node* peek(std::size_t i) const {
    Node* n = slots_[i].load(std::memory_order_acquire);
    return n == tomb() ? nullptr : n;
  }

  [[nodiscard]] std::size_t slots() const { return mask_ + 1; }

  /// Live-node count; exact whenever writers are quiescent.
  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  // Sentinel distinct from every real allocation; compared by identity,
  // never dereferenced.
  Node* tomb() const {
    return const_cast<Node*>(reinterpret_cast<const Node*>(&tomb_storage_));
  }

  Node* load(std::size_t i) const {
    detail::step_point();
    return slots_[i].load(std::memory_order_acquire);
  }

  std::size_t mask_;
  std::unique_ptr<std::atomic<Node*>[]> slots_;
  // Held by every insert: only its holder turns a slot into a node.
  std::mutex insert_mu_;
  std::atomic<std::size_t> size_{0};
  struct alignas(alignof(Node)) TombStorage {
    char pad[sizeof(Node)];
  };
  static inline const TombStorage tomb_storage_{};
};

}  // namespace wfc::wf
