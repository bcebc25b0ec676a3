// Epoch-based memory reclamation for the wait-free data plane (wfc::wf).
//
// The lock-free structures in this directory unlink nodes that concurrent
// readers may still be traversing.  Freeing such a node immediately would
// hand a reader a dangling pointer; holding it forever leaks.  Epoch-based
// reclamation (EBR) threads the needle with three global "epochs":
//
//   * every reader brackets its traversal in a Guard, which publishes the
//     global epoch it entered under (one relaxed store + one fence);
//   * retire(p) stamps p with the current epoch and defers it on a
//     per-thread limbo list -- no lock, no shared write;
//   * the epoch advances only when every pinned thread has observed the
//     current value, so anything retired two epochs ago is unreachable by
//     every live guard and can be freed.
//
// This is the classic grace-period argument: a node unlinked and retired
// in epoch e can only be held by guards that entered at e or earlier; once
// the epoch has advanced twice, every such guard has exited.
//
// One global domain (`Epoch::global()`) serves the whole process -- the
// structures here share threads, so separate domains would only multiply
// bookkeeping.  Thread records self-register on first use and hand their
// pending retirees to a lock-free orphan stack on thread exit, so no
// memory is stranded (the domain destructor frees whatever remains, which
// keeps LeakSanitizer green).
//
// Progress: pin/unpin are wait-free (constant work).  retire is wait-free
// (a local list push) and every 64th call attempts an amortized collect().
// collect() is lock-free: a stalled *quiescent* thread costs nothing, and
// a stalled *pinned* thread only pauses reclamation, never readers or
// writers -- memory grows until it resumes, the data plane keeps serving.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace wfc::wf {

/// Small dense id for the calling thread (assigned on first use, recycled
/// on thread exit).  Shared by the epoch domain, the sharded counters, and
/// the CLOCK hands so "which shard am I" is one thread-local read.
[[nodiscard]] std::uint32_t thread_slot();

class Epoch {
 public:
  /// Upper bound on concurrently *live* registered threads (slots are
  /// recycled when a thread exits).
  static constexpr std::size_t kMaxThreads = 512;

  /// The process-wide reclamation domain.  All wf structures use it.
  static Epoch& global();

  /// RAII read-side critical section.  Cheap and reentrant: nested guards
  /// on one thread only bump a thread-local depth.
  class Guard {
   public:
    explicit Guard(Epoch& epoch) : epoch_(epoch) { epoch_.enter(); }
    ~Guard() { epoch_.exit(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Epoch& epoch_;
  };

  [[nodiscard]] Guard pin() { return Guard(*this); }

  /// Defers `deleter(p)` until every guard live at the time of this call
  /// has exited.  Wait-free; safe to call while holding a Guard.
  void retire(void* p, void (*deleter)(void*));

  template <typename T>
  void retire(T* p) {
    retire(p, [](void* q) { delete static_cast<T*>(q); });
  }

  /// Amortized maintenance: tries to advance the epoch, adopts orphaned
  /// retirees, and frees everything past its grace period.  Runs
  /// automatically every 64th retire(); callable directly by tests and
  /// shutdown paths.  Lock-free.
  void collect();

  /// Times the global epoch has advanced (mirrors wf telemetry).
  [[nodiscard]] std::uint64_t advances() const {
    return advances_.load(std::memory_order_relaxed);
  }
  /// Retired-but-not-yet-freed nodes, approximate.
  [[nodiscard]] std::uint64_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }

  ~Epoch();
  Epoch(const Epoch&) = delete;
  Epoch& operator=(const Epoch&) = delete;

 private:
  friend std::uint32_t thread_slot();

  // Slot states: a registered thread is either quiescent or pinned at the
  // epoch value it last observed.
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0} - 1;

  struct Deferred {
    void* p;
    void (*del)(void*);
    std::uint64_t epoch;
    Deferred* next;
  };

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> state{kFree};
  };

  struct ThreadRec;

  Epoch() = default;

  ThreadRec& rec();
  void enter();
  void exit();
  void try_advance();
  /// Frees `list` entries whose grace period has passed; returns survivors.
  Deferred* reclaim_list(Deferred* list, std::uint64_t cur);
  void reclaim_local(ThreadRec& r);
  void adopt_orphans();
  void push_orphans(Deferred* head);

  std::atomic<std::uint64_t> epoch_{2};  // >= 2 keeps the e-2 math unsigned
  std::atomic<std::uint64_t> advances_{0};
  std::atomic<std::int64_t> pending_{0};
  Slot slots_[kMaxThreads];
  std::atomic<Deferred*> orphans_{nullptr};  // Treiber stack of exited
                                             // threads' limbo lists
};

}  // namespace wfc::wf
