// wfc::cluster::Ring -- the consistent-hash ring that assigns query
// fingerprints to shards.
//
// Each shard contributes `vnodes` points on a 64-bit circle (hash of
// "<shard>#<i>"); a key is served by the first point clockwise from the
// key's own hash.  Virtual nodes smooth the arc shares (with 64 points per
// shard the max/mean share stays within a few tens of percent), and
// membership changes move only the arcs adjacent to the added or removed
// points -- the property the routing tier exists for: a shard joining or
// leaving invalidates O(1/N) of every other shard's warm cache, not all
// of it.
//
// pick() takes an acceptance predicate so the router can skip draining,
// down, or backing-off shards WITHOUT mutating the ring: the key's home
// position is stable, and excluded shards resume their arcs the moment the
// predicate admits them again.  successor() is pick() with the primary
// excluded -- the hedge target.
//
// The Ring itself is a plain value type with no locking; the router guards
// it with its membership lock and treats lookups as read-only.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace wfc::cluster {

inline constexpr std::uint64_t kFnv64Offset = 1469598103934665603ull;

/// FNV-1a 64-bit -- the fingerprint hash for routing keys and ring points.
/// Stable across runs and platforms (no seed), so a corpus maps to the
/// same shards on every router restart.  `h` is the running hash, so bytes
/// can be fed in pieces: fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s,
                                    std::uint64_t h = kFnv64Offset);

class Ring {
 public:
  /// Predicate admitting a shard for a lookup; empty admits everyone.
  using Accept = std::function<bool(const std::string&)>;

  explicit Ring(int vnodes = 64);

  /// Adds a shard's vnodes points.  No-op if already present.
  void add(const std::string& shard);
  /// Removes a shard's points.  No-op if absent.
  void remove(const std::string& shard);

  [[nodiscard]] bool contains(const std::string& shard) const {
    return members_.count(shard) != 0;
  }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] std::vector<std::string> members() const {
    return {members_.begin(), members_.end()};
  }

  /// The shard owning `key`: first point clockwise whose shard `accept`
  /// admits.  Returns "" when the ring is empty or every shard is
  /// rejected.
  [[nodiscard]] std::string pick(std::uint64_t key,
                                 const Accept& accept = {}) const;

  /// The hedge target for `key`: the first admitted shard clockwise that
  /// is NOT `primary`.  "" when no distinct shard qualifies.
  [[nodiscard]] std::string successor(std::uint64_t key,
                                      const std::string& primary,
                                      const Accept& accept = {}) const;

  /// Load-balance figure of merit: the largest shard arc share over the
  /// mean share, in permille.  1000 = perfectly balanced; 2000 = the
  /// hottest shard owns twice its fair share of the key space.  0 on an
  /// empty ring.
  [[nodiscard]] std::uint64_t imbalance_permille() const;

 private:
  int vnodes_;
  /// point hash -> shard id, the circle itself (wrap via begin()).
  std::map<std::uint64_t, std::string> points_;
  std::set<std::string> members_;
};

}  // namespace wfc::cluster
