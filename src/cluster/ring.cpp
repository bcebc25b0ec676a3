#include "cluster/ring.hpp"

#include <stdexcept>

namespace wfc::cluster {

std::uint64_t fnv1a64(std::string_view s, std::uint64_t h) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

Ring::Ring(int vnodes) : vnodes_(vnodes) {
  if (vnodes <= 0) throw std::invalid_argument("Ring: vnodes must be > 0");
}

void Ring::add(const std::string& shard) {
  if (!members_.insert(shard).second) return;
  for (int i = 0; i < vnodes_; ++i) {
    // Collisions across shards are resolved by map insertion order (first
    // owner keeps the point); with 64-bit hashes they are a curiosity, not
    // a correctness concern.
    points_.emplace(fnv1a64(shard + "#" + std::to_string(i)), shard);
  }
}

void Ring::remove(const std::string& shard) {
  if (members_.erase(shard) == 0) return;
  for (auto it = points_.begin(); it != points_.end();) {
    it = it->second == shard ? points_.erase(it) : std::next(it);
  }
}

std::string Ring::pick(std::uint64_t key, const Accept& accept) const {
  if (points_.empty()) return "";
  std::set<std::string> rejected;
  auto it = points_.lower_bound(key);
  // At most one full revolution: every distinct shard is considered once.
  for (std::size_t step = 0; step < points_.size(); ++step, ++it) {
    if (it == points_.end()) it = points_.begin();
    const std::string& shard = it->second;
    if (rejected.count(shard) != 0) continue;
    if (!accept || accept(shard)) return shard;
    rejected.insert(shard);
    if (rejected.size() == members_.size()) break;
  }
  return "";
}

std::string Ring::successor(std::uint64_t key, const std::string& primary,
                            const Accept& accept) const {
  return pick(key, [&](const std::string& shard) {
    return shard != primary && (!accept || accept(shard));
  });
}

std::uint64_t Ring::imbalance_permille() const {
  if (points_.empty()) return 0;
  // Arc owned by a point = distance from the PREVIOUS point (clockwise
  // lookups land on the next point at or after the key).
  std::map<std::string, std::uint64_t> share;
  std::uint64_t prev = points_.rbegin()->first;  // wrap: last point precedes
  for (const auto& [point, shard] : points_) {
    share[shard] += point - prev;  // unsigned wrap gives the circular arc
    prev = point;
  }
  std::uint64_t max_share = 0;
  for (const auto& [shard, arc] : share) {
    if (arc > max_share) max_share = arc;
  }
  // mean share = 2^64 / N; compute permille without 128-bit arithmetic by
  // scaling max down first (loses < 1 permille of precision).
  const double mean =
      18446744073709551616.0 / static_cast<double>(members_.size());
  return static_cast<std::uint64_t>(static_cast<double>(max_share) / mean *
                                    1000.0);
}

}  // namespace wfc::cluster
