// Test helper: read series values out of a Prometheus text exposition, so
// agreement tests check what a scrape would see rather than registry
// internals.
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace wfc {

inline std::string exposition_of(const obs::MetricsRegistry& registry) {
  std::ostringstream out;
  registry.write_prometheus(out);
  return out.str();
}

inline std::string exposition_of(const obs::Observer& observer) {
  return exposition_of(observer.metrics());
}

/// The value exported for `series` -- its name plus any `{labels}` body,
/// exactly as written -- or nullopt when the exposition has no such line.
inline std::optional<std::uint64_t> exposed_value(
    const std::string& text, const std::string& series) {
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.size() > series.size() && line[series.size()] == ' ' &&
        line.compare(0, series.size(), series) == 0) {
      return std::stoull(line.substr(series.size() + 1));
    }
  }
  return std::nullopt;
}

}  // namespace wfc
