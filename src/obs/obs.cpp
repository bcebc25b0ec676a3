#include "obs/obs.hpp"

#include <ostream>

namespace wfc::obs {

Observer::Observer(ObsConfig config) : config_(config) {
  if (config_.search_checkpoint_nodes == 0) {
    config_.search_checkpoint_nodes = ObsConfig{}.search_checkpoint_nodes;
  }
  if (config_.enabled) {
    trace_ = std::make_unique<TraceSink>(config_.trace_capacity,
                                         config_.trace_shards);
  }
}

TraceContext Observer::begin_trace() {
  if (!config_.enabled) return {};
  return TraceContext(trace_.get(),
                      next_trace_id_.fetch_add(1, std::memory_order_relaxed));
}

void Observer::write_chrome_trace(std::ostream& out) const {
  if (trace_ != nullptr) {
    trace_->write_chrome_trace(out);
  } else {
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}";
  }
}

}  // namespace wfc::obs
