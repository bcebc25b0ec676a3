// Process-wide contention telemetry for the wait-free data plane.
//
// Lock-free code hides its contention: there is no mutex to profile, just
// CASes that fail a little more often.  These counters make that visible.
// They are exported as `wfc_wf_*` gauges through the service metrics
// registry (see QueryService::init_observability) so a Prometheus scrape
// shows whether the data plane is cruising or thrashing.
#pragma once

#include "wf/counter.hpp"

namespace wfc::wf {

struct Telemetry {
  /// Failed compare-exchange attempts across wf structures (erases that
  /// lost to a concurrent erase, pin races).  The lock-free analogue of
  /// mutex contention.
  Counter cas_retries;
  /// Nothing increments this; it stays for readers that still report it.
  Counter help_ops;
  /// Global epoch advances (reclamation grace periods completed).
  Counter epoch_advances;
  /// Deferred nodes actually freed by epoch reclamation.
  Counter epoch_reclaimed;
  /// Table slots examined by CLOCK eviction laps.
  Counter evict_scans;
};

/// The process-wide instance.
Telemetry& telemetry();

}  // namespace wfc::wf
