#include "check/step_driver.hpp"

#include <atomic>
#include <bit>

#include "common/step_point.hpp"

namespace wfc::chk {

namespace {

// Worker threads find their driver through thread-locals, so the installed
// process-wide hook is a plain function and unregistered threads (the
// controller, production code) fall through immediately.
thread_local StepDriver* tl_driver = nullptr;
thread_local int tl_proc = -1;
std::atomic<int> g_installed{0};

}  // namespace

void StepDriver::hook_trampoline() {
  if (tl_driver != nullptr) tl_driver->yield(tl_proc);
}

StepDriver::StepDriver(int n_procs) : procs_(static_cast<std::size_t>(n_procs)) {
  WFC_REQUIRE(n_procs >= 1 && n_procs <= 32, "StepDriver: bad n_procs");
  if (g_installed.fetch_add(1, std::memory_order_acq_rel) == 0) {
    wfc::detail::step_hook.store(&StepDriver::hook_trampoline,
                                 std::memory_order_release);
  }
}

StepDriver::~StepDriver() {
  for (std::size_t p = 0; p < procs_.size(); ++p) {
    if (!procs_[p].is_spawned) continue;
    try {
      finish(static_cast<int>(p));
    } catch (...) {
      // The body's exception was already observable via step()/finish();
      // a destructor must not rethrow.
    }
    procs_[p].thread.join();
  }
  if (g_installed.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    wfc::detail::step_hook.store(nullptr, std::memory_order_release);
  }
}

void StepDriver::check_proc(int p) const {
  WFC_REQUIRE(p >= 0 && p < static_cast<int>(procs_.size()),
              "StepDriver: bad processor id");
}

void StepDriver::spawn(int p, std::function<void()> body) {
  check_proc(p);
  Proc& proc = procs_[static_cast<std::size_t>(p)];
  {
    std::lock_guard<std::mutex> lock(mu_);
    WFC_REQUIRE(!proc.is_spawned, "StepDriver: processor spawned twice");
    proc.is_spawned = true;
  }
  proc.thread = std::thread([this, p, body = std::move(body)] {
    tl_driver = this;
    tl_proc = p;
    Proc& me = procs_[static_cast<std::size_t>(p)];
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return me.granted; });
      // The grant stays live; the first step point consumes it.
    }
    std::exception_ptr error;
    try {
      body();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      me.error = error;
      me.is_done = true;
      me.granted = false;
    }
    cv_.notify_all();
  });
}

void StepDriver::yield(int p) {
  Proc& me = procs_[static_cast<std::size_t>(p)];
  std::unique_lock<std::mutex> lock(mu_);
  ++me.steps;
  me.granted = false;
  cv_.notify_all();
  cv_.wait(lock, [&] { return me.granted; });
}

void StepDriver::rethrow_locked(Proc& proc) {
  if (proc.error != nullptr) {
    std::exception_ptr error = proc.error;
    proc.error = nullptr;
    std::rethrow_exception(error);
  }
}

bool StepDriver::step(int p) {
  check_proc(p);
  Proc& proc = procs_[static_cast<std::size_t>(p)];
  std::unique_lock<std::mutex> lock(mu_);
  WFC_REQUIRE(proc.is_spawned, "StepDriver: step on unspawned processor");
  if (proc.is_done) {
    rethrow_locked(proc);
    return false;
  }
  proc.granted = true;
  cv_.notify_all();
  cv_.wait(lock, [&] { return !proc.granted || proc.is_done; });
  rethrow_locked(proc);
  return !proc.is_done;
}

bool StepDriver::run_until(int p, const std::function<bool()>& pred) {
  for (;;) {
    if (pred()) return true;
    if (!step(p)) return false;
  }
}

void StepDriver::finish(int p) {
  while (step(p)) {
  }
}

void StepDriver::finish_all() {
  for (std::size_t p = 0; p < procs_.size(); ++p) {
    if (procs_[p].is_spawned) finish(static_cast<int>(p));
  }
}

bool StepDriver::spawned(int p) const {
  check_proc(p);
  std::lock_guard<std::mutex> lock(mu_);
  return procs_[static_cast<std::size_t>(p)].is_spawned;
}

bool StepDriver::done(int p) const {
  check_proc(p);
  std::lock_guard<std::mutex> lock(mu_);
  return procs_[static_cast<std::size_t>(p)].is_done;
}

int StepDriver::steps_taken(int p) const {
  check_proc(p);
  std::lock_guard<std::mutex> lock(mu_);
  return procs_[static_cast<std::size_t>(p)].steps;
}

InterleaveStats for_each_step_interleaving(
    int n_procs, const std::function<void(StepDriver&)>& spawn_all,
    const std::function<void(const std::vector<int>&)>& at_end,
    std::uint64_t max_schedules) {
  WFC_REQUIRE(n_procs >= 1 && n_procs <= 32,
              "for_each_step_interleaving: bad n_procs");
  InterleaveStats stats;
  std::vector<int> prefix;

  for (;;) {
    if (max_schedules != 0 && stats.schedules >= max_schedules) {
      stats.truncated = true;
      return stats;
    }

    StepDriver driver(n_procs);
    spawn_all(driver);
    for (int p = 0; p < n_procs; ++p) {
      WFC_REQUIRE(driver.spawned(p),
                  "for_each_step_interleaving: spawn_all must spawn every "
                  "processor");
    }

    std::vector<int> trace;
    std::vector<std::uint32_t> runnable_before;
    auto runnable_mask = [&] {
      std::uint32_t mask = 0;
      for (int p = 0; p < n_procs; ++p) {
        if (!driver.done(p)) mask |= std::uint32_t{1} << p;
      }
      return mask;
    };

    // Replay the committed choices, then extend lowest-runnable-first.
    for (int choice : prefix) {
      const std::uint32_t mask = runnable_mask();
      WFC_CHECK(((mask >> choice) & 1u) != 0,
                "for_each_step_interleaving: replay diverged (scenario not "
                "deterministic?)");
      runnable_before.push_back(mask);
      trace.push_back(choice);
      driver.step(choice);
    }
    for (;;) {
      const std::uint32_t mask = runnable_mask();
      if (mask == 0) break;
      const int choice = std::countr_zero(mask);
      runnable_before.push_back(mask);
      trace.push_back(choice);
      driver.step(choice);
    }

    ++stats.schedules;
    stats.steps += trace.size();
    at_end(trace);

    // Backtrack: find the latest step with an untried larger alternative.
    bool advanced = false;
    for (std::size_t i = trace.size(); i-- > 0;) {
      const std::uint32_t higher =
          runnable_before[i] &
          ~((std::uint32_t{2} << trace[i]) - 1);  // bits > trace[i]
      if (higher != 0) {
        prefix.assign(trace.begin(),
                      trace.begin() + static_cast<std::ptrdiff_t>(i));
        prefix.push_back(std::countr_zero(higher));
        advanced = true;
        break;
      }
    }
    if (!advanced) return stats;
  }
}

}  // namespace wfc::chk
