// Shared-memory preemption points for the model checker.
//
// The model checker (src/check) drives REAL concurrent code through chosen
// interleavings: every shared-memory access in the registers
// (swmr_register.hpp, immediate_snapshot.hpp) and every slot access of
// wf::HashMap first calls detail::step_point(), where a cooperative
// scheduler (chk::StepDriver) can park the calling thread until the
// schedule grants it the next step.  This is the usual stateless-model-
// checking instrumentation seam, kept deliberately tiny:
//
//   * production / plain tests: the hook is null -- one acquire load, no
//     branch taken, no synchronization added (the callers' own atomics
//     carry all ordering);
//   * under the checker: the hook is a plain function pointer; it consults a
//     thread_local registration, so only threads the driver spawned ever
//     block -- the controlling test thread and unrelated threads fall
//     through even while a driver is installed.
#pragma once

#include <atomic>

namespace wfc::detail {

using StepHook = void (*)();

/// The installed preemption hook, or null.  Install/uninstall is owned by
/// chk::StepDriver (src/check/step_driver.cpp).
inline std::atomic<StepHook> step_hook{nullptr};

/// Called immediately before each instrumented shared-memory access.
inline void step_point() {
  StepHook hook = step_hook.load(std::memory_order_acquire);
  if (hook != nullptr) hook();
}

}  // namespace wfc::detail
