/**
 * @file
 * Global heap-allocation counter.
 *
 * Every build replaces the global operator new/delete family with
 * counting wrappers over malloc/free (one relaxed atomic increment per
 * call). The counters let the perf harnesses (bench/micro_kernel,
 * perfbench) prove the zero-steady-state-allocation property of the
 * event kernel and request path: sample the counter around a
 * steady-state loop and assert the delta is zero.
 *
 * The wrappers route through malloc, so AddressSanitizer's malloc
 * interception (and leak checking) keeps working.
 */

#ifndef MELLOWSIM_SIM_ALLOC_COUNTER_HH
#define MELLOWSIM_SIM_ALLOC_COUNTER_HH

#include <cstdint>

namespace mellowsim::alloccounter
{

/**
 * Always true: the counter is compiled into every build. Kept because
 * perfbench (main.cc, traced.cc) still asks.
 */
[[nodiscard]] bool enabled();

/** Global operator-new calls since process start. */
[[nodiscard]] std::uint64_t allocations();

/** Global operator-delete calls on non-null pointers since start. */
[[nodiscard]] std::uint64_t deallocations();

} // namespace mellowsim::alloccounter

#endif // MELLOWSIM_SIM_ALLOC_COUNTER_HH
