/**
 * @file
 * Global heap-allocation counter.
 *
 * Every build replaces the global operator new/delete family with
 * counting wrappers over malloc/free (one thread-local increment per
 * call). The counters let the steady-state tests (EventQueue.
 * SteadyState*, RequestQueue.SteadyStateChurnAllocatesNothing) prove
 * the zero-steady-state-allocation property of the event kernel and
 * request path: sample the counter around a steady-state loop and
 * assert the delta is zero. perfbench reports allocations per memory
 * request from the same counter.
 *
 * The counts are per thread: allocations() and deallocations() return
 * the calling thread's tally, so parallel sweep workers never contend
 * on a shared cache line. Every reader (those tests, perfbench's
 * traced detailed phase, the SystemChecks tests) measures a span that
 * runs on one thread; a span that hands work to other threads does
 * not see their allocations.
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

/** Global operator-new calls made by the calling thread. */
[[nodiscard]] std::uint64_t allocations();

/**
 * Global operator-delete calls on non-null pointers made by the
 * calling thread.
 */
[[nodiscard]] std::uint64_t deallocations();

} // namespace mellowsim::alloccounter

#endif // MELLOWSIM_SIM_ALLOC_COUNTER_HH
