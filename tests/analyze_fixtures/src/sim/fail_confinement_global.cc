// analyze-expect: confinement-global
// Mutable static-storage state with no synchronization story: raced
// by parallel sweep workers and invisible to the determinism audit.
// The atomic, sync-typed and const declarations below must stay
// silent (negative coverage for the exemption list).
#include <atomic>
#include <cstdint>

#include "sim/sync.hh"

namespace
{

std::uint64_t g_eventsDispatched = 0;

// mlint: allow(raw-sync): raw-atomic exemplar for the exemption list
std::atomic<std::uint64_t> g_allocSamples{0};

mellowsim::sync::TicketCounter g_retries;

const char *const kBannerText = "mellowsim";

} // namespace

std::uint64_t
bumpDispatchCount()
{
    static bool warnedOnce = false;
    warnedOnce = true;
    ++g_eventsDispatched;
    g_allocSamples.fetch_add(1);
    (void)g_retries.take();
    return g_eventsDispatched;
}
