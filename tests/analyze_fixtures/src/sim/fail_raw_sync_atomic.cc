// analyze-expect: raw-sync
// Raw atomic spellings outside the sync.hh wrapper home. Each wrapper
// there documents the ordering it relies on; a bare std::atomic
// elsewhere carries no such argument.
#include <atomic>
#include <cstdint>

namespace
{

std::atomic<std::uint64_t> g_spins{0};

} // namespace

std::uint64_t
spinSample()
{
    return g_spins.load(std::memory_order_acquire);
}
