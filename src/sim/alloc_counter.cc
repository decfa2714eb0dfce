#include "sim/alloc_counter.hh"

#include <cstdlib>
#include <new>

#include "sim/sync.hh"

namespace
{

// Constant-initialized (constexpr std::atomic ctor inside), so the
// replaced operator new is safe to hit during static initialization
// of other translation units.
mellowsim::sync::RelaxedCounter g_allocs;
mellowsim::sync::RelaxedCounter g_frees;

void *
countedAlloc(std::size_t bytes)
{
    g_allocs.increment();
    // malloc(0) may return null; the returned pointer must be unique.
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    return nullptr;
}

void *
countedAlignedAlloc(std::size_t bytes, std::size_t alignment)
{
    g_allocs.increment();
    void *p = nullptr;
    if (posix_memalign(&p, alignment, bytes ? bytes : alignment) != 0)
        return nullptr;
    return p;
}

void
countedFree(void *p)
{
    if (p == nullptr)
        return;
    g_frees.increment();
    std::free(p);
}

} // namespace

namespace mellowsim::alloccounter
{

bool
enabled()
{
    return true;
}

std::uint64_t
allocations()
{
    return g_allocs.value();
}

std::uint64_t
deallocations()
{
    return g_frees.value();
}

} // namespace mellowsim::alloccounter

// --- Replaced global allocation functions ---------------------------

void *
operator new(std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    if (void *p =
            countedAlignedAlloc(bytes, static_cast<std::size_t>(align)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes, std::align_val_t align)
{
    if (void *p =
            countedAlignedAlloc(bytes, static_cast<std::size_t>(align)))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
