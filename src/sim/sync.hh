/**
 * @file
 * Concurrency primitives for mellowsim.
 *
 * This header is the ONLY sanctioned home of raw standard-library
 * synchronization primitives and atomics (std::mutex, std::thread,
 * std::atomic, ...); mellow-analyze's `raw-sync` rule rejects them
 * anywhere else. Everything that shares state across threads goes
 * through these wrappers, so the confinement analysis has a closed
 * vocabulary of "synchronized" types: mutable state shared across
 * threads must be one of these types (or std::atomic / thread_local),
 * or the `confinement-global` rule flags it.
 *
 * The concurrency model itself (each System is confined to one sweep
 * worker; what is shared immutable; what must be synchronized) is
 * documented in DESIGN.md §11 and declared machine-checkably in the
 * [confinement-global] table of tools/analyze/rules.toml.
 */

#ifndef MELLOWSIM_SIM_SYNC_HH
#define MELLOWSIM_SIM_SYNC_HH

#include <atomic>
#include <cstddef>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace mellowsim::sync
{

/** Plain mutual exclusion wrapping std::mutex; acquire it through
 * LockGuard. */
class Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() { _mutex.lock(); }
    void unlock() { _mutex.unlock(); }

  private:
    std::mutex _mutex;
};

/** Scoped acquisition of a Mutex (RAII std::lock_guard equivalent). */
class LockGuard
{
  public:
    explicit LockGuard(Mutex &mutex) : _mutex(mutex) { _mutex.lock(); }
    ~LockGuard() { _mutex.unlock(); }
    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &_mutex;
};

/**
 * Owning group of worker threads, joined in the destructor.
 *
 * The RAII join is the point: if spawning thread k throws (resource
 * exhaustion) or the spawning scope unwinds for any other reason,
 * threads 0..k-1 are still joined instead of leaking into
 * std::terminate at std::thread destruction.
 */
class ThreadGroup
{
  public:
    ThreadGroup() = default;
    explicit ThreadGroup(std::size_t expected)
    {
        _threads.reserve(expected);
    }
    ~ThreadGroup() { joinAll(); }
    ThreadGroup(const ThreadGroup &) = delete;
    ThreadGroup &operator=(const ThreadGroup &) = delete;

    /** Start one worker running @p fn. */
    template <typename Fn>
    void
    spawn(Fn &&fn)
    {
        _threads.emplace_back(std::forward<Fn>(fn));
    }

    /** Join every still-joinable worker (idempotent). */
    void
    joinAll()
    {
        for (std::thread &t : _threads) {
            if (t.joinable())
                t.join();
        }
    }

    [[nodiscard]] std::size_t size() const { return _threads.size(); }

  private:
    std::vector<std::thread> _threads;
};

/**
 * Process-wide boolean toggle readable from any thread.
 *
 * Relaxed ordering: the flag is advisory configuration (e.g. log
 * verbosity), never a synchronization point — a reader that misses a
 * concurrent toggle by one message is correct behavior.
 */
class RelaxedFlag
{
  public:
    constexpr explicit RelaxedFlag(bool initial) : _value(initial) {}

    void set(bool value) { _value.store(value, std::memory_order_relaxed); }
    [[nodiscard]] bool get() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> _value;
};

/**
 * Monotonic work-index dispenser for self-scheduling worker pools.
 *
 * Each take() hands out the next index exactly once. Relaxed ordering
 * suffices because the index only partitions work; the data handoff
 * happens through thread creation before and join after.
 */
class TicketCounter
{
  public:
    [[nodiscard]] std::size_t
    take()
    {
        return _next.fetch_add(1, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::size_t> _next{0};
};

/** Hardware thread count, never zero. */
[[nodiscard]] inline unsigned
hardwareConcurrency()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1u;
}

} // namespace mellowsim::sync

#endif // MELLOWSIM_SIM_SYNC_HH
