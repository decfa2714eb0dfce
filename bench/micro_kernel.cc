/**
 * @file
 * Event-kernel and request-queue loop timings: the hot loops that
 * perfbench's whole-system workloads cannot isolate.
 *
 * Prints machine-parseable `perf.<metric> <value>` lines that
 * tools/perf_report.py records in BENCH_perf.json:
 *
 *   perf.event.ns_per_event        host ns per fired event
 *   perf.rq.ns_per_op              request-queue push/pop/index cost
 *
 * That the timed loops allocate nothing at steady state is checked by
 * the EventQueue.SteadyState* and RequestQueue.SteadyStateChurn*
 * tests, not here.
 *
 * Scaling knob (environment):
 *   MELLOWSIM_PERF_EVENTS  events in the timed kernel loop (def
 *                          2000000; must be a positive integer)
 *
 * Only the public kernel API is used, so the binary benchmarks any
 * kernel implementation unchanged — the before/after numbers in
 * EXPERIMENTS.md come from running this same file on both.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "nvm/queues.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "system/runner.hh"

using namespace mellowsim;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t
envEvents()
{
    const char *name = "MELLOWSIM_PERF_EVENTS";
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return 2'000'000;
    std::uint64_t parsed = parseCount(v, name);
    fatal_if(parsed == 0, "%s must be positive", name);
    return parsed;
}

void
metric(const char *name, double value)
{
    std::printf("perf.%s %.6g\n", name, value);
}

/**
 * Event-kernel throughput: a fixed population of self-rescheduling
 * chains, the shape of the controller's completion/retry events. Each
 * fire schedules one successor, so the pending population (and the
 * kernel's internal storage) is constant.
 */
void
benchEventKernel(std::uint64_t totalEvents)
{
    constexpr unsigned kChains = 64;

    EventQueue eq;
    std::uint64_t fired = 0;
    std::uint64_t sink = 0;

    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *fired;
        std::uint64_t *sink;
        std::uint64_t limit;
        Tick stride;

        void
        operator()() const
        {
            ++*fired;
            *sink += eq->curTick();
            if (*fired < limit) {
                Chain next = *this;
                eq->scheduleIn(stride, next);
            }
        }
    };

    // Warm-up fills the free lists and grows the heap storage to its
    // steady-state footprint.
    std::uint64_t warm = totalEvents / 10 + kChains;
    for (unsigned c = 0; c < kChains; ++c) {
        eq.scheduleIn(1 + c % 7,
                      Chain{&eq, &fired, &sink, warm, 1 + c % 13});
    }
    eq.run();

    fired = 0;
    Clock::time_point t0 = Clock::now();
    for (unsigned c = 0; c < kChains; ++c) {
        eq.scheduleIn(1 + c % 7,
                      Chain{&eq, &fired, &sink, totalEvents,
                            1 + c % 13});
    }
    eq.run();
    double secs = secondsSince(t0);

    metric("event.ns_per_event",
           secs * 1e9 / static_cast<double>(fired));
    if (sink == 0)
        std::printf("# sink %llu\n",
                    static_cast<unsigned long long>(sink));
}

/**
 * Request-queue churn: push/pop across banks plus the block-index
 * lookups the read-forwarding path performs per demand read.
 */
void
benchRequestQueue(std::uint64_t totalOps)
{
    constexpr unsigned kBanks = 8;
    constexpr unsigned kDepth = 24;

    FlatCounter<std::uint64_t> index;
    RequestQueue q(kBanks, 32, &index);
    std::uint64_t lookups = 0;

    auto churn = [&](std::uint64_t rounds) {
        std::uint64_t nextAddr = 0;
        for (std::uint64_t r = 0; r < rounds; ++r) {
            unsigned bank = static_cast<unsigned>(r % kBanks);
            MemRequest req;
            req.type = ReqType::Write;
            req.addr = LogicalAddr(nextAddr);
            req.loc.bank = BankId(bank);
            req.arrival = static_cast<Tick>(r);
            nextAddr = (nextAddr + kBlockSize) % (1u << 22);
            q.push(std::move(req));
            lookups += index.count(blockNumber(LogicalAddr(nextAddr)));
            if (q.countForBank(BankId(bank)) > kDepth / kBanks) {
                MemRequest out = q.pop(BankId(bank));
                lookups += out.attempts;
            }
            if (q.oldestArrival() == MaxTick)
                ++lookups;
        }
        for (unsigned b = 0; b < kBanks; ++b) {
            while (q.countForBank(BankId(b)) > 0)
                q.pop(BankId(b));
        }
    };

    churn(totalOps / 10 + 64);

    Clock::time_point t0 = Clock::now();
    churn(totalOps);
    double secs = secondsSince(t0);

    metric("rq.ns_per_op", secs * 1e9 / static_cast<double>(totalOps));
    if (lookups == 0)
        std::printf("# lookups %llu\n",
                    static_cast<unsigned long long>(lookups));
}

} // namespace

int
main()
{
    Logger::setQuiet(true);

    std::uint64_t events = envEvents();
    std::printf("# micro_kernel: events=%llu\n",
                static_cast<unsigned long long>(events));

    benchEventKernel(events);
    benchRequestQueue((events + 1) / 2);
    return 0;
}
