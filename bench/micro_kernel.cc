/**
 * @file
 * Simulation-kernel microbenchmark: the permanent perf harness for
 * the event kernel and the controller request path.
 *
 * Prints machine-parseable `perf.<metric> <value>` lines consumed by
 * tools/perf_report.py, which records them in BENCH_perf.json so every
 * PR can be judged against the benchmark trajectory:
 *
 *   perf.event.ns_per_event        host ns per fired event
 *   perf.event.events_per_sec      schedule+fire throughput
 *   perf.event.steady_allocs       heap allocations during the timed
 *                                  steady-state loop (-1 when the
 *                                  alloc counter is compiled out)
 *   perf.cancel.ns_per_op          schedule+deschedule churn cost
 *   perf.cancel.steady_allocs      ditto for the cancel churn loop
 *   perf.rq.ns_per_op              request-queue push/pop/index cost
 *   perf.rq.steady_allocs          ditto for the queue churn loop
 *   perf.system.sim_ticks_per_host_sec
 *   perf.system.instrs_per_host_sec
 *
 * Scaling knobs (environment):
 *   MELLOWSIM_PERF_EVENTS  events in the timed kernel loop (def 2e6)
 *   MELLOWSIM_INSTRS       instructions for the System slice (def 1e6)
 *
 * Only the public kernel API is used, so the binary benchmarks any
 * kernel implementation unchanged — the before/after numbers in
 * EXPERIMENTS.md come from running this same file on both.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.hh"
#include "mellow/policy.hh"
#include "nvm/queues.hh"
#include "sim/alloc_counter.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "system/report.hh"
#include "system/system.hh"

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
envCount(const char *name, std::uint64_t dflt)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return dflt;
    return static_cast<std::uint64_t>(std::strtod(v, nullptr));
}

void
metric(const char *name, double value)
{
    std::printf("perf.%s %.6g\n", name, value);
}

std::int64_t
allocDelta(std::uint64_t before)
{
    if (!alloccounter::enabled())
        return -1;
    return static_cast<std::int64_t>(alloccounter::allocations() -
                                     before);
}

/**
 * Event-kernel throughput: a fixed population of self-rescheduling
 * chains, the shape of the controller's completion/retry events. Each
 * fire schedules one successor, so the pending population (and the
 * kernel's internal storage) is constant — any allocation in the
 * timed region is a steady-state allocation on the schedule/fire
 * path.
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
    std::uint64_t allocs0 = alloccounter::allocations();
    Clock::time_point t0 = Clock::now();
    for (unsigned c = 0; c < kChains; ++c) {
        eq.scheduleIn(1 + c % 7,
                      Chain{&eq, &fired, &sink, totalEvents,
                            1 + c % 13});
    }
    eq.run();
    double secs = secondsSince(t0);
    std::int64_t allocs = allocDelta(allocs0);

    double events = static_cast<double>(fired);
    metric("event.ns_per_event", secs * 1e9 / events);
    metric("event.events_per_sec", events / secs);
    metric("event.steady_allocs", static_cast<double>(allocs));
    if (sink == 0)
        std::printf("# sink %llu\n",
                    static_cast<unsigned long long>(sink));
}

/**
 * Schedule/deschedule churn: the controller's dominant cancel shape
 * (write-completion events descheduled by read-triggered
 * cancellation, scheduler dedup events rescheduled earlier).
 */
void
benchScheduleCancel(std::uint64_t totalOps)
{
    constexpr unsigned kSlots = 128;

    EventQueue eq;
    std::vector<EventId> handles(kSlots);
    std::uint64_t fired = 0;

    auto churn = [&](std::uint64_t rounds) {
        for (std::uint64_t r = 0; r < rounds; ++r) {
            unsigned slot = static_cast<unsigned>(r % kSlots);
            if (eq.scheduled(handles[slot]))
                eq.deschedule(handles[slot]);
            handles[slot] = eq.scheduleIn(1 + (r % 97),
                                          [&fired] { ++fired; });
            if (r % kSlots == kSlots - 1)
                eq.run(eq.curTick() + 5);
        }
        eq.run();
    };

    churn(totalOps / 10 + kSlots);

    std::uint64_t allocs0 = alloccounter::allocations();
    Clock::time_point t0 = Clock::now();
    churn(totalOps);
    double secs = secondsSince(t0);
    std::int64_t allocs = allocDelta(allocs0);

    metric("cancel.ns_per_op",
           secs * 1e9 / static_cast<double>(totalOps));
    metric("cancel.steady_allocs", static_cast<double>(allocs));
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

    RequestQueue q(kBanks, 32);
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
            lookups += q.countForBlock(LogicalAddr(nextAddr));
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

    std::uint64_t allocs0 = alloccounter::allocations();
    Clock::time_point t0 = Clock::now();
    churn(totalOps);
    double secs = secondsSince(t0);
    std::int64_t allocs = allocDelta(allocs0);

    metric("rq.ns_per_op", secs * 1e9 / static_cast<double>(totalOps));
    metric("rq.steady_allocs", static_cast<double>(allocs));
    if (lookups == 0)
        std::printf("# lookups %llu\n",
                    static_cast<unsigned long long>(lookups));
}

/** End-to-end System slice: whole-simulator host throughput. */
void
benchSystemSlice(std::uint64_t instructions)
{
    SystemConfig cfg;
    cfg.workloadName = "stream";
    cfg.policy = policies::beMellow().withSC().withWQ();
    cfg.instructions = instructions;
    cfg.warmupInstructions = instructions / 4;
    cfg.seed = 1;

    Clock::time_point t0 = Clock::now();
    System sys(cfg);
    SimReport r = sys.run();
    double secs = secondsSince(t0);

    metric("system.sim_ticks_per_host_sec",
           static_cast<double>(r.simTicks) / secs);
    metric("system.instrs_per_host_sec",
           static_cast<double>(r.instructions) / secs);
    metric("system.host_sec", secs);
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::applyBenchArgs(argc, argv);
    Logger::setQuiet(true);

    std::uint64_t events =
        envCount("MELLOWSIM_PERF_EVENTS", 2'000'000);
    std::uint64_t instrs = envCount("MELLOWSIM_INSTRS", 1'000'000);

    std::printf("# micro_kernel: events=%llu instrs=%llu "
                "alloc_counter=%d\n",
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(instrs),
                alloccounter::enabled() ? 1 : 0);
    metric("alloc_counter_enabled",
           alloccounter::enabled() ? 1.0 : 0.0);

    benchEventKernel(events);
    benchScheduleCancel(events / 2);
    benchRequestQueue(events / 2);
    benchSystemSlice(instrs);
    return 0;
}
