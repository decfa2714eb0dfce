/**
 * @file
 * The traced per-layer pass (see perfbench.hh).
 *
 * Spans and counts are taken only from benchmark code, around calls
 * into the library's public API:
 *
 *  - sim:      events counted around EventQueue::step(), pending-event
 *              peak, heap allocations around the detailed phase;
 *  - workload: ops seen through a Workload::next() wrapper, and a
 *              drive that times generation alone;
 *  - nvm:      a MemoryPort wrapper that times read/writeback/
 *              eagerWrite calls and logs them, and a drive that
 *              replays that log into a fresh MemorySystem;
 *  - cache:    a drive that replays the recorded op stream into
 *              Hierarchy::access over a stub memory.
 *
 * The core has no host-time metric of its own: it would only be the
 * remainder of the others.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "nvm/memory_system.hh"
#include "perfbench.hh"
#include "sim/alloc_counter.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

namespace perfbench
{

using namespace mellowsim;

namespace
{

/** A workload op with the tick at which the core fetched it. */
struct TimedOp
{
    Tick tick;
    Addr addr;
    bool isWrite;
};

enum class PortKind : std::uint8_t
{
    Read,
    Writeback,
    Eager,
};

/** One request-carrying MemoryPort call. */
struct PortCall
{
    Tick tick;
    Addr addr;
    PortKind kind;
};

/**
 * Append to a log, counting the reallocations growth costs so the
 * allocation tally can leave them out.
 */
template <typename T>
void
logPush(std::vector<T> &log, const T &entry, std::uint64_t &growths)
{
    if (log.size() == log.capacity())
        ++growths;
    log.push_back(entry);
}

/** Host cost of one Clock::now(), taken out of every timed span. */
double
clockReadSeconds()
{
    static const double cost = [] {
        constexpr int kReads = 200'000;
        Clock::time_point start = Clock::now();
        Clock::time_point last = start;
        for (int i = 0; i < kReads; ++i)
            last = Clock::now();
        return std::chrono::duration<double>(last - start).count() /
               kReads;
    }();
    return cost;
}

/** Workload::next() seam: counts and logs detailed-phase ops. */
class TracedWorkload final : public Workload
{
  public:
    TracedWorkload(WorkloadPtr inner, const EventQueue &eventq)
        : _inner(std::move(inner)), _eventq(eventq)
    {
    }

    Op
    next() override
    {
        Op op = _inner->next();
        if (_recording) {
            logPush(_log, TimedOp{_eventq.curTick(), op.addr, op.isWrite},
                    _growths);
        }
        return op;
    }

    const WorkloadInfo &info() const override { return _inner->info(); }

    /** Start logging (the detailed phase); @p expected pre-sizes. */
    void
    record(std::size_t expected)
    {
        _log.reserve(expected);
        _recording = true;
    }

    [[nodiscard]] const std::vector<TimedOp> &log() const { return _log; }
    [[nodiscard]] std::uint64_t growths() const { return _growths; }

  private:
    WorkloadPtr _inner;
    const EventQueue &_eventq;
    bool _recording = false;
    std::vector<TimedOp> _log;
    std::uint64_t _growths = 0;
};

/** MemoryPort seam: times and logs every request-carrying call. */
class TracedPort final : public MemoryPort
{
  public:
    TracedPort(MemoryPort &inner, const EventQueue &eventq)
        : _inner(inner), _eventq(eventq)
    {
    }

    void
    read(LogicalAddr addr, ReadCallback onComplete) override
    {
        Clock::time_point start = Clock::now();
        _inner.read(addr, std::move(onComplete));
        close(start, PortKind::Read, addr);
    }

    void
    writeback(LogicalAddr addr) override
    {
        Clock::time_point start = Clock::now();
        _inner.writeback(addr);
        close(start, PortKind::Writeback, addr);
    }

    bool
    eagerWrite(LogicalAddr addr) override
    {
        Clock::time_point start = Clock::now();
        bool accepted = _inner.eagerWrite(addr);
        close(start, PortKind::Eager, addr);
        return accepted;
    }

    /** Only Llc's scan event asks, once per firing. */
    bool
    eagerQueueHasSpace() const override
    {
        ++_scanEvents;
        return _inner.eagerQueueHasSpace();
    }

    void record(std::size_t expected) { _log.reserve(expected); }

    [[nodiscard]] const std::vector<PortCall> &log() const { return _log; }
    [[nodiscard]] std::uint64_t growths() const { return _growths; }
    [[nodiscard]] double seconds() const { return _seconds; }
    [[nodiscard]] std::uint64_t scanEvents() const { return _scanEvents; }

  private:
    void
    close(Clock::time_point start, PortKind kind, LogicalAddr addr)
    {
        _seconds += secondsSince(start) - clockReadSeconds();
        logPush(_log, PortCall{_eventq.curTick(), addr.value(), kind},
                _growths);
    }

    MemoryPort &_inner;
    const EventQueue &_eventq;
    std::vector<PortCall> _log;
    std::uint64_t _growths = 0;
    double _seconds = 0.0;
    mutable std::uint64_t _scanEvents = 0;
};

/** Cache-drive memory: reads answer after a fixed latency. */
class StubMemory final : public MemoryPort
{
  public:
    StubMemory(EventQueue &eventq, Tick readLatency)
        : _eventq(eventq), _readLatency(readLatency)
    {
    }

    void
    read(LogicalAddr, ReadCallback onComplete) override
    {
        _eventq.scheduleIn(_readLatency, std::move(onComplete));
    }

    void writeback(LogicalAddr) override {}
    bool eagerWrite(LogicalAddr) override { return true; }
    bool eagerQueueHasSpace() const override { return true; }

  private:
    EventQueue &_eventq;
    Tick _readLatency;
};

/** Every simulated counter the exactness gate compares, by name. */
using Snapshot = std::vector<std::pair<const char *, double>>;

Snapshot
snapshot(const TraceCore &core, const Hierarchy &hierarchy,
         const MemorySystem &memory)
{
    auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    const CoreStats &c = core.stats();
    const HierarchyStats &h = hierarchy.stats();
    const LlcStats &l = hierarchy.llc().stats();
    Snapshot s = {
        {"core.finishTick", n(core.finishTick())},
        {"core.instructions", n(c.instructions)},
        {"core.memOps", n(c.memOps)},
        {"core.loads", n(c.loads)},
        {"core.stores", n(c.stores)},
        {"core.robStalls", n(c.robStalls)},
        {"core.mshrStalls", n(c.mshrStalls)},
        {"core.depStalls", n(c.depStalls)},
        {"hierarchy.accesses", n(h.accesses.value())},
        {"hierarchy.l1Hits", n(h.l1Hits.value())},
        {"hierarchy.l2Hits", n(h.l2Hits.value())},
        {"hierarchy.llcHits", n(h.llcHits.value())},
        {"hierarchy.llcMisses", n(h.llcMisses.value())},
        {"hierarchy.mshrMerges", n(h.mshrMerges.value())},
        {"hierarchy.blocked", n(h.blocked.value())},
        {"llc.demandReads", n(l.demandReads.value())},
        {"llc.demandWrites", n(l.demandWrites.value())},
        {"llc.hits", n(l.hits.value())},
        {"llc.misses", n(l.misses.value())},
        {"llc.writebacksToMem", n(l.writebacksToMem.value())},
        {"llc.cleanEvictions", n(l.cleanEvictions.value())},
        {"llc.eagerSent", n(l.eagerSent.value())},
        {"llc.eagerWasted", n(l.eagerWasted.value())},
        {"llc.eagerScans", n(l.eagerScans.value())},
    };
    for (unsigned ch = 0; ch < memory.numChannels(); ++ch) {
        const MemControllerStats &m =
            memory.channel(ChannelId(ch)).stats();
        s.insert(s.end(), {
            {"mem.demandReads", n(m.demandReads.value())},
            {"mem.forwardedReads", n(m.forwardedReads.value())},
            {"mem.issuedReads", n(m.issuedReads.value())},
            {"mem.rowHitReads", n(m.rowHitReads.value())},
            {"mem.rowMissReads", n(m.rowMissReads.value())},
            {"mem.acceptedWritebacks", n(m.acceptedWritebacks.value())},
            {"mem.acceptedEager", n(m.acceptedEager.value())},
            {"mem.rejectedEager", n(m.rejectedEager.value())},
            {"mem.issuedNormalWrites", n(m.issuedNormalWrites.value())},
            {"mem.issuedSlowWrites", n(m.issuedSlowWrites.value())},
            {"mem.issuedEagerNormal", n(m.issuedEagerNormal.value())},
            {"mem.issuedEagerSlow", n(m.issuedEagerSlow.value())},
            {"mem.cancelledWrites", n(m.cancelledWrites.value())},
            {"mem.pausedWrites", n(m.pausedWrites.value())},
            {"mem.resumedWrites", n(m.resumedWrites.value())},
            {"mem.completedDemandWrites",
             n(m.completedDemandWrites.value())},
            {"mem.completedEagerWrites", n(m.completedEagerWrites.value())},
            {"mem.retriedWrites", n(m.retriedWrites.value())},
            {"mem.maintenanceWrites", n(m.maintenanceWrites.value())},
            {"mem.drainEntries", n(m.drainEntries.value())},
            {"mem.readLatency.count", n(m.readLatency.count())},
            {"mem.readLatency.sum", m.readLatency.sum()},
        });
    }
    return s;
}

/** "" if equal, else the first differing field with both values. */
std::string
compare(const Snapshot &expected, const Snapshot &actual)
{
    if (expected.size() != actual.size())
        return "counter sets differ in size";
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if (expected[i].second != actual[i].second) {
            char buf[160];
            std::snprintf(buf, sizeof(buf), "%s: System::run %.17g, "
                          "traced %.17g", expected[i].first,
                          expected[i].second, actual[i].second);
            return buf;
        }
    }
    return "";
}

/** What the untraced reference run tells the traced one. */
struct Reference
{
    Snapshot counters;
    double seconds = 0.0;
    std::size_t ops = 0;
    std::size_t portCalls = 0;
};

Reference
runReference(const SystemConfig &cfg)
{
    Reference ref;
    Clock::time_point start = Clock::now();
    System sys(cfg);
    sys.run();
    ref.seconds = secondsSince(start);
    ref.counters = snapshot(sys.core(), sys.hierarchy(), sys.memory());
    const LlcStats &llc = sys.hierarchy().llc().stats();
    ref.ops = sys.core().stats().memOps + 1;
    ref.portCalls = sys.hierarchy().stats().llcMisses.value() +
                    llc.writebacksToMem.value();
    for (unsigned ch = 0; ch < sys.memory().numChannels(); ++ch) {
        const MemControllerStats &m =
            sys.memory().channel(ChannelId(ch)).stats();
        ref.portCalls += m.acceptedEager.value() + m.rejectedEager.value();
    }
    return ref;
}

/** The warm-up op stream of @p cfg, as System::run consumes it. */
std::vector<Op>
warmupOps(const SystemConfig &cfg)
{
    WorkloadPtr workload = makeWorkload(cfg.workloadName, cfg.seed);
    std::vector<Op> ops;
    for (std::uint64_t instrs = 0; instrs < cfg.warmupInstructions;) {
        ops.push_back(workload->next());
        instrs += ops.back().gap + 1;
    }
    return ops;
}

/** Workload drive: generate @p count ops from a fresh workload. */
void
driveWorkload(const SystemConfig &cfg, std::size_t count, LayerTotals &t)
{
    WorkloadPtr workload = makeWorkload(cfg.workloadName, cfg.seed);
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < count; ++i)
        (void)workload->next();
    t.driveOpSeconds += secondsSince(start);
    t.driveOps += count;
}

/**
 * Cache drive: prime a fresh hierarchy with the warm-up ops, then
 * replay the detailed op stream at its fetch ticks over StubMemory.
 */
void
driveCache(const HierarchyConfig &config, std::uint64_t seed,
           const std::vector<Op> &warmup, const std::vector<TimedOp> &ops,
           Tick readLatency, LayerTotals &t)
{
    EventQueue eventq;
    StubMemory memory(eventq, readLatency);
    Hierarchy hierarchy(eventq, config, memory, seed);
    bool retry = false;
    hierarchy.setRetryCallback([&retry] { retry = true; });

    Clock::time_point start = Clock::now();
    for (const Op &op : warmup)
        hierarchy.prime(LogicalAddr(op.addr), op.isWrite);
    t.primeSeconds += secondsSince(start);
    t.primeOps += warmup.size();

    start = Clock::now();
    for (const TimedOp &op : ops) {
        if (op.tick > eventq.curTick())
            eventq.run(op.tick);
        for (;;) {
            AccessTicket ticket = hierarchy.access(LogicalAddr(op.addr),
                                                   op.isWrite, [] {});
            if (ticket.outcome != AccessOutcome::Blocked)
                break;
            retry = false;
            while (!retry && eventq.step()) {
            }
        }
    }
    if (!ops.empty())
        eventq.run(eventq.curTick() + readLatency + 1);
    t.driveAccessSeconds += secondsSince(start);
    t.driveAccesses += ops.size();
}

/**
 * Nvm drive: replay the port log into a fresh MemorySystem at the
 * recorded ticks, then run until every read has been delivered.
 */
void
driveNvm(const MemorySystemConfig &config,
         const std::vector<PortCall> &calls, LayerTotals &t)
{
    EventQueue eventq;
    MemorySystem memory(eventq, config);
    std::uint64_t reads = 0;
    std::uint64_t delivered = 0;
    std::uint64_t events = 0;

    Clock::time_point start = Clock::now();
    for (const PortCall &call : calls) {
        if (call.tick > eventq.curTick())
            events += eventq.run(call.tick);
        LogicalAddr addr(call.addr);
        switch (call.kind) {
          case PortKind::Read:
            ++reads;
            memory.read(addr, [&delivered] { ++delivered; });
            break;
          case PortKind::Writeback:
            memory.writeback(addr);
            break;
          case PortKind::Eager:
            (void)memory.eagerWrite(addr);
            break;
        }
    }
    while (delivered < reads && eventq.step())
        ++events;
    t.driveRequestSeconds += secondsSince(start);
    t.driveRequests += calls.size();
    t.driveEvents += events;
}

} // namespace

std::string
traceConfig(const SystemConfig &cfg, LayerTotals &t)
{
    const Reference ref = runReference(cfg);

    // Mirror System::build's config propagation: the write policy
    // into the controller, the eager machinery into the LLC, and the
    // run seed into the fault draws.
    SystemConfig c = cfg;
    c.memory.policy = c.policy;
    c.hierarchy.llc.eagerEnabled = c.policy.eager;
    c.memory.fault.seed ^= c.seed * 0x2545F4914F6CDD1Dull;
    MemorySystemConfig memCfg;
    memCfg.numChannels = c.numChannels;
    memCfg.channel = c.memory;

    // Calibrate the clock before the first span, not inside it.
    (void)clockReadSeconds();

    // Same construction order as System, so every component schedules
    // its first events in the same sequence.
    Clock::time_point start = Clock::now();
    EventQueue eventq;
    TracedWorkload workload(makeWorkload(c.workloadName, c.seed), eventq);
    MemorySystem memory(eventq, memCfg);
    TracedPort port(memory, eventq);
    Hierarchy hierarchy(eventq, c.hierarchy, port, c.seed);
    TraceCore core(eventq, c.core, workload, hierarchy);

    Clock::time_point warmStart = Clock::now();
    std::uint64_t warmInstrs = 0;
    while (warmInstrs < c.warmupInstructions) {
        Op op = workload.next();
        warmInstrs += op.gap + 1;
        hierarchy.prime(LogicalAddr(op.addr), op.isWrite);
    }
    t.warmupSeconds += secondsSince(warmStart);

    workload.record(ref.ops);
    port.record(ref.portCalls);
    const std::uint64_t allocsBefore = alloccounter::allocations();
    Clock::time_point detailStart = Clock::now();
    core.start(c.instructions);
    std::uint64_t events = 0;
    std::uint64_t peakPending = 0;
    while (!core.done()) {
        if (!eventq.step())
            break;
        ++events;
        peakPending = std::max<std::uint64_t>(peakPending,
                                              eventq.numPending());
        if ((events & 0x3FF) == 0 && memory.capacityFloorReached())
            break;
        fatal_if(eventq.curTick() > c.maxSimTicks,
                 "traced run exceeded the simulated-time safety wall");
    }
    const double detailed = secondsSince(detailStart);
    const std::uint64_t allocs = alloccounter::allocations() -
                                 allocsBefore - workload.growths() -
                                 port.growths();
    memory.finalize();
    t.tracedSeconds += secondsSince(start);

    if (!core.done())
        return "traced run stopped before the core finished";
    std::string mismatch =
        compare(ref.counters, snapshot(core, hierarchy, memory));
    if (!mismatch.empty())
        return mismatch;

    // --- Fold the traced run into the totals -------------------------
    const CoreStats &cs = core.stats();
    const HierarchyStats &hs = hierarchy.stats();
    const LlcStats &ls = hierarchy.llc().stats();
    ++t.sims;
    t.events += events;
    t.scanEvents += port.scanEvents();
    t.peakPending = std::max(t.peakPending, peakPending);
    t.allocs += allocs;
    t.detailedSeconds += detailed;
    t.ops += workload.log().size();
    t.instructions += cs.instructions;
    t.cycles += static_cast<double>(core.finishTick()) /
                static_cast<double>(c.core.clockPeriod);
    t.robStalls += cs.robStalls;
    t.mshrStalls += cs.mshrStalls;
    t.depStalls += cs.depStalls;
    t.accesses += hs.accesses.value();
    t.l1Hits += hs.l1Hits.value();
    t.l2Hits += hs.l2Hits.value();
    t.llcHits += hs.llcHits.value();
    t.llcMisses += hs.llcMisses.value();
    t.mshrMerges += hs.mshrMerges.value();
    t.blocked += hs.blocked.value();
    t.eagerScans += ls.eagerScans.value();
    t.eagerSent += ls.eagerSent.value();
    t.eagerWasted += ls.eagerWasted.value();
    t.portCalls += port.log().size();
    t.portSeconds += port.seconds();

    double readLatencyTicks = 0.0;
    std::uint64_t readSamples = 0;
    std::uint64_t quotaSlowOnly = 0;
    for (unsigned ch = 0; ch < memory.numChannels(); ++ch) {
        const MemoryController &ctrl = memory.channel(ChannelId(ch));
        const MemControllerStats &m = ctrl.stats();
        t.portReads += m.demandReads.value();
        t.portWritebacks += m.acceptedWritebacks.value();
        t.eagerCalls += m.acceptedEager.value() + m.rejectedEager.value();
        t.eagerAccepted += m.acceptedEager.value();
        t.demandReads += m.demandReads.value();
        t.forwardedReads += m.forwardedReads.value();
        t.rowHitReads += m.rowHitReads.value();
        t.bankReads += m.rowHitReads.value() + m.rowMissReads.value();
        readLatencyTicks += m.readLatency.sum();
        readSamples += m.readLatency.count();
        t.writeAttempts += m.totalWriteIssues();
        t.completedWrites += m.completedDemandWrites.value() +
                             m.completedEagerWrites.value();
        t.slowWrites += m.issuedSlowWrites.value() +
                        m.issuedEagerSlow.value();
        if (const WearQuota *q = ctrl.wearQuota()) {
            for (unsigned b = 0; b < ctrl.numBanks(); ++b) {
                quotaSlowOnly =
                    std::max(quotaSlowOnly, q->slowOnlyPeriods(BankId(b)));
            }
        }
    }
    t.readLatencyTicks += readLatencyTicks;
    t.readLatencySamples += readSamples;
    t.quotaSlowOnlyPeriods += quotaSlowOnly;
    t.bankUtilSum += memory.avgBankUtilization();
    t.drainFracSum += memory.drainTimeFraction();
    t.logLifetimeSum += std::log(std::min(
        memory.lifetimeYears(core.finishTick()),
        c.maxReportedLifetimeYears));
    t.untracedSeconds += ref.seconds;
    t.untracedSecondsMax = std::max(t.untracedSecondsMax, ref.seconds);

    // --- Isolated layer drives ---------------------------------------
    const Tick meanReadLatency =
        readSamples > 0
            ? static_cast<Tick>(readLatencyTicks /
                                static_cast<double>(readSamples))
            : Tick(1);
    const std::vector<Op> warmup = warmupOps(c);
    driveWorkload(c, warmup.size(), t);
    driveCache(c.hierarchy, c.seed, warmup, workload.log(),
               std::max<Tick>(meanReadLatency, 1), t);
    driveNvm(memCfg, port.log(), t);
    return "";
}

namespace
{

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

std::vector<Metric>
layerMetrics(const LayerTotals &t, double workerBusyFrac)
{
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double kinstr = d(t.instructions) / 1000.0;
    const double memReqs =
        d(t.portReads + t.portWritebacks + t.eagerAccepted);
    const double sims = d(t.sims);

    std::vector<Metric> m = {
        {"sim.events_per_instr", ratio(d(t.events), d(t.instructions)),
         "1/instr"},
        {"sim.events_per_memreq", ratio(d(t.events), memReqs), "1/req"},
        {"sim.ns_per_event", ratio(t.detailedSeconds * 1e9, d(t.events)),
         "ns"},
        {"sim.scan_event_frac", ratio(d(t.scanEvents), d(t.events)),
         "frac"},
        {"sim.peak_pending_events", d(t.peakPending), "count"},

        {"workload.ops_per_kinstr", ratio(d(t.ops), kinstr), "1/kinstr"},
        {"workload.ns_per_op", ratio(t.driveOpSeconds * 1e9, d(t.driveOps)),
         "ns"},

        {"cpu.ipc", ratio(d(t.instructions), t.cycles), "instr/cycle"},
        {"cpu.rob_stalls_per_kinstr", ratio(d(t.robStalls), kinstr),
         "1/kinstr"},
        {"cpu.mshr_stalls_per_kinstr", ratio(d(t.mshrStalls), kinstr),
         "1/kinstr"},
        {"cpu.dep_stalls_per_kinstr", ratio(d(t.depStalls), kinstr),
         "1/kinstr"},

        {"cache.l1_hit_frac", ratio(d(t.l1Hits), d(t.accesses)), "frac"},
        {"cache.l2_hit_frac",
         ratio(d(t.l2Hits), d(t.accesses - t.l1Hits)), "frac"},
        {"cache.llc_hit_frac",
         ratio(d(t.llcHits), d(t.accesses - t.l1Hits - t.l2Hits)), "frac"},
        {"cache.llc_mpki", ratio(d(t.llcMisses), kinstr), "1/kinstr"},
        {"cache.mshr_merges_per_kinstr", ratio(d(t.mshrMerges), kinstr),
         "1/kinstr"},
        {"cache.blocked_per_kinstr", ratio(d(t.blocked), kinstr),
         "1/kinstr"},
        {"cache.eager_scans_per_kinstr", ratio(d(t.eagerScans), kinstr),
         "1/kinstr"},
        {"cache.eager_scan_yield", ratio(d(t.eagerSent), d(t.eagerScans)),
         "frac"},
        {"cache.eager_accept_frac",
         ratio(d(t.eagerAccepted), d(t.eagerCalls)), "frac"},
        {"cache.eager_useful_frac",
         t.eagerSent > 0 ? 1.0 - ratio(d(t.eagerWasted), d(t.eagerSent))
                         : 0.0,
         "frac"},
        {"cache.ns_per_access",
         ratio(t.driveAccessSeconds * 1e9, d(t.driveAccesses)), "ns"},
        {"cache.prime_ns_per_op", ratio(t.primeSeconds * 1e9, d(t.primeOps)),
         "ns"},

        {"nvm.port_ns_per_call", ratio(t.portSeconds * 1e9, d(t.portCalls)),
         "ns"},
        {"nvm.reads_per_kinstr", ratio(d(t.portReads), kinstr), "1/kinstr"},
        {"nvm.writebacks_per_kinstr", ratio(d(t.portWritebacks), kinstr),
         "1/kinstr"},
        {"nvm.eager_per_kinstr", ratio(d(t.eagerAccepted), kinstr),
         "1/kinstr"},
        {"nvm.row_hit_frac", ratio(d(t.rowHitReads), d(t.bankReads)),
         "frac"},
        {"nvm.forwarded_frac", ratio(d(t.forwardedReads), d(t.demandReads)),
         "frac"},
        {"nvm.read_latency_ns",
         ratio(t.readLatencyTicks, d(t.readLatencySamples)) /
             static_cast<double>(kNanosecond),
         "ns"},
        {"nvm.bank_util", ratio(t.bankUtilSum, sims), "frac"},
        {"nvm.drain_frac", ratio(t.drainFracSum, sims), "frac"},
        {"nvm.write_completion_frac",
         ratio(d(t.completedWrites), d(t.writeAttempts)), "frac"},
        {"nvm.ns_per_request",
         ratio(t.driveRequestSeconds * 1e9, d(t.driveRequests)), "ns"},
        {"nvm.events_per_request",
         ratio(d(t.driveEvents), d(t.driveRequests)), "1/req"},

        {"mellow.slow_write_frac", ratio(d(t.slowWrites), d(t.writeAttempts)),
         "frac"},
        {"mellow.quota_slow_only_periods",
         ratio(d(t.quotaSlowOnlyPeriods), sims), "count"},
        {"wear.lifetime_years",
         t.sims > 0 ? std::exp(t.logLifetimeSum / sims) : 0.0, "years"},

        {"system.warmup_s", t.warmupSeconds, "s"},
        {"system.sim_s_max", t.untracedSecondsMax, "s"},
        {"system.worker_busy_frac", workerBusyFrac, "frac"},
        {"system.trace_overhead",
         ratio(t.tracedSeconds, t.untracedSeconds) - 1.0, "frac"},
    };
    if (alloccounter::enabled()) {
        m.push_back({"sim.allocs_per_memreq", ratio(d(t.allocs), memReqs),
                     "1/req"});
    }
    return m;
}

} // namespace perfbench
