#include "system/system.hh"

#include <cmath>

#include "check/install.hh"
#include "check/registry.hh"
#include "sim/logging.hh"

namespace mellowsim
{

System::System(const SystemConfig &config)
    : System(config, makeWorkload(config.workloadName, config.seed))
{
}

System::System(const SystemConfig &config, WorkloadPtr workload)
    : _config(config), _workload(std::move(workload))
{
    fatal_if(_workload == nullptr, "system needs a workload");
    build();
}

System::~System() = default;

void
System::build()
{
    // Propagate the write policy into the controller and the eager
    // machinery into the LLC.
    _config.memory.policy = _config.policy;
    _config.hierarchy.llc.eagerEnabled = _config.policy.eager;
    // Mix the run seed into the fault draws so different-seed runs see
    // different weak lines (while same-seed runs replay exactly).
    _config.memory.fault.seed ^= _config.seed * 0x2545F4914F6CDD1Dull;

    MemorySystemConfig mem_cfg;
    mem_cfg.numChannels = _config.numChannels;
    mem_cfg.channel = _config.memory;
    _memory = std::make_unique<MemorySystem>(_eventq, mem_cfg);
    _hierarchy = std::make_unique<Hierarchy>(
        _eventq, _config.hierarchy, *_memory, _config.seed);
    _core = std::make_unique<TraceCore>(_eventq, _config.core,
                                        *_workload, *_hierarchy);

    if (_config.checks.enabled) {
        _checks = std::make_unique<InvariantRegistry>(_config.checks);
        installStandardCheckers(*_checks, _eventq, *_memory);
        _checks->schedulePeriodic(_eventq);
    }
}

SimReport
System::run()
{
    panic_if(_ran, "System::run() called twice");
    _ran = true;

    // Functional warm-up from the front of the workload stream, in
    // batches that the hierarchy primes level by level, each level
    // backwards from the batch's newest op where that pays. The batch
    // size is fixed here, not by the warm-up length: 2^17 packed ops
    // are 1 MB. The batch and the walk's state are freed before the
    // detailed phase.
    {
        constexpr std::size_t kBatchOps = std::size_t{1} << 17;
        PrimeScratch warm = _hierarchy->primeScratch(kBatchOps);
        std::uint64_t warm_instrs = 0;
        while (warm_instrs < _config.warmupInstructions) {
            warm.clear();
            while (!warm.full() &&
                   warm_instrs < _config.warmupInstructions) {
                Op op = _workload->next();
                warm_instrs += op.gap + 1;
                // A workload op enters the logical address space here.
                warm.push(LogicalAddr(op.addr), op.isWrite);
            }
            _hierarchy->prime(warm.ops(), warm);
        }
    }

    _core->start(_config.instructions);
    // End-of-life: once fault injection has killed enough lines to
    // reach the configured capacity floor, stop the run gracefully
    // and report what was measured — never assert or abort on a
    // memory that wore out. Checked after every event, so the stop
    // point is the event that crossed the floor, whatever span of
    // ticks an event covers; with no floor configured it is never
    // polled.
    const bool poll_floor = _memory->hasCapacityFloor();
    bool capacity_exhausted = false;
    while (!_core->done()) {
        if (!_eventq.step())
            break;
        if (poll_floor && _memory->capacityFloorReached()) {
            capacity_exhausted = true;
            break;
        }
        if (_eventq.curTick() > _config.maxSimTicks) {
            fatal("simulation exceeded the %f s safety wall",
                  ticksToSeconds(_config.maxSimTicks));
        }
    }
    panic_if(!_core->done() && !capacity_exhausted,
             "event queue drained before the core finished");
    _memory->finalize();
    if (_checks != nullptr)
        _checks->finalAudit(_eventq.curTick());

    // Assemble the report.
    SimReport r;
    r.workload = _workload->info().name;
    r.policy = _config.policy.name;
    r.status = capacity_exhausted ? ReportStatus::CapacityExhausted
                                  : ReportStatus::Ok;
    r.instructions = _core->stats().instructions;
    if (capacity_exhausted) {
        // The core never finished; measure IPC over the instructions
        // it retired up to the wall clock of the last event.
        // stats().instructions is only finalised at completion, so
        // read the live dispatch count instead.
        r.instructions = _core->instructionsDispatched();
        r.simTicks = _eventq.curTick();
        if (r.simTicks > 0) {
            double cycles =
                static_cast<double>(r.simTicks) /
                static_cast<double>(_config.core.clockPeriod);
            r.ipc = static_cast<double>(r.instructions) / cycles;
        }
    } else {
        r.simTicks = _core->finishTick();
        r.ipc = _core->ipc();
    }

    r.lifetimeYears = std::min(_memory->lifetimeYears(r.simTicks),
                               _config.maxReportedLifetimeYears);
    r.avgBankUtilization = _memory->avgBankUtilization();
    r.drainTimeFraction = _memory->drainTimeFraction();

    const HierarchyStats &h = _hierarchy->stats();
    r.mpki = r.instructions
                 ? 1000.0 * static_cast<double>(h.llcMisses.value()) /
                       static_cast<double>(r.instructions)
                 : 0.0;

    const LlcStats &llc = _hierarchy->llc().stats();
    r.llcDemandReads = llc.demandReads.value();
    r.llcDemandWrites = llc.demandWrites.value();
    r.llcMisses = llc.misses.value();
    r.writebacksToMem = llc.writebacksToMem.value();
    r.eagerSent = llc.eagerSent.value();
    r.eagerWasted = llc.eagerWasted.value();

    double lat_weighted = 0.0;
    std::uint64_t lat_samples = 0;
    for (unsigned c = 0; c < _memory->numChannels(); ++c) {
        const MemoryController &ctrl = _memory->channel(ChannelId(c));
        const MemControllerStats &m = ctrl.stats();
        r.memReads += m.issuedReads.value();
        r.forwardedReads += m.forwardedReads.value();
        r.issuedNormalWrites += m.issuedNormalWrites.value();
        r.issuedSlowWrites += m.issuedSlowWrites.value();
        r.issuedEagerNormal += m.issuedEagerNormal.value();
        r.issuedEagerSlow += m.issuedEagerSlow.value();
        r.cancelledWrites += m.cancelledWrites.value();
        r.pausedWrites += m.pausedWrites.value();
        r.drainEntries += m.drainEntries.value();
        lat_weighted += m.readLatency.sum();
        lat_samples += m.readLatency.count();

        const EnergyStats &e = ctrl.energyModel().stats();
        r.readEnergyPj += e.readPj;
        r.writeEnergyPj += e.writePj;
        r.totalEnergyPj += e.totalPj();

        if (const WearQuota *q = ctrl.wearQuota()) {
            r.quotaPeriods = std::max(r.quotaPeriods, q->numPeriods());
            for (unsigned b = 0;
                 b < ctrl.config().geometry.numBanks; ++b) {
                r.quotaSlowOnlyPeriods =
                    std::max(r.quotaSlowOnlyPeriods,
                             q->slowOnlyPeriods(BankId(b)));
            }
        }

        r.writeRetries += m.retriedWrites.value();
        if (const FaultModel *fm = ctrl.faultModel()) {
            const FaultStats &fs = fm->stats();
            r.transientWriteFailures += fs.transientFailures;
            r.permanentFaults += fs.permanentFaults;
            r.faultRepairsUsed += fs.repairsUsed;
            r.retiredLines += fs.retiredLines;
            r.deadLines += fs.deadLines;
            // Earliest event over channels (0 means never happened).
            auto earliest = [](Tick acc, Tick t) {
                return t != 0 && (acc == 0 || t < acc) ? t : acc;
            };
            r.firstFaultTick =
                earliest(r.firstFaultTick, fs.firstFaultTick);
            r.firstUncorrectableTick = earliest(
                r.firstUncorrectableTick, fs.firstUncorrectableTick);
            r.effectiveCapacityFraction =
                std::min(r.effectiveCapacityFraction,
                         fm->effectiveCapacityFraction());
        }
    }
    if (lat_samples > 0) {
        r.avgReadLatencyNs = lat_weighted /
                             static_cast<double>(lat_samples) /
                             kNanosecond;
    }
    return r;
}

SimReport
runSystem(const SystemConfig &config)
{
    System sys(config);
    return sys.run();
}

} // namespace mellowsim
