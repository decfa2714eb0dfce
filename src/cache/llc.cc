#include "cache/llc.hh"

#include <bit>

#include "sim/logging.hh"

namespace mellowsim
{

Llc::Llc(EventQueue &eventq, const LlcConfig &config,
         MemoryPort &controller, std::uint64_t seed)
    : _eventq(eventq), _config(config), _controller(controller),
      _array(config.cache),
      _profiler([&config] {
          EagerProfilerConfig p = config.profiler;
          p.assoc = config.cache.assoc;
          return p;
      }()),
      _rng(seed ^ 0x11CC11CCull), _cumHits(config.cache.assoc, 0),
      _scan(eventq, [this] { onScan(); })
{
    _eventq.scheduleIn(_profiler.config().samplePeriod,
                       [this] { onSamplePeriod(); });
    if (_config.eagerEnabled) {
        fatal_if(_config.scanInterval == 0,
                 "eager scan interval must be positive");
        _scan.schedule(_eventq.curTick() + _config.scanInterval);
    }
}

void
Llc::onSamplePeriod()
{
    _profiler.onSamplePeriod();
    ++_period;
    _eventq.scheduleIn(_profiler.config().samplePeriod,
                       [this] { onSamplePeriod(); });
}

CacheAccessResult
Llc::access(LogicalAddr addr, bool isWrite)
{
    if (isWrite)
        ++_stats.demandWrites;
    else
        ++_stats.demandReads;

    CacheAccessResult res =
        _array.access(addr, isWrite, /*updateLru=*/true, _period);
    if (res.hit) {
        ++_stats.hits;
        _profiler.notifyHit(res.lruPos);
        ++_cumHits[res.lruPos];
        if (isWrite && _array.lastWriteWastedEager())
            ++_stats.eagerWasted;
    } else {
        ++_stats.misses;
        _profiler.notifyMiss();
    }
    return res;
}

void
Llc::handleVictim(const CacheVictim &victim)
{
    if (!victim.valid)
        return;
    if (victim.dirty) {
        ++_stats.writebacksToMem;
        _controller.writeback(victim.blockAddr);
    } else {
        ++_stats.cleanEvictions;
    }
}

void
Llc::writebackFromUpper(LogicalAddr addr)
{
    ++_stats.demandWrites;
    CacheAccessResult res = _array.access(addr, /*isWrite=*/true,
                                          /*updateLru=*/false, _period);
    if (res.hit) {
        ++_stats.hits;
        _profiler.notifyHit(res.lruPos);
        ++_cumHits[res.lruPos];
        if (_array.lastWriteWastedEager())
            ++_stats.eagerWasted;
        return;
    }
    ++_stats.misses;
    _profiler.notifyMiss();
    // Write-allocate the full-line write back.
    handleVictim(_array.insert(addr, /*dirty=*/true, _period));
}

void
Llc::fillFromMemory(LogicalAddr addr)
{
    // A concurrent upper-level write back may have raced the fill in;
    // then the line is present and nothing is evicted.
    handleVictim(_array.fill(addr, /*dirty=*/false, _period));
}

void
Llc::prime(LogicalAddr addr, bool dirty)
{
    _array.prime(addr, dirty);
}

void
Llc::prime(std::span<const PrimeOp> ops, PrimeScratch &scratch)
{
    _array.prime(ops, /*withStores=*/true, scratch);
}

int
Llc::eagerCandidate(std::uint64_t setIdx) const
{
    std::uint64_t dirty = _array.dirtyMask(setIdx);
    if (_config.selector == EagerSelector::UselessLru) {
        // Dirty lines in useless positions; the highest is the one
        // nearest the LRU end.
        std::uint64_t useless = dirty >> _profiler.uselessFrom()
                                      << _profiler.uselessFrom();
        return useless != 0 ? std::bit_width(useless) - 1 : -1;
    }
    // DecayDeadBlock: from the LRU end, the first dirty line untouched
    // for deadAfterPeriods whole periods.
    while (dirty != 0) {
        const int pos = std::bit_width(dirty) - 1;
        const std::uint32_t stamp =
            _array.line(setIdx, static_cast<unsigned>(pos)).touchStamp;
        if (_period >= stamp &&
            _period - stamp >= _config.deadAfterPeriods) {
            return pos;
        }
        dirty &= ~(std::uint64_t{1} << pos);
    }
    return -1;
}

void
Llc::onScan()
{
    // One firing covers every grid tick now, now + interval, ... below
    // the queue's horizon: no other event fires before it, so queue
    // space, the useless boundary and the array are constant over
    // those ticks (DESIGN.md "Eager scan").
    const Tick now = _eventq.curTick();
    const Tick interval = _config.scanInterval;
    const Tick horizon = _eventq.horizon();
    const std::uint64_t ticks =
        horizon > now ? (horizon - now - 1) / interval + 1 : 1;
    auto rearm = [this](Tick when) { _scan.schedule(when); };

    if (!_controller.eagerQueueHasSpace()) {
        rearm(now + ticks * interval);
        return;
    }
    if (_config.selector == EagerSelector::UselessLru &&
        _profiler.uselessFrom() >= _array.assoc()) {
        _stats.eagerScans += ticks; // nothing is useless this period
        rearm(now + ticks * interval);
        return;
    }

    for (std::uint64_t k = 0; k < ticks; ++k) {
        ++_stats.eagerScans;
        std::uint64_t set_idx = _rng.nextBounded(_array.numSets());
        int pos = eagerCandidate(set_idx);
        if (pos < 0)
            continue;
        const Tick at = now + k * interval;
        if (at != now)
            _eventq.advanceTo(at);
        // Re-arm before sending, as a per-tick handler would, so the
        // next scan keeps its place in (when, seq) order.
        rearm(at + interval);
        LogicalAddr victim =
            _array.line(set_idx, static_cast<unsigned>(pos)).blockAddr;
        if (_controller.eagerWrite(victim)) {
            _array.cleanLineForEagerWrite(victim);
            ++_stats.eagerSent;
        }
        return;
    }
    rearm(now + ticks * interval);
}

} // namespace mellowsim
