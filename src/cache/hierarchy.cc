#include "cache/hierarchy.hh"

#include "sim/logging.hh"

namespace mellowsim
{

Hierarchy::Hierarchy(EventQueue &eventq, const HierarchyConfig &config,
                     MemoryPort &controller, std::uint64_t seed)
    : _eventq(eventq), _config(config), _controller(controller),
      _l1(config.l1), _l2(config.l2),
      _llc(eventq, config.llc, controller, seed)
{
    fatal_if(config.llcMshrs == 0, "hierarchy needs >= 1 MSHR");
}

void
Hierarchy::writeIntoLlc(LogicalAddr blockAddr)
{
    _llc.writebackFromUpper(blockAddr);
}

void
Hierarchy::writeIntoL2(LogicalAddr blockAddr)
{
    CacheAccessResult res =
        _l2.access(blockAddr, /*isWrite=*/true, /*updateLru=*/false);
    if (res.hit)
        return;
    CacheVictim victim = _l2.insert(blockAddr, /*dirty=*/true);
    if (victim.valid && victim.dirty)
        writeIntoLlc(victim.blockAddr);
}

void
Hierarchy::fillUpper(LogicalAddr blockAddr, bool dirtyInL1)
{
    if (!_l2.probe(blockAddr)) {
        CacheVictim victim = _l2.insert(blockAddr, /*dirty=*/false);
        if (victim.valid && victim.dirty)
            writeIntoLlc(victim.blockAddr);
    }
    if (!_l1.probe(blockAddr)) {
        CacheVictim victim = _l1.insert(blockAddr, dirtyInL1);
        if (victim.valid && victim.dirty)
            writeIntoL2(victim.blockAddr);
    } else if (dirtyInL1) {
        _l1.access(blockAddr, /*isWrite=*/true, /*updateLru=*/false);
    }
}

AccessTicket
Hierarchy::access(LogicalAddr addr, bool isWrite, Callback done)
{
    ++_stats.accesses;
    LogicalAddr block = blockAlign(addr);

    // L1.
    CacheAccessResult l1_res = _l1.access(block, isWrite);
    if (l1_res.hit) {
        ++_stats.l1Hits;
        return {AccessOutcome::Hit, _l1.hitLatency()};
    }

    // L2 (read for the fill; a store dirties the L1 copy only).
    CacheAccessResult l2_res = _l2.access(block, /*isWrite=*/false);
    if (l2_res.hit) {
        ++_stats.l2Hits;
        // Move the line up into L1.
        if (!_l1.probe(block)) {
            CacheVictim victim = _l1.insert(block, isWrite);
            if (victim.valid && victim.dirty)
                writeIntoL2(victim.blockAddr);
        }
        return {AccessOutcome::Hit,
                _l1.hitLatency() + _l2.hitLatency()};
    }

    // LLC.
    Tick lookup = _l1.hitLatency() + _l2.hitLatency() +
                  _llc.config().cache.hitLatency;
    CacheAccessResult llc_res = _llc.access(block, /*isWrite=*/false);
    if (llc_res.hit) {
        ++_stats.llcHits;
        fillUpper(block, isWrite);
        return {AccessOutcome::Hit, lookup};
    }

    // LLC miss: merge into an outstanding MSHR if possible.
    auto it = _mshrs.find(block);
    if (it != _mshrs.end()) {
        ++_stats.mshrMerges;
        it->second.push_back({isWrite, std::move(done)});
        return {AccessOutcome::Miss, 0};
    }
    if (_mshrs.size() >= _config.llcMshrs) {
        ++_stats.blocked;
        _blockedEpisode = true;
        return {AccessOutcome::Blocked, 0};
    }

    ++_stats.llcMisses;
    _mshrs.emplace(block,
                   std::vector<MshrWaiter>{{isWrite, std::move(done)}});

    // The memory read departs after the full lookup path.
    _eventq.scheduleIn(lookup, [this, block] {
        _controller.read(block, [this, block] { onFill(block); });
    });
    return {AccessOutcome::Miss, 0};
}

void
Hierarchy::prime(LogicalAddr addr, bool isWrite)
{
    LogicalAddr block = blockAlign(addr);
    _l1.prime(block, isWrite);
    _l2.prime(block, false);
    _llc.prime(block, isWrite);
}

void
Hierarchy::onFill(LogicalAddr blockAddr)
{
    auto it = _mshrs.find(blockAddr);
    panic_if(it == _mshrs.end(), "fill for an unknown MSHR");
    std::vector<MshrWaiter> waiters = std::move(it->second);
    _mshrs.erase(it);

    bool any_store = false;
    for (const MshrWaiter &w : waiters)
        any_store = any_store || w.isWrite;

    _llc.fillFromMemory(blockAddr);
    fillUpper(blockAddr, any_store);

    for (MshrWaiter &w : waiters) {
        if (w.done)
            w.done();
    }

    if (_blockedEpisode) {
        _blockedEpisode = false;
        if (_retryCb)
            _retryCb();
    }
}

} // namespace mellowsim
