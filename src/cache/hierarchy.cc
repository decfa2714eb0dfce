#include "cache/hierarchy.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mellowsim
{

Hierarchy::Hierarchy(EventQueue &eventq, const HierarchyConfig &config,
                     MemoryPort &controller, std::uint64_t seed)
    : _eventq(eventq), _controller(controller), _l1(config.l1),
      _l2(config.l2), _llc(eventq, config.llc, controller, seed),
      _mshrs(config.llcMshrs), _waiters(config.llcMshrs)
{
    fatal_if(config.llcMshrs == 0, "hierarchy needs >= 1 MSHR");
    // Thread every pool node onto the free list.
    for (std::uint32_t i = 0; i + 1 < _waiters.size(); ++i)
        _waiters[i].next = i + 1;
    _freeWaiters = 0;
}

std::uint32_t
Hierarchy::takeWaiter(bool isWrite, Callback done)
{
    if (_freeWaiters == kNone) {
        _freeWaiters = static_cast<std::uint32_t>(_waiters.size());
        _waiters.emplace_back();
    }
    std::uint32_t idx = _freeWaiters;
    MshrWaiter &w = _waiters[idx];
    _freeWaiters = w.next;
    w.isWrite = isWrite;
    w.done = std::move(done);
    w.next = kNone;
    return idx;
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
    // Each fill leaves a line already present in place; a store
    // merged into the fill dirties the L1 copy either way.
    CacheVictim victim = _l2.fill(blockAddr, /*dirty=*/false);
    if (victim.valid && victim.dirty)
        writeIntoLlc(victim.blockAddr);
    victim = _l1.fill(blockAddr, dirtyInL1);
    if (victim.valid && victim.dirty)
        writeIntoL2(victim.blockAddr);
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
        CacheVictim victim = _l1.fill(block, isWrite);
        if (victim.valid && victim.dirty)
            writeIntoL2(victim.blockAddr);
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

    // LLC miss: merge into an outstanding MSHR if possible. The scan
    // stops once it has seen every entry in use and a free one.
    std::uint32_t free_entry = kNone;
    std::size_t in_use_seen = 0;
    for (std::uint32_t e = 0; e < _mshrs.size(); ++e) {
        Mshr &m = _mshrs[e];
        if (m.head == kNone) {
            if (free_entry == kNone)
                free_entry = e;
        } else if (m.block == block) {
            ++_stats.mshrMerges;
            std::uint32_t w = takeWaiter(isWrite, std::move(done));
            _waiters[m.tail].next = w;
            m.tail = w;
            return {AccessOutcome::Miss, 0};
        } else {
            ++in_use_seen;
        }
        if (in_use_seen == _mshrsInUse && free_entry != kNone)
            break;
    }
    if (free_entry == kNone) {
        ++_stats.blocked;
        _blockedEpisode = true;
        return {AccessOutcome::Blocked, 0};
    }

    ++_stats.llcMisses;
    ++_mshrsInUse;
    Mshr &m = _mshrs[free_entry];
    m.block = block;
    m.head = m.tail = takeWaiter(isWrite, std::move(done));

    // The memory read departs after the full lookup path.
    _eventq.scheduleIn(lookup, [this, block, free_entry] {
        _controller.read(block,
                         [this, free_entry] { onFill(free_entry); });
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
Hierarchy::prime(std::span<const PrimeOp> ops, PrimeScratch &scratch)
{
    _l1.prime(ops, /*withStores=*/true, scratch);
    _l2.prime(ops, /*withStores=*/false, scratch);
    _llc.prime(ops, scratch);
}

PrimeScratch
Hierarchy::primeScratch(std::size_t capacity) const
{
    std::uint64_t lines = 0;
    for (const SetAssocCache *level : {&_l1, &_l2, &_llc.array()})
        lines = std::max(lines, level->numSets() * level->assoc());
    return PrimeScratch(capacity, lines);
}

void
Hierarchy::onFill(std::uint32_t entry)
{
    Mshr &m = _mshrs[entry];
    panic_if(m.head == kNone, "fill for an unknown MSHR");
    LogicalAddr block = m.block;
    std::uint32_t first = m.head;
    // Free the entry before anything runs, so a waiter's callback
    // that misses again can take it.
    m.head = m.tail = kNone;
    --_mshrsInUse;

    bool any_store = false;
    for (std::uint32_t w = first; w != kNone; w = _waiters[w].next)
        any_store = any_store || _waiters[w].isWrite;

    _llc.fillFromMemory(block);
    fillUpper(block, any_store);

    // Waiters fire in arrival order. Each node returns to the pool
    // before its callback runs; the callback may take nodes (and grow
    // the pool), but never the ones still queued behind it.
    for (std::uint32_t w = first; w != kNone;) {
        MshrWaiter &waiter = _waiters[w];
        std::uint32_t next = waiter.next;
        Callback done = std::move(waiter.done);
        waiter.done = nullptr;
        waiter.next = _freeWaiters;
        _freeWaiters = w;
        if (done)
            done();
        w = next;
    }

    if (_blockedEpisode) {
        _blockedEpisode = false;
        if (_retryCb)
            _retryCb();
    }
}

} // namespace mellowsim
