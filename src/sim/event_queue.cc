#include "sim/event_queue.hh"

namespace mellowsim
{

EventQueue::~EventQueue()
{
    // Destroy the callables still pending at teardown: one per heap
    // entry. Slots themselves die with _chunks.
    for (const Entry &e : _heap) {
        Slot &s = slotRef(slotOf(e.key));
        if (s.destroy != nullptr)
            s.destroy(s.storage);
    }
}

std::uint32_t
EventQueue::acquireSlot()
{
    if (_freeHead != kNoSlot) {
        std::uint32_t index = _freeHead;
        _freeHead = slotRef(index).nextFree;
        return index;
    }
    panic_if(_slotCount > kSlotMask,
             "event pool exceeds %llu concurrent events",
             static_cast<unsigned long long>(kSlotMask) + 1);
    if ((_slotCount & (kChunkSlots - 1)) == 0)
        _chunks.push_back(std::make_unique<Slot[]>(kChunkSlots));
    return _slotCount++;
}

void
EventQueue::fireTop()
{
    const Entry top = _heap.front();
    _heap.front() = _heap.back();
    _heap.pop_back();
    if (!_heap.empty())
        heapSiftDown(0);
    _curTick = top.when;

    // The entry is off the heap before the callable runs, so it may
    // schedule further events. The slot is released only after the
    // callable returns, so a reentrant schedule() cannot overwrite
    // the running callable.
    const std::uint32_t index = slotOf(top.key);
    Slot &s = slotRef(index);
    s.invoke(s.storage);
    if (s.destroy != nullptr)
        s.destroy(s.storage);
    s.nextFree = _freeHead;
    _freeHead = index;
}

void
EventQueue::refreshPinnedTop()
{
    _pinnedTop = nullptr;
    _pinnedTopAt = kDisarmed;
    if (_armedPinned == 0)
        return;
    for (PinnedEvent *event : _pinned) {
        if (key128(event->_at) < key128(_pinnedTopAt)) {
            _pinnedTop = event;
            _pinnedTopAt = event->_at;
        }
    }
}

void
EventQueue::firePinned()
{
    // Disarm before invoking so the action may re-arm its own event.
    PinnedEvent &event = *_pinnedTop;
    _curTick = _pinnedTopAt.when;
    event._at = kDisarmed;
    --_armedPinned;
    refreshPinnedTop();
    event._invoke(event._action);
}

void
EventQueue::unregisterPinned(PinnedEvent &event)
{
    if (event.scheduled())
        --_armedPinned;
    std::erase(_pinned, &event);
    refreshPinnedTop();
}

bool
EventQueue::step()
{
    if (pinnedFirst()) {
        firePinned();
        return true;
    }
    if (_heap.empty())
        return false;
    fireTop();
    return true;
}

std::uint64_t
EventQueue::run(Tick stopAt)
{
    // Bound every batched handler's horizon by stopAt for the span of
    // this call; restored on every exit path.
    struct StopGuard
    {
        Tick &slot;
        Tick saved;
        ~StopGuard() { slot = saved; }
    } guard{_stopAt, _stopAt};
    _stopAt = stopAt;

    std::uint64_t executed = 0;
    for (;;) {
        if (pinnedFirst()) {
            if (_pinnedTopAt.when >= stopAt) {
                _curTick = stopAt;
                break;
            }
            firePinned();
        } else if (!_heap.empty()) {
            if (_heap.front().when >= stopAt) {
                _curTick = stopAt;
                break;
            }
            fireTop();
        } else {
            if (stopAt != MaxTick && _curTick < stopAt)
                _curTick = stopAt;
            break;
        }
        ++executed;
    }
    return executed;
}

} // namespace mellowsim
