#include "nvm/queues.hh"

#include <algorithm>

namespace mellowsim
{

RequestQueue::RequestQueue(unsigned numBanks, unsigned capacity,
                           FlatCounter<std::uint64_t> *blockIndex)
    : _banks(numBanks), _blockIndex(blockIndex), _nonEmpty(numBanks),
      _frontArrival(numBanks, MaxTick), _capacity(capacity)
{
    fatal_if(numBanks == 0, "request queue needs >= 1 bank");
    fatal_if(capacity == 0, "request queue needs capacity >= 1");
}

unsigned
RequestQueue::countForBank(BankId bank) const
{
    return static_cast<unsigned>(_banks[bank].size());
}

ReqSlot
RequestQueue::allocSlot(MemRequest req)
{
    if (!_freeSlots.empty()) {
        ReqSlot slot = _freeSlots.back();
        _freeSlots.pop_back();
        _arena[slot] = std::move(req);
        return slot;
    }
    ReqSlot slot(static_cast<std::uint32_t>(_arena.size()));
    _arena.push_back(std::move(req));
    return slot;
}

void
RequestQueue::push(MemRequest req)
{
    RingDeque<ReqSlot> &fifo = _banks[req.loc.bank];
    BankId bank = req.loc.bank;
    if (_blockIndex != nullptr)
        _blockIndex->increment(blockNumber(req.addr));
    Tick arrival = req.arrival;
    fifo.push_back(allocSlot(std::move(req)));
    ++_size;
    if (fifo.size() == 1) {
        _nonEmpty.set(bank);
        _frontArrival[bank] = arrival;
    }
}

void
RequestQueue::pushFront(MemRequest req)
{
    RingDeque<ReqSlot> &fifo = _banks[req.loc.bank];
    BankId bank = req.loc.bank;
    if (_blockIndex != nullptr)
        _blockIndex->increment(blockNumber(req.addr));
    Tick arrival = req.arrival;
    fifo.push_front(allocSlot(std::move(req)));
    ++_size;
    _nonEmpty.set(bank);
    _frontArrival[bank] = arrival;
}

const MemRequest &
RequestQueue::front(BankId bank) const
{
    panic_if(_banks[bank].empty(), "front() on empty bank FIFO");
    return _arena[_banks[bank].front()];
}

MemRequest
RequestQueue::pop(BankId bank)
{
    RingDeque<ReqSlot> &fifo = _banks[bank];
    panic_if(fifo.empty(), "pop() on empty bank FIFO");
    ReqSlot slot = fifo.pop_front();
    MemRequest req = std::move(_arena[slot]);
    // The moved-from slot holds only trivially-copyable residue plus
    // the callback; clear the callback so no captured state outlives
    // the request (a full MemRequest reset would cost a construct +
    // destroy per pop for nothing).
    _arena[slot].onComplete = nullptr;
    _freeSlots.push_back(slot);
    if (_blockIndex != nullptr)
        _blockIndex->decrement(blockNumber(req.addr));
    --_size;
    if (fifo.empty()) {
        _nonEmpty.clear(bank);
        _frontArrival[bank] = MaxTick;
    } else {
        _frontArrival[bank] = _arena[fifo.front()].arrival;
    }
    return req;
}

Tick
RequestQueue::oldestArrival() const
{
    return *std::min_element(_frontArrival.begin(), _frontArrival.end());
}

} // namespace mellowsim
