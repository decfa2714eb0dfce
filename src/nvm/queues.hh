/**
 * @file
 * The controller's request queues with per-bank bookkeeping.
 *
 * Each of the read, write and eager queues is a set of per-bank FIFOs
 * with a shared size. Per-bank counts are what the Figure 9 decision
 * logic consumes. A queue may also count its requests' blocks into a
 * block index shared with other queues: the write and eager queues
 * share one, which read forwarding from pending writes consults.
 *
 * Data layout (see DESIGN.md "Performance architecture"): requests
 * are pooled in an IndexedVector arena behind typed ReqSlot indices
 * and recycled through a free list, so steady-state traffic allocates
 * nothing. The per-bank FIFOs are ring buffers of slot indices
 * (RingDeque), the block index is an open-addressing FlatCounter
 * keyed by block number, and the non-empty-bank set is an
 * incrementally maintained IndexMask the controller's scheduling pass
 * walks instead of probing every bank.
 */

#ifndef MELLOWSIM_NVM_QUEUES_HH
#define MELLOWSIM_NVM_QUEUES_HH

#include <cstdint>
#include <vector>

#include "nvm/request.hh"
#include "sim/flat_counter.hh"
#include "sim/index_mask.hh"
#include "sim/index_ring.hh"
#include "sim/indexed.hh"
#include "sim/logging.hh"

namespace mellowsim
{

namespace detail
{
struct ReqSlotTag
{
};
} // namespace detail

/** Typed index of a pooled request in a RequestQueue's arena. */
using ReqSlot = StrongOrdinal<detail::ReqSlotTag, std::uint32_t>;

/**
 * A bank-partitioned FIFO request queue.
 *
 * Capacity is advisory: full() reports when the configured size is
 * reached, but push() always succeeds. The controller enforces the
 * policy consequences (drain mode for the write queue, admission
 * control by the LLC for the eager queue, MSHR limits for reads).
 */
class RequestQueue
{
  public:
    /**
     * @param blockIndex  Counts every queued request's block number,
     *                    or null for no index. Not owned; it must
     *                    outlive the queue.
     */
    RequestQueue(unsigned numBanks, unsigned capacity,
                 FlatCounter<std::uint64_t> *blockIndex = nullptr);

    /** Total queued requests across banks. */
    [[nodiscard]] std::size_t size() const { return _size; }

    [[nodiscard]] bool empty() const { return _size == 0; }
    [[nodiscard]] bool full() const { return _size >= _capacity; }
    [[nodiscard]] unsigned capacity() const { return _capacity; }

    /** Queued requests for one bank. */
    [[nodiscard]] unsigned countForBank(BankId bank) const;

    /** Append a request to its bank FIFO. */
    void push(MemRequest req);

    /** Re-insert a request at the front of its bank FIFO (retry). */
    void pushFront(MemRequest req);

    /** Oldest request for a bank; bank FIFO must be non-empty. */
    [[nodiscard]] const MemRequest &front(BankId bank) const;

    /** Remove and return the oldest request for a bank. */
    MemRequest pop(BankId bank);

    /** Oldest front-of-FIFO arrival across banks (MaxTick if empty). */
    [[nodiscard]] Tick oldestArrival() const;

    /**
     * Banks with at least one queued request, maintained
     * incrementally. The controller unions these masks to visit only
     * banks that can have issueable work.
     */
    [[nodiscard]] const IndexMask<BankId> &
    nonEmptyBanks() const
    {
        return _nonEmpty;
    }

  private:
    /** Move @p req into a pooled slot (free list first). */
    ReqSlot allocSlot(MemRequest req);

    IndexedVector<ReqSlot, MemRequest> _arena;
    std::vector<ReqSlot> _freeSlots;
    IndexedVector<BankId, RingDeque<ReqSlot>> _banks;
    FlatCounter<std::uint64_t> *_blockIndex;
    IndexMask<BankId> _nonEmpty;
    /** Arrival of each bank's front request (MaxTick when empty). */
    IndexedVector<BankId, Tick> _frontArrival;
    std::size_t _size = 0;
    unsigned _capacity;
};

} // namespace mellowsim

#endif // MELLOWSIM_NVM_QUEUES_HH
