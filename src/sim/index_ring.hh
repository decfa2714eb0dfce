/**
 * @file
 * Ring-buffer double-ended FIFO for trivially-copyable elements.
 *
 * Replaces std::deque on the per-bank request FIFOs: one contiguous
 * power-of-two buffer, head/size cursors, O(1) push_back/push_front/
 * pop_front and no steady-state allocation — the buffer doubles on
 * overflow and is then reused forever. std::deque, by contrast,
 * allocates and frees its segment blocks continuously as elements
 * flow through.
 */

#ifndef MELLOWSIM_SIM_INDEX_RING_HH
#define MELLOWSIM_SIM_INDEX_RING_HH

#include <cstddef>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"

namespace mellowsim
{

/** Bounded-growth ring deque; T must be trivially copyable. */
template <typename T>
class RingDeque
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    explicit RingDeque(std::size_t initialCapacity = 8)
    {
        std::size_t cap = 4;
        while (cap < initialCapacity)
            cap <<= 1;
        _buf.resize(cap);
    }

    [[nodiscard]] std::size_t size() const { return _size; }
    [[nodiscard]] bool empty() const { return _size == 0; }

    [[nodiscard]] const T &
    front() const
    {
        panic_if(_size == 0, "front() on empty ring");
        return _buf[_head];
    }

    /** Element @p i positions behind the front (0 = front). */
    [[nodiscard]] const T &
    at(std::size_t i) const
    {
        panic_if(i >= _size, "ring index %zu out of range (size %zu)",
                 i, _size);
        return _buf[(_head + i) & (_buf.size() - 1)];
    }

    [[nodiscard]] T &
    at(std::size_t i)
    {
        panic_if(i >= _size, "ring index %zu out of range (size %zu)",
                 i, _size);
        return _buf[(_head + i) & (_buf.size() - 1)];
    }

    void
    push_back(T value)
    {
        if (_size == _buf.size())
            grow();
        _buf[(_head + _size) & (_buf.size() - 1)] = value;
        ++_size;
    }

    void
    push_front(T value)
    {
        if (_size == _buf.size())
            grow();
        _head = (_head + _buf.size() - 1) & (_buf.size() - 1);
        _buf[_head] = value;
        ++_size;
    }

    T
    pop_front()
    {
        panic_if(_size == 0, "pop_front() on empty ring");
        T value = _buf[_head];
        _head = (_head + 1) & (_buf.size() - 1);
        --_size;
        return value;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(_buf.size() * 2);
        for (std::size_t i = 0; i < _size; ++i)
            bigger[i] = _buf[(_head + i) & (_buf.size() - 1)];
        _buf = std::move(bigger);
        _head = 0;
    }

    std::vector<T> _buf;
    std::size_t _head = 0;
    std::size_t _size = 0;
};

} // namespace mellowsim

#endif // MELLOWSIM_SIM_INDEX_RING_HH
