/**
 * @file
 * Containers indexed by strong ordinal types.
 *
 * Per-bank and per-channel state used to live in bare std::vectors,
 * which forced every access through `vec[id.value()]` — an escape from
 * the typed address-space domain (strong_types.hh) repeated at dozens
 * of call sites, each with its own hand-written bounds panic.
 * IndexedVector keeps the id typed all the way to the subscript: the
 * container is keyed by the id type itself, bounds are checked in one
 * place, and a BankId can no longer subscript a channel table.
 *
 * Together with strong_types.hh this file is type infrastructure: the
 * single `.value()` call below is the sanctioned interior of the
 * typed-index bridge, whitelisted in tools/analyze/rules.toml and
 * audited by the `value-escape` rule of tools/analyze/mellow_analyze.py.
 */

#ifndef MELLOWSIM_SIM_INDEXED_HH
#define MELLOWSIM_SIM_INDEXED_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/strong_types.hh"

namespace mellowsim
{

/**
 * A std::vector subscripted by a strong ordinal id instead of a raw
 * integer. Iteration (begin/end) runs in index order, so range-for
 * over an IndexedVector is deterministic by construction.
 */
template <typename Id, typename T>
class IndexedVector
{
  public:
    using id_type = Id;
    using value_type = T;

    IndexedVector() = default;
    explicit IndexedVector(std::size_t count) : _v(count) {}
    IndexedVector(std::size_t count, const T &init) : _v(count, init) {}

    [[nodiscard]] std::size_t size() const { return _v.size(); }
    [[nodiscard]] bool empty() const { return _v.empty(); }

    /** Typed subscript; panics when @p id is out of range. */
    [[nodiscard]] T &
    operator[](Id id)
    {
        return _v[checkedIndex(id)];
    }

    [[nodiscard]] const T &
    operator[](Id id) const
    {
        return _v[checkedIndex(id)];
    }

    void assign(std::size_t count, const T &init) { _v.assign(count, init); }
    void push_back(T value) { _v.push_back(std::move(value)); }

    // Index-ordered (deterministic) iteration over the values.
    [[nodiscard]] auto begin() { return _v.begin(); }
    [[nodiscard]] auto end() { return _v.end(); }
    [[nodiscard]] auto begin() const { return _v.begin(); }
    [[nodiscard]] auto end() const { return _v.end(); }

  private:
    [[nodiscard]] std::size_t
    checkedIndex(Id id) const
    {
        // mlint: allow(value-escape): the typed-index container is the
        // one sanctioned bridge from an ordinal id to a raw subscript.
        auto raw = static_cast<std::size_t>(id.value());
        panic_if(raw >= _v.size(),
                 "index %zu out of range (size %zu)", raw, _v.size());
        return raw;
    }

    std::vector<T> _v;
};

} // namespace mellowsim

#endif // MELLOWSIM_SIM_INDEXED_HH
