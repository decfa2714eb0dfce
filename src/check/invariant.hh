/**
 * @file
 * The invariant-checker interface.
 *
 * A checker audits one cross-module contract of the simulator (request
 * conservation, bank state legality, wear bookkeeping, ...). Checkers
 * are passive: they read component state through const references and
 * report anything inconsistent into a ViolationSink. The
 * InvariantRegistry (registry.hh) owns the checkers and decides when
 * to audit and how to escalate.
 *
 * Concrete checkers follow a capture/evaluate split: a Snapshot struct
 * gathers the counters under audit, and a static evaluate() derives
 * violations from the snapshot alone. Tests inject violations by
 * hand-building snapshots (e.g. a double-completed request), so the
 * detection logic is testable without corrupting a live simulation.
 */

#ifndef MELLOWSIM_CHECK_INVARIANT_HH
#define MELLOWSIM_CHECK_INVARIANT_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace mellowsim
{

/** One detected invariant violation, with full reporting context. */
struct Violation
{
    std::string checker; ///< name of the checker that found it
    Tick tick = 0;       ///< simulation time of the audit
    std::string message; ///< what is inconsistent, with the numbers

    /** Render as a single human-readable line. */
    [[nodiscard]] std::string
    format() const
    {
        return "[" + checker + "] tick " + std::to_string(tick) + ": " +
               message;
    }
};

/**
 * Collects violations on behalf of one checker during one audit pass,
 * stamping each with the checker's name and the audit tick.
 */
class ViolationSink
{
  public:
    ViolationSink(std::string checker, Tick now,
                  std::vector<Violation> &out)
        : _checker(std::move(checker)), _now(now), _out(out)
    {
    }

    /** Report a violation. */
    void
    add(std::string message)
    {
        _out.push_back(Violation{_checker, _now, std::move(message)});
    }

    /** Violations recorded by any checker in this pass so far. */
    [[nodiscard]] std::size_t total() const { return _out.size(); }

  private:
    std::string _checker;
    Tick _now;
    std::vector<Violation> &_out;
};

/** Interface of one auditable invariant. */
class InvariantChecker
{
  public:
    virtual ~InvariantChecker() = default;

    /** Stable name used in violation reports, e.g. "bank-state". */
    [[nodiscard]] virtual std::string name() const = 0;

    /**
     * Audit the invariant at simulation time @p now, reporting every
     * inconsistency into @p sink. Must not mutate simulation state.
     */
    virtual void check(Tick now, ViolationSink &sink) = 0;
};

} // namespace mellowsim

#endif // MELLOWSIM_CHECK_INVARIANT_HH
