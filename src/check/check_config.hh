/**
 * @file
 * Configuration of the runtime invariant-checking layer.
 *
 * The checkers (src/check/checkers.hh) are compiled into every build.
 * CheckConfig::enabled decides per simulation whether the System
 * wires them in: with it off (the default) the System builds no
 * registry and schedules no audit events.
 */

#ifndef MELLOWSIM_CHECK_CHECK_CONFIG_HH
#define MELLOWSIM_CHECK_CHECK_CONFIG_HH

#include "sim/types.hh"

namespace mellowsim
{

/** Runtime knobs of the invariant-checking layer. */
struct CheckConfig
{
    /**
     * Master switch, off by default so library users, benches and
     * examples never audit unless they ask. The tests and the golden
     * gate (tools/determinism_check) turn it on.
     */
    bool enabled = false;

    /**
     * Strict mode: an audit that finds violations reports every one
     * of them via warn() and then panics (PanicError), aborting the
     * simulation. With strict off, violations are reported and
     * counted but the run continues.
     */
    bool strict = true;

    /**
     * Interval between periodic audits in ticks. Zero disables the
     * periodic sweep, leaving only the end-of-simulation audit.
     */
    // mlint: allow(timing-literal): audit cadence is simulator
    // infrastructure, not a device timing
    Tick interval = 100 * kMicrosecond;
};

} // namespace mellowsim

#endif // MELLOWSIM_CHECK_CHECK_CONFIG_HH
