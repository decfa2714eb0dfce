"""The one rule registry of mellow-analyze: rule id -> checker and the
description SARIF publishes.

Every checker is ``check(project, manifest)`` over the Project IR and
the parsed rules.toml, returning ``(file, line, message)`` hits. The
ids are the names `// mlint: allow(<id>)` suppressions, rules.toml
tables, `--only-rule`/`--disable` and `// analyze-expect:` use.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import rules
import rules_lexical
import rules_protocol


class Rule(NamedTuple):
    check: Callable
    description: str


RULES: dict[str, Rule] = {
    "value-escape": Rule(
        rules.check_value_escape,
        "`.value()` on a strong type outside the whitelisted conversion "
        "sites escapes the typed address/unit domain."),
    "layering": Rule(
        rules.check_layering,
        "Include or symbol reference crossing module layers outside the "
        "rules.toml [layering] manifest."),
    "nondeterminism": Rule(
        rules.check_nondeterminism,
        "Raw RNG, wall clock or unordered iteration anywhere; I/O, "
        "environment reads and other nondeterministic APIs reachable "
        "from an EventQueue::schedule callback."),
    "request-lifetime": Rule(
        rules.check_request_lifetime,
        "A request object is read after ownership was handed to a "
        "queue."),
    "confinement-global": Rule(
        rules.check_confinement_global,
        "Mutable static-storage state that is not std::atomic, a "
        "sync.hh type, thread_local or const races under the parallel "
        "sweep."),
    "raw-sync": Rule(
        rules_protocol.check_raw_sync,
        "A raw standard-library thread, lock, rendezvous or atomic "
        "spelling outside the sync.hh wrapper home."),
    "handler-blocking": Rule(
        rules_protocol.check_handler_blocking,
        "A mutex acquisition or blocking call reachable from an "
        "EventQueue::schedule handler; a blocking handler stalls its "
        "simulation on another thread."),
    "raw-addr-param": Rule(
        rules_lexical.check_raw_addr_param,
        "A raw integer parameter with an address-space or time name in "
        "a converted header; use the strong types or Tick."),
    "missing-nodiscard": Rule(
        rules_lexical.check_missing_nodiscard,
        "A const accessor in a converted header without "
        "[[nodiscard]]."),
    "schedule-literal": Rule(
        rules_lexical.check_schedule_literal,
        "schedule() with an absolute literal tick instead of a time "
        "relative to now."),
    "timing-literal": Rule(
        rules_lexical.check_timing_literal,
        "A literal scaled by a tick constant outside the sanctioned "
        "homes of compiled-in timings."),
}
