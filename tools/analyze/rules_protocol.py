"""The parallel-protocol rule family (atomic-order, handler-blocking),
driven by tools/analyze/protocol.toml.

These rules verify what the parallel sweep (runConfigs) and the event
kernel need from each other: raw atomics confined to the sync.hh
wrappers, and event handlers that never block. Like
confinement-global, every fact is computed lexically over the shared
IR file map (plus the frontend-built call graph), so both frontends
agree by construction.
"""

from __future__ import annotations

import re
from collections import defaultdict

from frontend_textual import strip_comments_and_strings
from model import (
    RULE_ATOMIC_ORDER,
    RULE_HANDLER_BLOCKING,
    Finding,
    Project,
)
from rules import _module_of

# --- Shared lexical helpers -----------------------------------------

#: `LockGuard guard(<mutex expr>);` acquisition sites (optionally
#: namespace-qualified, as in `sync::LockGuard`).
_GUARD_RE = re.compile(
    r"\b(?:sync\s*::\s*)?LockGuard\s+\w+\s*\(\s*([^()]+?)\s*\)")

#: Bare `<expr>.lock()` acquisition (the rare non-RAII site).
_BARE_LOCK_RE = re.compile(r"([A-Za-z_]\w*)\s*\.\s*lock\s*\(\s*\)")


def _cleaned(project: Project) -> dict[str, list[str]]:
    return {p: strip_comments_and_strings(ls)
            for p, ls in project.files.items()}


# --- Rule 6: atomics discipline (atomic-order) ----------------------

_RAW_ATOMIC_RE = re.compile(r"\bstd\s*::\s*(?:atomic\b|atomic_\w+|"
                            r"memory_order\w*)")


def check_atomic_order(project: Project, protocol: dict,
                       src_root: str = "src") -> list[Finding]:
    """Raw std::atomic / std::memory_order_* spellings are legal only
    inside the sanctioned wrapper files (src/sim/sync.hh), where each
    wrapper documents the ordering it relies on."""
    cfg = protocol.get("atomic_order", {})
    allowed = tuple(cfg.get("allowed_files", ["src/sim/sync.hh"]))
    cleaned = _cleaned(project)

    findings = []
    for path, clean in cleaned.items():
        if _module_of(path, src_root) is None:
            continue
        if allowed and path.endswith(allowed):
            continue
        for i, line in enumerate(clean):
            m = _RAW_ATOMIC_RE.search(line)
            if m:
                findings.append(Finding(
                    RULE_ATOMIC_ORDER, path, i + 1,
                    f"raw `{m.group(0)}` outside the sync.hh wrappers; "
                    f"use or extend the primitives in "
                    f"src/sim/sync.hh (protocol.toml [atomic_order])"))
    return findings


# --- Rule 7: non-blocking handlers (handler-blocking) --------------


def check_handler_blocking(project: Project, protocol: dict,
                           src_root: str = "src") -> list[Finding]:
    """No mutex acquisition or blocking rendezvous may be reachable
    from an EventQueue::schedule handler root: a handler that blocks
    stalls its simulation on another thread, and lock-based handler
    ordering is exactly the nondeterminism the kernel's (when, seq)
    total order exists to rule out."""
    cfg = protocol.get("handler_blocking", {})
    allowed_files = tuple(cfg.get("allowed_files", []))
    blocking_names = set(cfg.get("blocking_calls", []))
    cleaned = _cleaned(project)

    def file_allowed(path: str) -> bool:
        return path.endswith(allowed_files) if allowed_files else False

    by_simple: dict[str, list] = defaultdict(list)
    for func in project.functions:
        by_simple[func.name.split("::")[-1]].append(func)

    # Worklist from the schedule roots (same machinery as the
    # determinism rule).
    reachable = []
    seen: set[int] = set()
    work = [f for f in project.functions if f.is_schedule_root]
    while work:
        func = work.pop()
        if id(func) in seen:
            continue
        seen.add(id(func))
        if file_allowed(func.file):
            continue
        reachable.append(func)
        for callee, _line in func.calls:
            for target in by_simple.get(callee, []):
                if id(target) not in seen:
                    work.append(target)

    findings = []
    emitted: set[tuple[str, int]] = set()
    for func in reachable:
        clean = cleaned.get(func.file)
        if clean is None:
            continue
        label = ("an EventQueue::schedule callback"
                 if func.is_schedule_root else f"{func.name}()")
        sites = []
        for ln in range(func.start, min(func.end, len(clean)) + 1):
            text = clean[ln - 1]
            if _GUARD_RE.search(text):
                sites.append((ln, "LockGuard acquisition"))
            elif _BARE_LOCK_RE.search(text):
                sites.append((ln, "mutex .lock()"))
        for callee, ln in func.calls:
            if callee in blocking_names:
                sites.append((ln, f"blocking call `{callee}()`"))
        for ln, what in sites:
            key = (func.file, ln)
            if key in emitted:
                continue
            emitted.add(key)
            findings.append(Finding(
                RULE_HANDLER_BLOCKING, func.file, ln,
                f"{what} in {label}, which is reachable from an event "
                f"handler; handlers must never block "
                f"(protocol.toml [handler_blocking])"))
    return findings
