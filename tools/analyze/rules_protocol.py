"""The parallel-protocol rule family (raw-sync, handler-blocking).

These rules verify what the parallel sweep (runConfigs) and the event
kernel need from each other: raw synchronization primitives and
atomics confined to the sync.hh wrappers, and event handlers that
never block. Like confinement-global, every fact is computed lexically
over Project.cleaned (plus the frontend-built call graph).
"""

from __future__ import annotations

import re

from model import Project
from rules import Hit, handler_label, handler_reachable

# --- raw-sync --------------------------------------------------------

#: Raw standard-library synchronization: the thread / lock / rendezvous
#: primitives and every std::atomic / std::memory_order spelling.
_RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(?:atomic\b|atomic_\w+|memory_order\w*|"
    r"mutex|recursive_mutex|timed_mutex|shared_mutex|"
    r"thread|jthread|lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(?:_any)?|"
    r"counting_semaphore|binary_semaphore|latch|barrier)\b")


def check_raw_sync(project: Project, manifest: dict) -> list[Hit]:
    """Raw primitives are legal only in the wrapper home (the
    manifest's allowed_files, src/sim/sync.hh), where each wrapper
    documents the ordering it relies on. Anywhere else under src/ they
    are invisible to the confinement analysis."""
    allowed = tuple(manifest.get("raw-sync", {}).get("allowed_files", []))
    findings = []
    for path, clean in project.cleaned.items():
        if not path.startswith("src/") or path.endswith(allowed):
            continue
        for i, line in enumerate(clean):
            m = _RAW_SYNC_RE.search(line)
            if m:
                findings.append((
                    path, i + 1,
                    f"raw `{m.group(0)}` outside the sync.hh wrappers; "
                    f"use or extend the primitives in src/sim/sync.hh "
                    f"(sync::Mutex, sync::LockGuard, sync::ThreadGroup, "
                    f"sync::TicketCounter)"))
    return findings


# --- handler-blocking ------------------------------------------------

#: `LockGuard guard(<mutex expr>);` acquisition sites (optionally
#: namespace-qualified, as in `sync::LockGuard`).
_GUARD_RE = re.compile(
    r"\b(?:sync\s*::\s*)?LockGuard\s+\w+\s*\(\s*([^()]+?)\s*\)")

#: Bare `<expr>.lock()` acquisition (the rare non-RAII site).
_BARE_LOCK_RE = re.compile(r"([A-Za-z_]\w*)\s*\.\s*lock\s*\(\s*\)")


def check_handler_blocking(project: Project, manifest: dict) -> list[Hit]:
    """No mutex acquisition or blocking rendezvous may be reachable
    from an EventQueue::schedule handler root: a handler that blocks
    stalls its simulation on another thread, and lock-based handler
    ordering is exactly the nondeterminism the kernel's (when, seq)
    total order exists to rule out."""
    cfg = manifest.get("handler-blocking", {})
    blocking_names = set(cfg.get("blocking_calls", []))

    findings = []
    emitted: set[tuple[str, int]] = set()
    for func in handler_reachable(project, cfg.get("allowed_files", [])):
        clean = project.cleaned.get(func.file)
        if clean is None:
            continue
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
            findings.append((
                func.file, ln,
                f"{what} in {handler_label(func)}, which is reachable "
                f"from an event handler; handlers must never block "
                f"(rules.toml [handler-blocking])"))
    return findings
