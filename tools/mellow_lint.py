#!/usr/bin/env python3
"""mellowsim-specific lint pass.

Checks project conventions that clang-tidy cannot express:

  raw-addr-param      Public headers of converted modules must not
                      declare function parameters as raw integers with
                      address-space names (addr, line, bank, channel,
                      ...) — use the strong types from
                      src/sim/strong_types.hh. Raw uint64_t parameters
                      named like times (now, tick, when) must use the
                      Tick alias.

  banned-nondeterminism
                      std::rand / srand / std::random_device /
                      time(...) / wall-clock clocks are forbidden in
                      simulator and tool sources; all randomness goes
                      through sim/rng.hh and all time through the
                      event queue, or replays diverge.

  unordered-iteration Range-for over a std::unordered_{map,set}
                      declared in the same file: iteration order is
                      unspecified, so any stats, report or schedule
                      derived from it is nondeterministic. Iterate a
                      sorted copy or an index instead.

  schedule-literal    schedule(<integer literal>) schedules at an
                      absolute tick; events must be scheduled relative
                      to the current time (schedule(now + delay)).

  missing-nodiscard   Const accessors in converted public headers must
                      be [[nodiscard]]: silently dropping a queried
                      stat or address is always a bug.

  timing-literal      A numeric literal scaled by one of the tick
                      constants from sim/types.hh (150 * kNanosecond,
                      Tick(22.5 * kNanosecond), ...) hard-codes a
                      datasheet timing. Device timings belong in
                      configs/*.config, bound through src/config/'s
                      unit-carrying accessors; compiled-in defaults
                      live only in src/nvm/timing.hh and the other
                      sanctioned homes, or carry an explicit allow()
                      annotation naming why the value is not a device
                      parameter.

  raw-sync-primitive  Raw standard-library synchronization primitives
                      (std::mutex, std::thread, std::lock_guard, ...)
                      outside src/sim/sync.hh. The sync.hh wrappers
                      are the vocabulary the confinement analysis
                      trusts; a raw primitive is invisible to it.
                      (std::atomic is fine — it is part of the
                      sanctioned vocabulary.)

Suppress a finding with the shared annotation syntax (parsed by
tools/analyze/suppress.py, the same module mellow-analyze uses): a
trailing annotation suppresses its own line, a standalone annotation
comment suppresses the whole next statement, and allow-file() the
whole file:

    // mlint: allow(<rule-id>): <reason>

Usage:
    tools/mellow_lint.py [files...]

With no arguments, lints every tracked .hh/.cc file under src/ and
tools/. Exits 1 if any finding is reported, 0 otherwise.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools" / "analyze"))
from suppress import parse_suppressions  # noqa: E402

# Modules fully converted to the strong address-space / unit types.
# Headers here are held to the strict parameter and [[nodiscard]]
# rules; new modules join the list as they are converted.
CONVERTED_MODULES = (
    "src/cache/",
    "src/nvm/",
    "src/wear/",
    "src/mellow/",
    "src/fault/",
    "src/check/",
    "src/sim/",
    "src/energy/",
)

# --- raw-addr-param --------------------------------------------------

RAW_INT_TYPES = r"(?:std::uint64_t|std::uint32_t|uint64_t|uint32_t|Addr|unsigned long|unsigned int|unsigned|int|size_t|std::size_t)"
ADDR_NAMES = r"(?:addr|address|line|bank|channel|block|blockAddr|lineAddr|bankId|channelId|deviceLine|physicalLine|logicalLine)"
TIME_NAMES = r"(?:now|tick|when|deadline)"

RAW_ADDR_PARAM_RE = re.compile(
    rf"[(,]\s*(?:const\s+)?{RAW_INT_TYPES}\s+{ADDR_NAMES}\s*[,)=]"
)
RAW_TIME_PARAM_RE = re.compile(
    rf"[(,]\s*(?:const\s+)?(?:std::uint64_t|uint64_t)\s+{TIME_NAMES}\s*[,)=]"
)

# --- banned-nondeterminism -------------------------------------------

NONDET_PATTERNS = (
    (re.compile(r"\bstd::rand\b|(?<![\w.])\brand\s*\(\s*\)"), "std::rand"),
    (re.compile(r"(?<![\w.])\bsrand\s*\("), "srand"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w.:])\btime\s*\(\s*(?:NULL|nullptr|0|&)"), "time()"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday"),
)

# --- unordered-iteration ---------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)\s*[;{=(]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;:)]*:\s*(?:this->)?(\w+)\s*\)")

# --- schedule-literal ------------------------------------------------

SCHEDULE_LITERAL_RE = re.compile(r"\bschedule\s*\(\s*\d")

# --- timing-literal --------------------------------------------------

# <literal> * kXxxsecond in either order, or Tick(<literal>).
TIMING_LITERAL_RE = re.compile(
    r"\b\d[\d']*(?:\.\d+)?[uUlL]*\s*\*\s*"
    r"k(?:(?:Pico|Nano|Micro|Milli)second|Second)\b"
    r"|\bk(?:(?:Pico|Nano|Micro|Milli)second|Second)\s*\*\s*\d"
    r"|\bTick\s*\(\s*\d"
)

# The sanctioned homes of hard-coded timings: the config binding layer
# (whose job is turning datasheet numbers into Ticks), the compiled-in
# NvmTimingParams defaults that configs/reram_paper.config mirrors,
# and the files defining the tick constants / named conversions
# themselves.
TIMING_LITERAL_HOMES = (
    "src/config/",
    "src/nvm/timing.hh",
    "src/sim/types.hh",
    "src/sim/strong_types.hh",
)

# --- raw-sync-primitive ----------------------------------------------

RAW_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|timed_mutex|shared_mutex|"
    r"thread|jthread|lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(?:_any)?|"
    r"counting_semaphore|binary_semaphore|latch|barrier)\b"
)

# The one sanctioned home of the raw primitives (see its header
# comment); everything else goes through its wrappers.
SYNC_WRAPPER_FILE = "src/sim/sync.hh"

# Lint fixtures mirror the real tree under this prefix; stripping it
# makes the src/-scoped rules apply to them (tests/lint_fixtures/
# registers a WILL_FAIL ctest per fixture plus a clean control).
LINT_FIXTURE_PREFIX = "tests/lint_fixtures/"

# --- missing-nodiscard -----------------------------------------------

CONST_ACCESSOR_RE = re.compile(
    r"^\s*(?:virtual\s+)?(?!void\b)(?!.*\boperator\b)"
    r"[A-Za-z_][\w:]*(?:\s*<[^;(]*>)?(?:\s+const)?[\s&*]+"
    r"[a-zA-Z_]\w*\s*\([^;{}]*\)\s*const\b"
)


def relative_path(path: Path) -> str:
    """Repo-relative when possible (out-of-tree files keep their path)."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


class Linter:
    def __init__(self) -> None:
        self.findings: list[str] = []

    def report(self, path: Path, lineno: int, rule: str, msg: str) -> None:
        self.findings.append(
            f"{relative_path(path)}:{lineno}: [{rule}] {msg}")

    def lint_file(self, path: Path) -> None:
        rel = relative_path(path)
        # Fixture trees self-test the src/-scoped rules.
        rel = rel.split(LINT_FIXTURE_PREFIX, 1)[-1]
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as err:
            self.report(path, 0, "io", f"unreadable: {err}")
            return
        lines = text.splitlines()

        in_converted_header = rel.endswith(".hh") and rel.startswith(
            CONVERTED_MODULES
        )

        unordered_names = {
            m.group(1) for m in UNORDERED_DECL_RE.finditer(text)
        }

        suppressions = parse_suppressions(lines)

        in_block_comment = False
        for idx, line in enumerate(lines):
            lineno = idx + 1
            code = line
            # Strip comments for rule matching (the allow annotation is
            # read from the raw line).
            if in_block_comment:
                end = code.find("*/")
                if end < 0:
                    continue
                code = code[end + 2 :]
                in_block_comment = False
            start = code.find("/*")
            if start >= 0 and "*/" not in code[start:]:
                code = code[:start]
                in_block_comment = True
            code = re.sub(r"/\*.*?\*/", "", code)
            code = code.split("//", 1)[0]
            if not code.strip():
                continue

            def allowed(rule: str) -> bool:
                return suppressions.allows(rule, lineno)

            if in_converted_header and not allowed("raw-addr-param"):
                if RAW_ADDR_PARAM_RE.search(code):
                    self.report(
                        path, lineno, "raw-addr-param",
                        "raw integer parameter with an address-space "
                        "name; use the strong types from "
                        "sim/strong_types.hh",
                    )
                elif RAW_TIME_PARAM_RE.search(code):
                    self.report(
                        path, lineno, "raw-addr-param",
                        "raw uint64_t parameter with a time name; "
                        "use the Tick alias",
                    )

            if not allowed("banned-nondeterminism"):
                for pattern, what in NONDET_PATTERNS:
                    if pattern.search(code):
                        self.report(
                            path, lineno, "banned-nondeterminism",
                            f"{what} is nondeterministic; use "
                            "sim/rng.hh / the event queue clock",
                        )

            if unordered_names and not allowed("unordered-iteration"):
                m = RANGE_FOR_RE.search(code)
                if m and m.group(1) in unordered_names:
                    self.report(
                        path, lineno, "unordered-iteration",
                        f"range-for over unordered container "
                        f"'{m.group(1)}': iteration order is "
                        "unspecified; iterate a sorted copy or annotate "
                        "why order cannot leak",
                    )

            if (
                rel != SYNC_WRAPPER_FILE
                and rel.startswith("src/")
                and not allowed("raw-sync-primitive")
            ):
                m = RAW_SYNC_RE.search(code)
                if m:
                    self.report(
                        path, lineno, "raw-sync-primitive",
                        f"{m.group(0)} outside sim/sync.hh; use the "
                        "sync.hh wrappers (sync::Mutex, "
                        "sync::LockGuard, sync::ThreadGroup, "
                        "sync::TicketCounter)",
                    )

            if (
                rel.startswith("src/")
                and not rel.startswith(TIMING_LITERAL_HOMES)
                and not allowed("timing-literal")
            ):
                if TIMING_LITERAL_RE.search(code):
                    self.report(
                        path, lineno, "timing-literal",
                        "hard-coded timing literal; device timings "
                        "come from configs/*.config via src/config/, "
                        "compiled-in defaults live in "
                        "src/nvm/timing.hh",
                    )

            if not allowed("schedule-literal"):
                if SCHEDULE_LITERAL_RE.search(code):
                    self.report(
                        path, lineno, "schedule-literal",
                        "schedule() with an absolute literal tick; "
                        "schedule relative to the current time",
                    )

            if in_converted_header and not allowed("missing-nodiscard"):
                if (
                    CONST_ACCESSOR_RE.search(code)
                    and "[[nodiscard]]" not in code
                    and (idx == 0 or "[[nodiscard]]" not in lines[idx - 1])
                    and "static_assert" not in code
                    and not code.lstrip().startswith("return")
                ):
                    self.report(
                        path, lineno, "missing-nodiscard",
                        "const accessor without [[nodiscard]]",
                    )


def default_files() -> list[Path]:
    out = subprocess.run(
        ["git", "ls-files", "src/*.hh", "src/*.cc", "tools/*.cc"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return [REPO_ROOT / p for p in out.stdout.split()]


def main(argv: list[str]) -> int:
    files = [Path(a).resolve() for a in argv] if argv else default_files()
    linter = Linter()
    for path in files:
        if path.suffix in (".hh", ".cc"):
            linter.lint_file(path)
    for finding in linter.findings:
        print(finding)
    if linter.findings:
        print(
            f"mellow_lint: {len(linter.findings)} finding(s) in "
            f"{len(files)} file(s).",
            file=sys.stderr,
        )
        return 1
    print(f"mellow_lint: {len(files)} file(s) clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
