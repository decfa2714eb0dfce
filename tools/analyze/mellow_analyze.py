#!/usr/bin/env python3
"""mellow-analyze — the static checker for mellowsim.

Eleven rules (registry.py), configured by one manifest
(tools/analyze/rules.toml):

  value-escape        .value() on a strong type outside whitelisted
                      conversion sites
  layering            include-graph / cross-module symbol references
                      outside the layer manifest
  nondeterminism      raw RNG, wall clocks or unordered iteration in
                      any file; I/O and the wider banned list inside
                      code reachable from an EventQueue::schedule
                      callback
  request-lifetime    a MemRequest read after std::move() into a queue
  confinement-global  mutable static/namespace-scope state that is not
                      atomic, a sync.hh type, thread_local or const
  raw-sync            raw std::thread / mutex / atomic / ... spellings
                      outside src/sim/sync.hh
  handler-blocking    a mutex acquisition or blocking call reachable
                      from an EventQueue::schedule handler
  raw-addr-param      raw integer parameters with address-space or time
                      names in converted headers
  missing-nodiscard   const accessors without [[nodiscard]] in
                      converted headers
  schedule-literal    schedule(<integer literal>): an absolute tick
  timing-literal      a literal scaled by a tick constant outside the
                      sanctioned homes of compiled-in timings

Findings honour the shared `// mlint: allow(<rule>): <reason>`
suppression syntax (tools/analyze/suppress.py).

The one frontend (frontend_textual.py) is pure Python and needs
nothing beyond the standard library; DESIGN.md §9 records what it
approximates.

Exit codes: 0 clean, 1 findings (or self-test failure), 2 environment
error (no input files, bad manifest, ...).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tomllib

from frontend_textual import build_project
from model import Finding
from registry import RULES
from suppress import parse_suppressions

REPO_ROOT = os.path.realpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
ANALYZE_DIR = os.path.dirname(os.path.abspath(__file__))

EXPECT_RE = re.compile(r"//\s*analyze-expect:\s*([a-z-]+|none)")


def _collect_files(root: str, paths: list[str]) -> dict[str, list[str]]:
    """{root-relative path: lines} for every .cc/.hh under @p paths."""
    files: dict[str, list[str]] = {}
    for target in paths:
        full = os.path.join(root, target)
        if os.path.isfile(full):
            candidates = [full]
        else:
            candidates = []
            for dirpath, _dirs, names in os.walk(full):
                for name in sorted(names):
                    if name.endswith((".cc", ".hh")):
                        candidates.append(os.path.join(dirpath, name))
        for cand in sorted(candidates):
            rel = os.path.relpath(cand, root).replace(os.sep, "/")
            with open(cand, encoding="utf-8") as fh:
                files[rel] = fh.read().splitlines()
    return files


def _load_manifest(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            manifest = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        print(f"mellow-analyze: cannot load manifest {path}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    unknown = [k for k, v in manifest.items()
               if isinstance(v, dict) and k not in RULES]
    if unknown:
        print(f"mellow-analyze: {path}: tables {unknown} name no rule "
              f"(rules: {', '.join(RULES)})", file=sys.stderr)
        sys.exit(2)
    return manifest


def _run_rules(project, manifest: dict,
               enabled: list[str]) -> list[Finding]:
    findings = [Finding(rule, *hit)
                for rule in enabled
                for hit in RULES[rule].check(project, manifest)]

    # Drop suppressed findings.
    sup_cache = {}
    kept = []
    for f in findings:
        lines = project.files.get(f.file)
        if lines is not None:
            if f.file not in sup_cache:
                sup_cache[f.file] = parse_suppressions(lines)
            if sup_cache[f.file].allows(f.rule, f.line):
                continue
        kept.append(f)
    kept.sort(key=lambda f: (f.file, f.line, f.rule, f.message))
    return kept


def _self_test(fixture_root: str, files: dict[str, list[str]],
               findings: list[Finding], enabled: list[str],
               only_rules: set[str]) -> int:
    """Check `// analyze-expect:` directives; returns the exit code.

    Fixtures are the .cc/.hh files whose first line carries a
    directive; a finding in any other file (a helper header) fails too.
    A full run (no --only-rule) also fails when some rule has no
    fixture, so the rule list and the fixture tree cannot drift."""
    by_file: dict[str, list[Finding]] = {}
    for f in findings:
        by_file.setdefault(f.file, []).append(f)

    failures = []
    declared: set[str] = set()
    checked = 0
    for path, lines in sorted(files.items()):
        m = EXPECT_RE.search(lines[0]) if lines else None
        if not m:
            if path in by_file:
                failures.append(f"{path}: findings in a file without an "
                                f"analyze-expect directive: " + "; ".join(
                                    f"{g.line}:[{g.rule}]"
                                    for g in by_file[path]))
            continue
        expect = m.group(1)
        if expect != "none" and expect not in RULES:
            failures.append(f"{path}: unknown analyze-expect rule "
                            f"'{expect}'")
            continue
        declared.add(expect)
        if only_rules and expect != "none" and expect not in only_rules:
            continue  # per-rule run: fixture out of scope
        checked += 1
        got = by_file.get(path, [])
        if expect == "none":
            if got:
                listing = "; ".join(
                    f"{g.line}:[{g.rule}]" for g in got)
                failures.append(
                    f"{path}: expected no findings, got {listing}")
        else:
            if not any(g.rule == expect for g in got):
                failures.append(
                    f"{path}: expected a [{expect}] finding, got "
                    + ("; ".join(f"{g.line}:[{g.rule}]" for g in got)
                       if got else "none"))
            stray = [g for g in got if g.rule != expect]
            if stray:
                failures.append(
                    f"{path}: unexpected findings: " + "; ".join(
                        f"{g.line}:[{g.rule}]" for g in stray))

    if not checked:
        print(f"mellow-analyze: self-test found no fixtures under "
              f"{fixture_root}", file=sys.stderr)
        return 2
    uncovered = [] if only_rules else [
        r for r in RULES if r not in declared]
    for failure in failures:
        print(f"self-test FAIL: {failure}")
    for rule in uncovered:
        print(f"self-test FAIL: no fixture declares "
              f"`// analyze-expect: {rule}`")
    print(f"mellow-analyze self-test: {checked - len(set(f.split(':')[0] for f in failures))}"
          f"/{checked} fixtures ok "
          f"(rules: {', '.join(enabled) if enabled else 'none'})")
    return 1 if failures or uncovered else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mellow-analyze",
        description="the static checker for mellowsim")
    parser.add_argument("paths", nargs="*", default=["src", "tools"],
                        help="files/directories to analyze "
                             "(default: src tools)")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="tree root paths are relative to")
    parser.add_argument("--sarif", metavar="OUT",
                        help="also write SARIF 2.1.0 to OUT")
    parser.add_argument("--only-rule", action="append", default=[],
                        metavar="RULE", choices=RULES,
                        help="run only this rule (repeatable)")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="RULE", choices=RULES,
                        help="disable this rule (repeatable)")
    parser.add_argument("--self-test", metavar="DIR",
                        help="run over the fixture tree DIR with its "
                             "DIR/rules.toml and check its "
                             "// analyze-expect: directives")
    args = parser.parse_args(argv)

    enabled = [r for r in RULES
               if (not args.only_rule or r in args.only_rule)
               and r not in args.disable]

    root = os.path.realpath(args.self_test if args.self_test else args.root)
    files = _collect_files(root, ["src"] if args.self_test else args.paths)
    if not files:
        print("mellow-analyze: no input files", file=sys.stderr)
        return 2
    manifest = _load_manifest(os.path.join(
        root if args.self_test else ANALYZE_DIR, "rules.toml"))

    findings = _run_rules(build_project(files), manifest, enabled)

    if args.sarif:
        from sarif import to_sarif
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(to_sarif(findings, RULES))

    if args.self_test:
        return _self_test(root, files, findings, enabled,
                          set(args.only_rule))

    for f in findings:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
    summary = (f"mellow-analyze: {len(findings)} finding(s) across "
               f"{len(files)} files, rules: {', '.join(enabled)}")
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
