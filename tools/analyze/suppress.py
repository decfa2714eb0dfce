"""Parsing of `// mlint: allow(<rule>): <reason>` annotations.

Every mellow-analyze rule (tools/analyze/mellow_analyze.py) honours
the same suppression syntax with the same placement semantics:

 - A trailing annotation on a code line suppresses the named rules on
   that line only::

       do_thing(x.value()); // mlint: allow(value-escape): reason

 - A standalone annotation comment suppresses the named rules for the
   whole *next statement* — every line from the first following code
   line through the line on which that statement ends (the first line
   that, outside parentheses, ends with ';', '{' or '}').  Explanatory
   comment lines may continue the annotation in between::

       // mlint: allow(value-escape): panic-message formatting
       // spanning several lines.
       panic_if(cond,
                "line %llu bad", line.value());

 - `// mlint: allow-file(<rule>)` anywhere in a file suppresses the
   named rules for the entire file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

ALLOW_RE = re.compile(
    r"//\s*mlint:\s*allow(?P<filewide>-file)?"
    r"\((?P<rules>[a-z-]+(?:\s*,\s*[a-z-]+)*)\)"
)

# How many lines a standalone annotation may extend over while looking
# for the end of the next statement (guards against unclosed parens).
_MAX_STATEMENT_LINES = 24


def _code_part(line: str) -> str:
    """The line with any trailing // comment removed (no string-literal
    awareness needed: annotated source in this repo never embeds // in
    string literals on annotated lines)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def _is_comment_only(line: str) -> bool:
    stripped = line.strip()
    return stripped.startswith("//") or stripped == ""


@dataclass
class Suppressions:
    """Per-file suppression state; line numbers are 1-based."""

    file_rules: set[str] = field(default_factory=set)
    line_rules: dict[int, set[str]] = field(default_factory=dict)

    def allows(self, rule: str, line: int) -> bool:
        if rule in self.file_rules:
            return True
        return rule in self.line_rules.get(line, set())


def parse_suppressions(lines: list[str]) -> Suppressions:
    """Parse all annotations in @p lines (list of raw source lines)."""
    sup = Suppressions()
    pending: set[str] = set()

    i = 0
    n = len(lines)
    while i < n:
        line = lines[i]
        match = ALLOW_RE.search(line)
        if match and match.group("filewide"):
            sup.file_rules.update(
                r.strip() for r in match.group("rules").split(","))
            i += 1
            continue

        if _is_comment_only(line):
            if match:
                pending.update(
                    r.strip() for r in match.group("rules").split(","))
            # Plain comment lines neither extend nor cancel a pending
            # annotation (they are its prose continuation).
            i += 1
            continue

        # A code line. Trailing annotation applies to this line only.
        rules_here: set[str] = set(pending)
        if match:
            rules_here.update(
                r.strip() for r in match.group("rules").split(","))
        if rules_here:
            sup.line_rules.setdefault(i + 1, set()).update(rules_here)

        if pending:
            # Extend the pending annotation through the statement.
            depth = 0
            j = i
            while j < n and j - i < _MAX_STATEMENT_LINES:
                code = _code_part(lines[j])
                depth += code.count("(") - code.count(")")
                depth += code.count("[") - code.count("]")
                sup.line_rules.setdefault(j + 1, set()).update(pending)
                stripped = code.rstrip()
                if depth <= 0 and stripped.endswith((";", "{", "}")):
                    break
                j += 1
            pending = set()
            i = j + 1
            continue

        i += 1

    return sup
