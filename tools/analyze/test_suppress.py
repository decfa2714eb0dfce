#!/usr/bin/env python3
"""Unit tests for the shared suppression parser (suppress.py).

Covers the placement edge cases the docstring promises — a trailing
annotation on the last line of a file, a standalone annotation whose
statement spans several lines, annotations inside a multi-line
statement — plus the interaction between `// mlint: allow-file(...)`
and the analyzer's `--disable` flag, driven through the real
mellow_analyze.main() on a throwaway tree.

Run directly (`python3 tools/analyze/test_suppress.py`) or via the
`analyze.suppress_unit` ctest entry.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import mellow_analyze  # noqa: E402
from suppress import parse_suppressions  # noqa: E402

RULE = "confinement-global"


class TrailingAnnotationTest(unittest.TestCase):
    def test_trailing_on_last_line_of_file(self):
        # Nothing follows the annotated line; it must still suppress
        # its own line (historic bug class: lookahead past EOF).
        sup = parse_suppressions(
            ["int g_x = 0; // mlint: allow(%s): tally" % RULE])
        self.assertTrue(sup.allows(RULE, 1))

    def test_trailing_applies_to_its_line_only(self):
        sup = parse_suppressions([
            "int g_a = 0;",
            "int g_b = 0; // mlint: allow(%s): reason" % RULE,
            "int g_c = 0;",
        ])
        self.assertFalse(sup.allows(RULE, 1))
        self.assertTrue(sup.allows(RULE, 2))
        self.assertFalse(sup.allows(RULE, 3))

    def test_trailing_inside_multiline_statement(self):
        # An annotation on one continuation line of a statement covers
        # that line, not the whole statement.
        sup = parse_suppressions([
            "panic_if(cond,",
            "         line.value()); // mlint: allow(value-escape): fmt",
        ])
        self.assertFalse(sup.allows("value-escape", 1))
        self.assertTrue(sup.allows("value-escape", 2))

    def test_multiple_rules_one_annotation(self):
        sup = parse_suppressions(
            ["x(); // mlint: allow(value-escape, layering): both"])
        self.assertTrue(sup.allows("value-escape", 1))
        self.assertTrue(sup.allows("layering", 1))
        self.assertFalse(sup.allows(RULE, 1))


class StandaloneAnnotationTest(unittest.TestCase):
    def test_covers_whole_multiline_statement(self):
        sup = parse_suppressions([
            "// mlint: allow(value-escape): message formatting",
            "panic_if(cond,",
            '         "line %llu bad",',
            "         line.value());",
            "other(line.value());",
        ])
        for line in (2, 3, 4):
            self.assertTrue(sup.allows("value-escape", line), line)
        self.assertFalse(sup.allows("value-escape", 5))

    def test_prose_continuation_lines_between(self):
        # Plain comment lines between the annotation and the statement
        # are its prose continuation; they must not cancel it.
        sup = parse_suppressions([
            "// mlint: allow(value-escape): the conversion here is",
            "// intentional and audited.",
            "sink(line.value());",
        ])
        self.assertTrue(sup.allows("value-escape", 3))

    def test_annotation_on_last_line_never_flushes(self):
        # A standalone annotation with no following code line must not
        # crash and must not suppress anything.
        sup = parse_suppressions([
            "int g_x = 0;",
            "// mlint: allow(%s): dangling" % RULE,
        ])
        self.assertFalse(sup.allows(RULE, 1))
        self.assertFalse(sup.allows(RULE, 2))

    def test_unterminated_statement_is_capped(self):
        # A runaway unclosed paren must not suppress the rest of the
        # file; coverage stops at the _MAX_STATEMENT_LINES guard.
        lines = ["// mlint: allow(value-escape): runaway",
                 "f(a.value(),"]
        lines += ["  b.value()," for _ in range(40)]
        lines += ["  c.value());"]
        sup = parse_suppressions(lines)
        self.assertTrue(sup.allows("value-escape", 2))
        self.assertFalse(sup.allows("value-escape", len(lines)))


class AllowFileTest(unittest.TestCase):
    def test_allow_file_suppresses_everywhere(self):
        # Placement is irrelevant: even on the last line it covers the
        # whole file, including earlier lines.
        sup = parse_suppressions([
            "int g_x = 0;",
            "// mlint: allow-file(%s): generated tallies" % RULE,
        ])
        self.assertTrue(sup.allows(RULE, 1))
        self.assertTrue(sup.allows(RULE, 2))
        self.assertFalse(sup.allows("layering", 1))


class DisableInteractionTest(unittest.TestCase):
    """allow-file vs --disable through the real analyzer CLI."""

    BAD = (
        "#include <cstdint>\n"
        "namespace\n"
        "{\n"
        "std::uint64_t g_unguarded = 0;\n"
        "} // namespace\n"
        "std::uint64_t\n"
        "bump()\n"
        "{\n"
        "    return ++g_unguarded;\n"
        "}\n"
    )

    def _analyze(self, source: str, *extra_args: str) -> int:
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "src", "sim"))
            with open(os.path.join(tmp, "src", "sim", "bad.cc"),
                      "w") as fh:
                fh.write(source)
            argv = ["--root", tmp, "src", *extra_args]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return mellow_analyze.main(argv)

    def test_finding_fails_without_either(self):
        self.assertEqual(self._analyze(self.BAD), 1)

    def test_allow_file_alone_passes(self):
        annotated = ("// mlint: allow-file(%s): test tally\n" % RULE
                     + self.BAD)
        self.assertEqual(self._analyze(annotated), 0)

    def test_disable_alone_passes(self):
        self.assertEqual(self._analyze(self.BAD, "--disable", RULE), 0)

    def test_disable_of_unrelated_rule_keeps_finding(self):
        self.assertEqual(
            self._analyze(self.BAD, "--disable", "layering"), 1)

    def test_allow_file_does_not_mask_other_rules(self):
        # The annotation names confinement-global only; a layering-
        # style annotation must not hide it.
        annotated = "// mlint: allow-file(layering): wrong rule\n" \
            + self.BAD
        self.assertEqual(self._analyze(annotated), 1)

    def test_allow_file_and_disable_together(self):
        annotated = ("// mlint: allow-file(%s): test tally\n" % RULE
                     + self.BAD)
        self.assertEqual(
            self._analyze(annotated, "--disable", RULE), 0)


if __name__ == "__main__":
    unittest.main()
