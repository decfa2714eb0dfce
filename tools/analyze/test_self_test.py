#!/usr/bin/env python3
"""Unit tests for the analyzer's fixture self-test (mellow_analyze.py).

The committed fixture tree must pass, and a copy of it missing the
fixture of any one rule must fail: a rule cannot lose its fixture, nor
a fixture its rule, without the self-test noticing. A finding in a
helper file (no directive) fails too, and a manifest table that names
no rule is an environment error.

Run directly (`python3 tools/analyze/test_self_test.py`) or via the
`analyze.self_test_unit` ctest entry.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import mellow_analyze  # noqa: E402
from registry import RULES  # noqa: E402

FIXTURES = os.path.join(mellow_analyze.REPO_ROOT, "tests",
                        "analyze_fixtures")


def _self_test(tree: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return mellow_analyze.main(["--self-test", tree])


class FixtureCoverageTest(unittest.TestCase):
    def test_committed_tree_passes(self):
        self.assertEqual(_self_test(FIXTURES), 0)

    def _copy(self, tmp: str) -> str:
        tree = os.path.join(tmp, "fixtures")
        shutil.copytree(FIXTURES, tree)
        return tree

    def test_tree_missing_one_rule_fixture_fails(self):
        for rule in RULES:
            with self.subTest(rule=rule), \
                    tempfile.TemporaryDirectory() as tmp:
                tree = self._copy(tmp)
                removed = 0
                for dirpath, _dirs, names in os.walk(tree):
                    for name in names:
                        path = os.path.join(dirpath, name)
                        with open(path, encoding="utf-8") as fh:
                            m = mellow_analyze.EXPECT_RE.search(
                                fh.readline())
                        if m and m.group(1) == rule:
                            os.remove(path)
                            removed += 1
                self.assertGreater(removed, 0)
                self.assertEqual(_self_test(tree), 1)

    def test_finding_in_helper_file_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = self._copy(tmp)
            with open(os.path.join(tree, "src", "sim", "event_queue.hh"),
                      "a", encoding="utf-8") as fh:
                fh.write("inline int g_helperState = 0;\n")
            self.assertEqual(_self_test(tree), 1)

    def test_unknown_manifest_table_is_an_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = self._copy(tmp)
            with open(os.path.join(tree, "rules.toml"), "a",
                      encoding="utf-8") as fh:
                fh.write("\n[raw-sync-primitive]\nallowed_files = []\n")
            with self.assertRaises(SystemExit) as exit_:
                _self_test(tree)
            self.assertEqual(exit_.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
