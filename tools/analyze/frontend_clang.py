"""libclang frontend for mellow-analyze.

Lowers the tree into the same Project IR as frontend_textual.py, but
with semantic facts from clang.cindex driven by the exported
compile_commands.json: `.value()` receivers are resolved through the
real type system (aliases like BankId unwrap to StrongOrdinal<...>),
the call graph uses referenced declarations instead of simple-name
matching, and lambdas are found as AST nodes under schedule calls.

Import of this module raises ImportError when the clang bindings (pip
package `libclang`, pinned in tools/analyze/requirements.txt) are not
available; mellow_analyze.py catches that and falls back to the
textual backend with a warning.
"""

from __future__ import annotations

import os

from clang import cindex  # noqa: F401  (ImportError => no clang backend)
from clang.cindex import CursorKind, TranslationUnit

from frontend_textual import (
    BANNED_PATTERNS,
    INCLUDE_RE,
    RANGE_FOR_RE,
    strip_comments_and_strings,
    unordered_names,
)
from model import STRONG_CLASS_NAMES, FunctionDef, Project, ValueCall

_FUNC_KINDS = (
    CursorKind.FUNCTION_DECL,
    CursorKind.CXX_METHOD,
    CursorKind.CONSTRUCTOR,
    CursorKind.DESTRUCTOR,
    CursorKind.FUNCTION_TEMPLATE,
)

_SCHEDULE_NAMES = ("schedule", "scheduleIn")


def _qualified_name(cursor) -> str:
    parts = []
    c = cursor
    while c is not None and c.kind != CursorKind.TRANSLATION_UNIT:
        if c.spelling:
            parts.append(c.spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))


def _strong_type_name(type_obj) -> str | None:
    """Pretty strong-type name for @p type_obj, or None if it is not
    one of the strong classes (after alias/canonical resolution)."""
    for t in (type_obj, type_obj.get_canonical()):
        spelling = t.spelling
        for cls in STRONG_CLASS_NAMES:
            if cls in spelling:
                # Prefer the alias spelling (BankId) over the
                # canonical template spelling when available.
                alias = type_obj.spelling.split("::")[-1]
                return alias if "<" not in alias else cls
    return None


def _rel(path: str, root: str) -> str:
    try:
        return os.path.relpath(path, root)
    except ValueError:
        return path


class _TUWalker:
    def __init__(self, project: Project, root: str,
                 unordered: set[str]):
        self.project = project
        self.root = root
        self.unordered = unordered
        self.seen_funcs: set[tuple[str, int, str]] = set()
        self.seen_values: set[tuple[str, int]] = set()

    def walk(self, tu: TranslationUnit, main_file: str) -> None:
        self._visit(tu.cursor, None, main_file)

    # -- helpers ------------------------------------------------------

    def _in_tree(self, cursor) -> str | None:
        loc = cursor.location
        if loc.file is None:
            return None
        path = _rel(os.path.realpath(loc.file.name),
                    self.root)
        if path.startswith(".."):
            return None
        return path

    def _lex_facts(self, func: FunctionDef) -> None:
        """Banned APIs / unordered iteration scanned lexically over the
        body range (robust against macro-heavy bodies)."""
        clean = self.project.cleaned.get(func.file)
        if not clean:
            return
        for li in range(func.start - 1, min(func.end, len(clean))):
            text = clean[li]
            for pattern, label in BANNED_PATTERNS:
                for hit in pattern.finditer(text):
                    func.banned.append((hit.group(0).strip(), li + 1, label))
            for rf in RANGE_FOR_RE.finditer(text):
                container = rf.group(1).split(".")[-1].split(">")[-1]
                if container in self.unordered:
                    func.unordered_iters.append((li + 1, container))

    # -- traversal ----------------------------------------------------

    def _visit(self, cursor, current_func, main_file: str) -> None:
        for child in cursor.get_children():
            try:
                self._visit_one(child, current_func, main_file)
            except Exception:  # defensive: skip cursors clang chokes on
                self._visit(child, current_func, main_file)

    def _visit_one(self, cursor, current_func, main_file: str) -> None:
        path = self._in_tree(cursor)
        kind = cursor.kind

        if kind in _FUNC_KINDS and cursor.is_definition() and path:
            extent = cursor.extent
            name = _qualified_name(cursor)
            key = (path, extent.start.line, name)
            if key in self.seen_funcs:
                return
            self.seen_funcs.add(key)
            func = FunctionDef(
                name=name, file=path,
                start=extent.start.line, end=extent.end.line)
            self.project.functions.append(func)
            self._lex_facts(func)
            self._visit(cursor, func, main_file)
            return

        if kind == CursorKind.CALL_EXPR and path:
            spelling = cursor.spelling
            if spelling == "value":
                ref = cursor.referenced
                parent = ref.semantic_parent if ref is not None else None
                if parent is not None and any(
                        parent.spelling.startswith(c)
                        for c in STRONG_CLASS_NAMES):
                    args = list(cursor.get_children())
                    recv = None
                    if args:
                        recv = _strong_type_name(
                            args[0].type) or parent.spelling
                    vkey = (path, cursor.location.line)
                    if vkey not in self.seen_values:
                        self.seen_values.add(vkey)
                        self.project.value_calls.append(ValueCall(
                            file=path, line=cursor.location.line,
                            recv_type=recv or parent.spelling,
                            enclosing=(current_func.name
                                       if current_func else "")))
            if current_func is not None and spelling:
                current_func.calls.append(
                    (spelling, cursor.location.line))
            if spelling in _SCHEDULE_NAMES:
                self._roots_under(cursor, path)

        self._visit(cursor, current_func, main_file)

    def _roots_under(self, call_cursor, path: str) -> None:
        """Register every lambda argument of a schedule call as a
        synthetic handler root."""
        def lambdas(c):
            for child in c.get_children():
                if child.kind == CursorKind.LAMBDA_EXPR:
                    yield child
                else:
                    yield from lambdas(child)

        for lam in lambdas(call_cursor):
            extent = lam.extent
            key = (path, extent.start.line, "<lambda>")
            if key in self.seen_funcs:
                continue
            self.seen_funcs.add(key)
            root = FunctionDef(
                name=f"<lambda@{path}:{extent.start.line}>", file=path,
                start=extent.start.line, end=extent.end.line,
                is_schedule_root=True)
            self.project.functions.append(root)
            self._lex_facts(root)
            self._visit(lam, root, path)


def build_project(files: dict[str, list[str]], build_dir: str,
                  repo_root: str) -> Project:
    """Lower @p files using libclang + compile_commands.json from
    @p build_dir. Headers are analyzed through the TUs that include
    them; includes come from the same lexical scan as the textual
    backend (the rule needs as-written spellings, not resolved paths).
    """
    project = Project(files=files, cleaned={
        p: strip_comments_and_strings(ls) for p, ls in files.items()})

    unordered: set[str] = set()
    for path, lines in files.items():
        unordered |= unordered_names(project.cleaned[path])
        project.includes[path] = [
            (li + 1, m.group(1))
            for li, line in enumerate(lines)
            if (m := INCLUDE_RE.match(line))
        ]

    index = cindex.Index.create()
    walker = _TUWalker(project, repo_root, unordered)
    wanted_cc = {os.path.realpath(os.path.join(repo_root, p))
                 for p in files if p.endswith(".cc")}

    comp_db = None
    if build_dir and os.path.exists(
            os.path.join(build_dir, "compile_commands.json")):
        comp_db = cindex.CompilationDatabase.fromDirectory(build_dir)
    if comp_db is None:
        # No compilation database: parse with default flags (enough
        # for the fixture trees and for a quick local run).
        default_args = ["-xc++", "-std=c++20",
                        "-I", os.path.join(repo_root, "src")]
        for src in sorted(wanted_cc):
            tu = index.parse(src, args=default_args)
            walker.walk(tu, src)
        return project

    for cmd in comp_db.getAllCompileCommands():
        src = os.path.realpath(
            os.path.join(cmd.directory, cmd.filename))
        if src not in wanted_cc:
            continue
        args = [a for a in cmd.arguments][1:]  # drop compiler path
        # Drop -o/-c and the source operand; keep -I/-D/-std etc.
        clang_args = []
        skip = False
        for a in args:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c"):
                skip = a == "-o"
                continue
            if os.path.realpath(os.path.join(cmd.directory, a)) == src:
                continue
            clang_args.append(a)
        tu = index.parse(src, args=clang_args)
        walker.walk(tu, src)

    return project
