"""The frontend of mellow-analyze: pure-Python lexical analysis.

It extracts the Project IR (model.py) with the standard library only.
It leans on the repository's enforced code style (gem5-style
definitions: return type on its own line, the qualified name at
column 0, braces at column 0) and resolves ``.value()`` receivers
through a project-wide declaration map: a receiver is only treated as
a strong type when every declaration of that name found in the tree
agrees. Receivers it cannot resolve are skipped. DESIGN.md §9 lists
what this approximates, rule by rule.
"""

from __future__ import annotations

import re

from model import (
    STRONG_TYPES,
    FunctionDef,
    Project,
    ValueCall,
)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

_STRONG_ALT = "|".join(STRONG_TYPES)

#: `Type name` declarations (parameters, locals, members) of a strong
#: type. Accepts an optional const and reference.
DECL_RE = re.compile(
    r"\b(?:const\s+)?(" + _STRONG_ALT + r")\s*&?\s+([A-Za-z_]\w*)\s*[;,)=({]"
)

#: Functions returning a strong type, declared either on one line
#: (`[[nodiscard]] ChannelId channelOf(...)`) or gem5-style with the
#: return type alone on the previous line.
RET_ONE_LINE_RE = re.compile(
    r"\b(" + _STRONG_ALT + r")\s+(?:[A-Za-z_]\w*::)?([A-Za-z_]\w*)\s*\("
)
RET_TYPE_LINE_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:friend\s+)?(?:constexpr\s+)?"
    r"(?:static\s+)?(" + _STRONG_ALT + r")\s*$"
)
#: A function head: the (optionally class-qualified) name, either at
#: the start of the line (gem5 style) or after a return type on the
#: same line (`long sample() {`). Groups: class, name.
DEF_RE = re.compile(
    r"^\s*(?:\[\[\w+\]\]\s*)?"
    r"(?:[A-Za-z_][\w:]*(?:\s*<[^;(){}]*>)?[\s*&]+)*?"
    r"(?:([A-Za-z_]\w*)::)?([A-Za-z_]\w*)\s*\(")

#: `auto name = <call>(...)` (also `const auto &`, `obj.call(...)`): the
#: local takes the callee's return type. Groups: name, callee.
AUTO_DECL_RE = re.compile(
    r"\bauto\s*&?\s*([A-Za-z_]\w*)\s*=\s*(?:[A-Za-z_]\w*\s*(?:\.|->)\s*)*"
    r"([A-Za-z_]\w*)\s*\(")

#: A `.value()` call; value_receiver() resolves what it is called on.
VALUE_CALL_RE = re.compile(r"\.\s*value\s*\(\s*\)")

#: Containers of a strong type: `std::vector<BankId> banks`,
#: `std::array<ChannelId, 4> ids` (also std::deque and std::span) and
#: C arrays `BankId order[8]`. Groups: element type, name.
ELEM_DECL_RES = (
    re.compile(
        r"\b(?:std::)?(?:vector|array|deque|span)\s*<\s*(?:const\s+)?("
        + _STRONG_ALT + r")\b[^;{}()<>]*>\s*&?\s*([A-Za-z_]\w*)\s*[;,)=({]"),
    re.compile(r"\b(?:const\s+)?(" + _STRONG_ALT
               + r")\s+([A-Za-z_]\w*)\s*\["),
)

#: A line holding only a (possibly templated or qualified) type, as
#: the return type of a gem5-style definition on the next line.
TYPE_LINE_RE = re.compile(r"^\s*[A-Za-z_\[][\w:<>,\s*&\[\]]*[\w>*&\]]\s*$")

#: An opening brace of a namespace block (`namespace a {`,
#: `namespace {`, with the brace on this or the next line).
NAMESPACE_RE = re.compile(r"^\s*(?:inline\s+)?namespace\b[\w\s:]*\{?\s*$")

CLASS_RE = re.compile(r"^\s*(?:class|struct)\s+([A-Za-z_]\w*)")

CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
CALL_KEYWORDS = frozenset(
    """if for while switch return sizeof alignof decltype noexcept
    static_cast dynamic_cast reinterpret_cast const_cast static_assert
    catch new delete defined assert""".split()
)

#: Banned-API patterns for the determinism rule: (regex, label).
BANNED_PATTERNS = [
    (re.compile(r"\bstd::chrono::(?:system_clock|steady_clock|"
                r"high_resolution_clock)\b"), "wall clock"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime)\s*\("), "wall clock"),
    (re.compile(r"(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0|&)"), "wall clock"),
    (re.compile(r"(?<![\w:.>])s?rand\s*\("), "raw RNG"),
    (re.compile(r"\bstd::random_device\b"), "raw RNG"),
    (re.compile(r"\bstd::mt19937(?:_64)?\b"), "raw RNG"),
    (re.compile(r"\bstd::(?:cout|cerr|clog)\b"), "console I/O"),
    (re.compile(r"(?<![\w:.>])(?:printf|fprintf|puts|fputs)\s*\("), "console I/O"),
    (re.compile(r"(?<![\w:.>])(?:fopen|fwrite|fread)\s*\("), "file I/O"),
    (re.compile(r"\bstd::[io]f?stream\b"), "file I/O"),
    (re.compile(r"\bstd::fstream\b"), "file I/O"),
    (re.compile(r"\bgetenv\s*\("), "environment read"),
]

#: An unordered container declaration. The template argument list may
#: span lines, so unordered_names() runs it over a file's joined text.
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:multimap|multiset|map|set)\s*<[^;{}]*?>\s+"
    r"([A-Za-z_]\w*)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*([A-Za-z_][\w.\->]*)\s*\)")

SCHEDULE_RE = re.compile(r"\b(?:schedule|scheduleIn)\s*\(")


def unordered_names(clean: list[str]) -> set[str]:
    """Names of the unordered containers declared in @p clean."""
    return set(UNORDERED_DECL_RE.findall("\n".join(clean)))


def value_receiver(line: str, dot: int) -> tuple[str, str] | None:
    """What the `.value()` whose '.' is at @p dot is called on:
    ("call", callee) for `f(...)`, ("elem", name) for `v[...]`,
    ("name", name) for a plain or member name; None otherwise. The
    argument or index list may nest."""
    i = dot - 1
    while i >= 0 and line[i].isspace():
        i -= 1
    kind = "name"
    if i >= 0 and line[i] in ")]":
        close = line[i]
        opener = "(" if close == ")" else "["
        depth = 0
        while i >= 0:
            if line[i] == close:
                depth += 1
            elif line[i] == opener:
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        if i < 0:
            return None
        kind = "call" if close == ")" else "elem"
        i -= 1
        while i >= 0 and line[i].isspace():
            i -= 1
    m = re.search(r"[A-Za-z_]\w*$", line[:i + 1])
    return (kind, m.group(0)) if m else None


def _is_digit_separator(line: str, i: int) -> bool:
    """True when the quote at @p i sits inside a number (`1'000`): the
    token it ends starts with a digit. A char literal's token is empty
    or an encoding prefix (`u8'x'`, `L'x'`)."""
    start = i
    while start > 0 and (line[start - 1].isalnum()
                         or line[start - 1] in "_'"):
        start -= 1
    return start < i and line[start].isdigit()


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blank out comments, string and char literals, preserving line
    structure and column positions (replaced with spaces)."""
    out: list[str] = []
    in_block = False
    for line in lines:
        buf = []
        i, n = 0, len(line)
        while i < n:
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if in_block:
                if ch == "*" and nxt == "/":
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            elif ch == "/" and nxt == "/":
                buf.append(" " * (n - i))
                break
            elif ch == "/" and nxt == "*":
                in_block = True
                buf.append("  ")
                i += 2
            elif ch in "\"'" and not _is_digit_separator(line, i):
                quote = ch
                buf.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        buf.append("  ")
                        i += 2
                        continue
                    if line[i] == quote:
                        buf.append(quote)
                        i += 1
                        break
                    buf.append(" ")
                    i += 1
            else:
                buf.append(ch)
                i += 1
        out.append("".join(buf))
    return out


def _matching_brace(clean: list[str], line_idx: int, col: int) -> int:
    """0-based line index of the '}' matching the '{' at (line_idx, col)."""
    depth = 0
    for i in range(line_idx, len(clean)):
        start = col if i == line_idx else 0
        for ch in clean[i][start:]:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return i
        col = 0
    return len(clean) - 1


def _find_body_open(clean: list[str], start: int, limit: int = 20):
    """First '{' from line @p start that is not preceded by a ';' ending
    the statement. Returns (line_idx, col) or None."""
    for i in range(start, min(len(clean), start + limit)):
        line = clean[i]
        brace = line.find("{")
        semi = line.find(";")
        if brace >= 0 and (semi < 0 or brace < semi):
            return i, brace
        if semi >= 0:
            return None
    return None


def _namespace_scope_lines(clean: list[str]) -> list[bool]:
    """Per line: True when every brace open at its start belongs to a
    namespace block, i.e. the line sits at namespace scope, and the
    line before it ends a statement or block or is a lone return type
    (so a constructor's initializer list does not count)."""
    at_ns: list[bool] = []
    stack: list[bool] = []  # one entry per open brace: is a namespace
    prev = ""
    for line in clean:
        at_ns.append(all(stack) and (
            not prev.strip() or prev.rstrip()[-1] in ";{}"
            or bool(TYPE_LINE_RE.match(prev))))
        for col, ch in enumerate(line):
            if ch == "{":
                head = line[:col + 1] if line[:col].strip() else prev + "{"
                stack.append(bool(NAMESPACE_RE.match(head)))
            elif ch == "}" and stack:
                stack.pop()
        if line.strip():
            prev = line
    return at_ns


def extract_functions(path: str, clean: list[str]) -> list[FunctionDef]:
    """Function definitions with body line ranges.

    Handles the repository style: out-of-line definitions starting at
    column 0, with the (possibly qualified) name there or after a
    one-line return type, in-class inline definitions of either shape
    tracked through a class-name stack, and definitions indented at
    namespace scope (inside an indented namespace block).
    """
    at_ns = _namespace_scope_lines(clean)
    funcs: list[FunctionDef] = []
    # (class_name, close_line) for in-class method qualification.
    class_stack: list[tuple[str, int]] = []
    consumed_until = -1  # skip lines inside an already-extracted body

    i = 0
    n = len(clean)
    while i < n:
        while class_stack and i > class_stack[-1][1]:
            class_stack.pop()

        line = clean[i]

        cls = CLASS_RE.match(line)
        if cls and ";" not in line:
            open_pos = _find_body_open(clean, i)
            if open_pos is not None:
                close = _matching_brace(clean, open_pos[0], open_pos[1])
                class_stack.append((cls.group(1), close))
                i = open_pos[0] + 1
                continue

        if i <= consumed_until:
            i += 1
            continue

        m = DEF_RE.match(line)
        is_col0 = bool(m) and not line[:1].isspace()
        in_class = bool(class_stack)
        if m and (is_col0 or in_class or at_ns[i]):
            name = m.group(2)
            if name in CALL_KEYWORDS or re.match(
                    r"^\s*(?:if|for|while|switch|return)\b", line):
                i += 1
                continue
            open_pos = _find_body_open(clean, i)
            if open_pos is None:
                i += 1
                continue
            close = _matching_brace(clean, open_pos[0], open_pos[1])
            if m.group(1):
                qname = f"{m.group(1)}::{name}"
            elif in_class:
                qname = f"{class_stack[-1][0]}::{name}"
            else:
                qname = name
            funcs.append(FunctionDef(
                name=qname, file=path,
                start=open_pos[0] + 1, end=close + 1))
            consumed_until = close
            i += 1
            continue

        i += 1

    return funcs


def _populate_function_facts(func: FunctionDef, clean: list[str],
                             unordered: set[str]) -> None:
    for li in range(func.start - 1, func.end):
        text = clean[li]
        for call in CALL_RE.finditer(text):
            callee = call.group(1)
            if callee not in CALL_KEYWORDS:
                func.calls.append((callee, li + 1))
        for pattern, label in BANNED_PATTERNS:
            for hit in pattern.finditer(text):
                func.banned.append((hit.group(0).strip(), li + 1, label))
        for rf in RANGE_FOR_RE.finditer(text):
            container = rf.group(1).split(".")[-1].split(">")[-1]
            if container in unordered:
                func.unordered_iters.append((li + 1, container))


def _extract_schedule_lambdas(path: str, clean: list[str],
                              unordered: set[str]
                              ) -> list[FunctionDef]:
    """Synthetic root functions for lambdas passed to
    EventQueue::schedule / scheduleIn."""
    roots: list[FunctionDef] = []
    for i, line in enumerate(clean):
        if not SCHEDULE_RE.search(line):
            continue
        # Find the lambda's '[' then its body '{' within a few lines.
        for j in range(i, min(len(clean), i + 4)):
            col = clean[j].find("[", clean[j].find("(") + 1 if j == i else 0)
            if col < 0:
                continue
            open_pos = _find_body_open(clean, j)
            if open_pos is None:
                break
            close = _matching_brace(clean, open_pos[0], open_pos[1])
            root = FunctionDef(
                name=f"<lambda@{path}:{i + 1}>", file=path,
                start=open_pos[0] + 1, end=close + 1,
                is_schedule_root=True)
            _populate_function_facts(root, clean, unordered)
            roots.append(root)
            break
    return roots


def build_project(files: dict[str, list[str]]) -> Project:
    """Lower the given {path: lines} tree into the Project IR."""
    cleaned = {p: strip_comments_and_strings(ls) for p, ls in files.items()}
    project = Project(files=files, cleaned=cleaned)

    # --- Project-wide maps -------------------------------------------
    decl_types: dict[str, set[str]] = {}
    ret_types: dict[str, set[str]] = {}
    autos: list[tuple[str, str]] = []
    unordered: set[str] = set()
    elem_types: dict[str, set[str]] = {}
    for path, clean in cleaned.items():
        unordered |= unordered_names(clean)
        for li, line in enumerate(clean):
            for m in DECL_RE.finditer(line):
                decl_types.setdefault(m.group(2), set()).add(m.group(1))
            for elem_re in ELEM_DECL_RES:
                for m in elem_re.finditer(line):
                    elem_types.setdefault(m.group(2), set()).add(m.group(1))
            autos.extend(m.groups() for m in AUTO_DECL_RE.finditer(line))
            for m in RET_ONE_LINE_RE.finditer(line):
                ret_types.setdefault(m.group(2), set()).add(m.group(1))
            if RET_TYPE_LINE_RE.match(line) and li + 1 < len(clean):
                nm = DEF_RE.match(clean[li + 1])
                if nm:
                    ty = RET_TYPE_LINE_RE.match(line).group(1)
                    ret_types.setdefault(nm.group(2), set()).add(ty)
    for name, callee in autos:
        types = ret_types.get(callee, set())
        if len(types) == 1:
            decl_types.setdefault(name, set()).update(types)

    # --- Per-file facts ----------------------------------------------
    for path, lines in files.items():
        clean = cleaned[path]

        project.includes[path] = [
            (li + 1, m.group(1))
            for li, line in enumerate(lines)
            if (m := INCLUDE_RE.match(line))
        ]

        funcs = extract_functions(path, clean)
        for func in funcs:
            _populate_function_facts(func, clean, unordered)
        funcs.extend(_extract_schedule_lambdas(path, clean, unordered))
        project.functions.extend(funcs)

        def enclosing(line_no: int) -> str:
            best = ""
            best_span = None
            for f in funcs:
                if f.start <= line_no <= f.end and not f.is_schedule_root:
                    span = f.end - f.start
                    if best_span is None or span < best_span:
                        best, best_span = f.name, span
            return best

        type_maps = {"call": ret_types, "elem": elem_types,
                     "name": decl_types}
        for li, line in enumerate(clean):
            for m in VALUE_CALL_RE.finditer(line):
                recv = value_receiver(line, m.start())
                if recv is None:
                    continue
                types = type_maps[recv[0]].get(recv[1], set())
                if len(types) == 1:
                    project.value_calls.append(ValueCall(
                        file=path, line=li + 1,
                        recv_type=next(iter(types)),
                        enclosing=enclosing(li + 1)))

    # Two `.value()` calls on one receiver type in one line are one
    # finding.
    project.value_calls = list(dict.fromkeys(project.value_calls))
    return project
