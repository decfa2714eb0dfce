"""The whole-program mellow-analyze rules (value-escape, layering,
nondeterminism, request-lifetime) plus confinement-global, and the
helpers the other rule modules share.

Every checker is ``check(project, manifest)``: it reads its own table
of the rules.toml manifest and returns ``(file, line, message)`` hits;
mellow_analyze.py stamps the rule id from the registry
(registry.py), filters suppressions and formats the output. Checkers
consume only the IR.
"""

from __future__ import annotations

import re
from collections import defaultdict

from frontend_textual import RANGE_FOR_RE, unordered_names
from model import FunctionDef, Project

Hit = tuple[str, int, str]


def _norm_func(name: str) -> str:
    """Normalize a qualified function name for whitelist matching:
    strip namespaces and template arguments, keep `Class::method`."""
    name = re.sub(r"<[^<>]*>", "", name)
    parts = [p for p in name.split("::") if p]
    if len(parts) >= 2:
        return "::".join(parts[-2:])
    return parts[-1] if parts else name


# --- value-escape --------------------------------------------------


def check_value_escape(project: Project, manifest: dict) -> list[Hit]:
    wl = manifest.get("value-escape", {})
    wl_funcs = set(wl.get("functions", []))
    wl_files = tuple(wl.get("files", []))

    findings = []
    for call in project.value_calls:
        if call.file.endswith(wl_files):
            continue
        enclosing = _norm_func(call.enclosing) if call.enclosing else ""
        if enclosing and (enclosing in wl_funcs
                          or enclosing.split("::")[-1] in wl_funcs):
            continue
        where = f" in {enclosing}()" if enclosing else ""
        findings.append((
            call.file, call.line,
            f".value() on {call.recv_type}{where} escapes the typed "
            f"domain outside the whitelisted conversion sites "
            f"(rules.toml [value-escape])"))
    return findings


# --- layering ------------------------------------------------------


def _module_of(path: str, src_root: str) -> str | None:
    """Module name of a path under @p src_root (e.g. 'nvm'), else None."""
    prefix = src_root.rstrip("/") + "/"
    if not path.startswith(prefix):
        return None
    rest = path[len(prefix):]
    return rest.split("/")[0] if "/" in rest else None


def _collect_symbols(project: Project, src_root: str) -> dict:
    """Top-level type/alias names per module from header files.
    Returns name -> (module, header-path-as-included)."""
    defs: dict[str, set[tuple[str, str]]] = defaultdict(set)
    type_re = re.compile(
        r"^(?:class|struct|enum\s+class|enum)\s+([A-Z]\w*)")
    alias_re = re.compile(r"^using\s+([A-Z]\w*)\s*=")
    for path, clean in project.cleaned.items():
        if not path.endswith(".hh"):
            continue
        module = _module_of(path, src_root)
        if module is None:
            continue
        header = path[len(src_root.rstrip("/")) + 1:]
        for line in clean:
            m = type_re.match(line)
            if m:
                # Skip forward declarations (`class X;` with no body).
                rest = line[m.end():]
                if ";" in rest and "{" not in rest:
                    continue
                defs[m.group(1)].add((module, header))
                continue
            m = alias_re.match(line)
            if m:
                defs[m.group(1)].add((module, header))
    # Names defined in more than one module are ambiguous — drop them.
    return {name: next(iter(homes))
            for name, homes in defs.items()
            if len({mod for mod, _ in homes}) == 1}


def check_layering(project: Project, manifest: dict,
                   src_root: str = "src") -> list[Hit]:
    modules = manifest.get("layering", {}).get("modules", {})
    findings = []

    def allowed(from_mod: str, to_mod: str, header: str) -> bool:
        if from_mod == to_mod:
            return True
        spec = modules.get(from_mod)
        if spec is None:
            return True  # unmanifested module: no layering contract yet
        if to_mod in spec.get("deps", []):
            return True
        restricted = spec.get("restricted", {})
        return header in restricted.get(to_mod, [])

    # Include-graph edges.
    for path, incs in project.includes.items():
        from_mod = _module_of(path, src_root)
        if from_mod is None:
            continue
        for line, target in incs:
            to_mod = target.split("/")[0] if "/" in target else from_mod
            if not allowed(from_mod, to_mod, target):
                findings.append((
                    path, line,
                    f'module "{from_mod}" may not include "{target}" '
                    f'(rules.toml [layering] allows '
                    f'{from_mod} -> {sorted(modules[from_mod].get("deps", []))}'
                    f'{" plus restricted headers" if modules[from_mod].get("restricted") else ""})'))

    # Cross-module symbol references (catches reaching into a foreign
    # module through a transitive include without naming it).
    symbols = _collect_symbols(project, src_root)
    word_res = {name: re.compile(r"\b" + re.escape(name) + r"\b")
                for name in symbols}
    for path, clean in project.cleaned.items():
        from_mod = _module_of(path, src_root)
        if from_mod is None or from_mod not in modules:
            continue
        reported: set[str] = set()
        for i, line in enumerate(clean):
            for name, (home_mod, header) in symbols.items():
                if home_mod == from_mod or name in reported:
                    continue
                if not word_res[name].search(line):
                    continue
                if allowed(from_mod, home_mod, header):
                    reported.add(name)
                    continue
                reported.add(name)
                findings.append((
                    path, i + 1,
                    f'module "{from_mod}" references {name} (defined in '
                    f'{header}, module "{home_mod}") outside its '
                    f'manifested dependencies'))
    return findings


# --- nondeterminism ------------------------------------------------
#
# Two tiers. File-wide, in every analyzed file: the raw RNG / wall-clock
# APIs no simulator or tool source may touch, and range-for over an
# unordered container declared in the file or in a project header it
# includes directly. Handler-reachable only: the wider list of the
# frontend's BANNED_PATTERNS (I/O, getenv, steady_clock, mt19937) and
# iteration over any unordered container in the project, inside a
# function reachable from an EventQueue::schedule callback.

_FILE_WIDE_NONDET = (
    (re.compile(r"\bstd::rand\b|(?<![\w.])\brand\s*\(\s*\)"), "std::rand"),
    (re.compile(r"(?<![\w.])\bsrand\s*\("), "srand"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w.:])\btime\s*\(\s*(?:NULL|nullptr|0|&)"), "time()"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday"),
)


def handler_reachable(project: Project,
                      allowed_files: list[str]) -> list[FunctionDef]:
    """Functions reachable from an EventQueue::schedule root through
    the call graph (callees matched by simple name). Functions defined
    in @p allowed_files are neither returned nor traversed."""
    allowed = tuple(allowed_files)
    by_simple_name: dict[str, list[FunctionDef]] = defaultdict(list)
    for func in project.functions:
        by_simple_name[func.name.split("::")[-1]].append(func)

    reachable = []
    seen: set[int] = set()
    work = [f for f in project.functions if f.is_schedule_root]
    while work:
        func = work.pop()
        if id(func) in seen:
            continue
        seen.add(id(func))
        if func.file.endswith(allowed):
            continue
        reachable.append(func)
        for callee, _line in func.calls:
            work.extend(t for t in by_simple_name.get(callee, [])
                        if id(t) not in seen)
    return reachable


def handler_label(func: FunctionDef) -> str:
    return ("an EventQueue::schedule callback"
            if func.is_schedule_root else f"{func.name}()")


def check_nondeterminism(project: Project, manifest: dict) -> list[Hit]:
    cfg = manifest.get("nondeterminism", {})
    declared = {path: unordered_names(clean)
                for path, clean in project.cleaned.items()}
    headers = [p for p in project.cleaned if p.endswith(".hh")]

    hits: dict[tuple[str, int], str] = {}
    for path, clean in project.cleaned.items():
        names = set(declared[path])
        for _line, target in project.includes.get(path, []):
            for header in headers:
                if header == target or header.endswith("/" + target):
                    names |= declared[header]
        for i, code in enumerate(clean):
            for pattern, what in _FILE_WIDE_NONDET:
                if pattern.search(code):
                    hits.setdefault(
                        (path, i + 1),
                        f"{what} is nondeterministic; use sim/rng.hh / "
                        f"the event queue clock")
            for m in RANGE_FOR_RE.finditer(code):
                container = re.split(r"\.|->", m.group(1))[-1]
                if container in names:
                    hits.setdefault(
                        (path, i + 1),
                        f"range-for over unordered container "
                        f"`{container}`: iteration order is unspecified; "
                        f"iterate a sorted copy or annotate why order "
                        f"cannot leak")

    for func in handler_reachable(project,
                                  cfg.get("handler_allowed_files", [])):
        label = handler_label(func)
        for ident, line, what in func.banned:
            hits.setdefault(
                (func.file, line),
                f"{what} `{ident}` in {label}, which is reachable from "
                f"an event handler; handlers must stay deterministic "
                f"(use sim/rng, sim/logging, or move this off the "
                f"event path)")
        for line, container in func.unordered_iters:
            hits.setdefault(
                (func.file, line),
                f"iteration over unordered container `{container}` in "
                f"{label}, which is reachable from an event handler; "
                f"iteration order is not deterministic")
    return [(path, line, msg) for (path, line), msg in hits.items()]


# --- request-lifetime ----------------------------------------------

_DECL_REQ_TMPL = r"\b(?:TYPES)\s+(\w+)\s*[;,)=(]"
_PTR_ALIAS_TMPL = r"(?:\b(?:TYPES)\s*\*|auto\s*\*)\s*(\w+)\s*=\s*&\s*(\w+)"
_REF_ALIAS_TMPL = r"(?:\b(?:TYPES)|auto)\s*&\s*(\w+)\s*=\s*(\w+)\s*;"


_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\S")
_KIND_BY_WORD = {"for": "loop", "while": "loop", "do": "loop",
                 "switch": "switch", "if": "if", "else": "else"}

Token = tuple[int, int, str]  # (1-based line, column, text)


def _tokens(clean: list[str], start: int, end: int) -> list[Token]:
    """Identifier and single-character tokens of lines start..end."""
    return [(ln, m.start(), m.group(0))
            for ln in range(start, end + 1)
            for m in _TOKEN_RE.finditer(clean[ln - 1])]


def _skip_group(toks: list[Token], i: int, step: int) -> int:
    """From the bracket at @p i, the index of its partner, walking in
    direction @p step (+1 from an opener, -1 from a closer)."""
    pair = {"(": ")", ")": "(", "{": "}", "}": "{"}
    here, there = toks[i][2], pair[toks[i][2]]
    depth = 0
    while 0 <= i < len(toks):
        if toks[i][2] == here:
            depth += 1
        elif toks[i][2] == there:
            depth -= 1
            if depth == 0:
                return i
        i += step
    return i - step


def _brace_blocks(toks: list[Token]) -> tuple[dict[int, int],
                                               dict[int, str]]:
    """{open: close} token indices of every brace block, and each
    block's kind: loop, switch, if (also else-if), else or other."""
    close: dict[int, int] = {}
    kind: dict[int, str] = {}
    stack: list[int] = []
    for i, (_ln, _col, text) in enumerate(toks):
        if text == "{":
            stack.append(i)
            j = i - 1
            if j >= 0 and toks[j][2] == ")":
                j = _skip_group(toks, j, -1) - 1
            kind[i] = _KIND_BY_WORD.get(toks[j][2], "other") \
                if j >= 0 else "other"
        elif text == "}" and stack:
            close[stack.pop()] = i
    return close, kind


def _statement_start(toks: list[Token], i: int) -> bool:
    return i == 0 or toks[i - 1][2] in ";{}"


def _after_statement(toks: list[Token], i: int) -> int:
    """Index just past the statement starting at @p i: a brace block,
    or tokens up to the first ';' outside parentheses and braces."""
    while i < len(toks):
        text = toks[i][2]
        if text in "({":
            end = _skip_group(toks, i, +1)
            if text == "{":
                return end + 1
            i = end
        elif text == ";":
            return i + 1
        i += 1
    return i


def _skip_else_chain(toks: list[Token], i: int) -> int:
    """Past the else / else-if branches that follow an if-block whose
    closing brace is just before @p i."""
    while i < len(toks) and toks[i][2] == "else":
        i += 1
        chained = i < len(toks) and toks[i][2] == "if"
        if chained:
            i = _skip_group(toks, i + 1, +1) + 1
        i = _after_statement(toks, i)
        if not chained:
            break
    return i


def _is_reassignment(toks: list[Token], i: int, var: str) -> bool:
    return (toks[i][2] == var and _statement_start(toks, i)
            and i + 2 < len(toks) and toks[i + 1][2] == "="
            and toks[i + 2][2] != "=")


def _first_read(toks: list[Token], lo: int, hi: int, names: set[str],
                var: str) -> int | None:
    """First token in [lo, hi) naming one of @p names, in text order,
    unless @p var is reassigned first."""
    for i in range(lo, hi):
        if _is_reassignment(toks, i, var):
            return None
        if toks[i][2] in names:
            return i
    return None


def _read_after_enqueue(toks: list[Token], enq: int, resume: int,
                        names: set[str], var: str) -> int | None:
    """The first token naming one of @p names that control flow can
    reach after the enqueue at token @p enq, walking from @p resume
    (just past `std::move(var)`).

    A return or throw that is not nested in a block opened after the
    enqueue ends the path. Leaving an enclosing if-block skips its
    else branches. A break or continue jumps to the end of the
    enclosing loop (or, for break, switch). Leaving an enclosing loop
    other than by break runs its body again up to the enqueue."""
    close, kind = _brace_blocks(toks)
    enclosing = {o for o, c in close.items() if o < enq < c}
    stack = sorted(enclosing)
    broken: set[int] = set()
    i = resume
    while i < len(toks) and stack:
        text = toks[i][2]
        if text == "{":
            stack.append(i)
            i += 1
            continue
        if text == "}":
            opened = stack.pop()
            i += 1
            if opened not in enclosing:
                continue
            if kind[opened] == "loop" and opened not in broken:
                hit = _first_read(toks, opened + 1, enq, names, var)
                if hit is not None:
                    return hit
            if kind[opened] == "if":
                i = _skip_else_chain(toks, i)
            continue
        if stack[-1] in enclosing and _statement_start(toks, i):
            if text in ("return", "throw"):
                return _first_read(toks, i, _after_statement(toks, i),
                                   names, var)
            targets = {"break": ("loop", "switch"),
                       "continue": ("loop",)}.get(text)
            target = next((o for o in reversed(stack)
                           if targets and kind[o] in targets), None)
            if target is not None:
                if text == "break":
                    broken.add(target)
                while stack[-1] != target:
                    stack.pop()
                i = close[target]
                continue
        if _is_reassignment(toks, i, var):
            return None
        if text in names:
            return i
        i += 1
    return None


def check_request_lifetime(project: Project, manifest: dict) -> list[Hit]:
    cfg = manifest.get("request-lifetime", {})
    types = cfg.get("request_types", [])
    methods = cfg.get("queue_methods", [])
    if not types or not methods:
        return []
    types_alt = "|".join(re.escape(t) for t in types)
    decl_re = re.compile(_DECL_REQ_TMPL.replace("TYPES", types_alt))
    ptr_re = re.compile(_PTR_ALIAS_TMPL.replace("TYPES", types_alt))
    ref_re = re.compile(_REF_ALIAS_TMPL.replace("TYPES", types_alt))
    # Only std::move(var) counts as a hand-off: pushing a copy leaves
    # the original perfectly readable.
    enqueue_re = re.compile(
        r"\.\s*(?:" + "|".join(re.escape(m) for m in methods) + r")"
        r"\s*\(\s*std::move\s*\(\s*(\w+)\s*\)")

    findings = []
    for func in project.functions:
        if func.is_schedule_root:
            continue
        clean = project.cleaned.get(func.file)
        if clean is None:
            continue
        # Request variables: body declarations plus by-value parameters
        # on the few signature lines preceding the body.
        sig_start = max(1, func.start - 4)
        tracked: set[str] = set()
        aliases: dict[str, str] = {}  # alias -> request var
        for ln in range(sig_start, func.end + 1):
            for m in decl_re.finditer(clean[ln - 1]):
                tracked.add(m.group(1))
        if not tracked:
            continue
        for ln in range(func.start, func.end + 1):
            for m in ptr_re.finditer(clean[ln - 1]):
                if m.group(2) in tracked:
                    aliases[m.group(1)] = m.group(2)
            for m in ref_re.finditer(clean[ln - 1]):
                if m.group(2) in tracked:
                    aliases[m.group(1)] = m.group(2)

        toks = _tokens(clean, func.start, func.end)
        for ln in range(func.start, func.end + 1):
            for m in enqueue_re.finditer(clean[ln - 1]):
                var = m.group(1)
                if var not in tracked:
                    continue
                names = {var} | {a for a, v in aliases.items() if v == var}
                enq = next(k for k, t in enumerate(toks)
                           if (t[0], t[1]) >= (ln, m.start()))
                resume = next((k for k, t in enumerate(toks)
                               if (t[0], t[1]) >= (ln, m.end())),
                              len(toks))
                hit = _read_after_enqueue(toks, enq, resume, names, var)
                if hit is None:
                    continue
                read_ln, _col, name = toks[hit]
                findings.append((
                    func.file, read_ln,
                    f"`{name}` is read after the request was handed "
                    f"to a queue at {func.file}:{ln} (moved-from/"
                    f"retained access in {func.name}())"))
    return findings


# --- confinement-global --------------------------------------------
#
# Enforces the concurrency model in DESIGN.md §11 from the
# declarations in rules.toml [confinement-global]. Computed lexically
# over Project.cleaned.

#: Keywords that can never start a variable definition at namespace
#: scope (filters function bodies, type definitions, using aliases...).
_NS_NONVAR_KEYWORDS = frozenset(
    """using typedef return extern friend template namespace class
    struct enum union public private protected case goto else if for
    while switch do try catch static_assert operator void""".split())

#: A namespace-scope variable definition: `Type name;`,
#: `Type name = init;`, `Type name{init};` or `Type name(init);` on one
#: line (the last is told apart from a function declaration by
#: _is_variable). The type may be qualified/templated; the name may be
#: a qualified out-of-class static-member definition
#: (`Type Class::member = init;`).
_NS_VAR_RE = re.compile(
    r"^([A-Za-z_][\w:]*(?:\s*<[^;={}]*>)?(?:\s*[*&])*)\s+"
    r"[A-Za-z_][\w:]*\s*"
    r"(?:\{[^{}]*\}|\[[^\]]*\]|\([^()]*\)|=[^=;][^;]*)?\s*;")

#: A direct-initialiser argument that can only be a value: a number,
#: a (blanked) string or char literal, or a value-style identifier
#: (camelCase, _member, kConstant, true/nullptr), possibly qualified.
_VALUE_ARG_RE = re.compile(
    r"""^(?:[-+]?\d[\w.']*|"\s*"|'\s*'|(?:\w+::)*(?:[a-z_]\w*|k[A-Z]\w*))$""")
_TYPE_WORDS = frozenset(
    "auto bool char double float int long short signed unsigned void"
    .split())

_STATIC_DECL_RE = re.compile(r"^\s*(?:inline\s+)?static\s+")

#: Declarations carrying one of these are synchronization-aware and
#: exempt from confinement-global (plus whatever rules.toml's
#: [confinement-global].synchronized_types adds).
_EXEMPT_RE = re.compile(r"\bconst\b|\bconstexpr\b|\bthread_local\b")
_BUILTIN_SYNC_MARKERS = ("std::atomic", "std::once_flag")


def _scope_kinds(clean: list[str]):
    """Yield (line_index, at_namespace_scope) for every line, tracking
    a brace stack whose openers are classified as namespace, type, or
    other (function bodies, initializers) scopes. A line starting
    inside an unclosed parenthesis group (the continuation of a
    multi-line declaration) is never at namespace scope."""
    stack: list[str] = []
    paren_depth = 0
    prev_nonblank = ""
    type_open_re = re.compile(
        r"^\s*(?:template\s*<[^<>]*>\s*)?"
        r"(?:class|struct|enum|union)\b")
    for i, line in enumerate(clean):
        yield i, paren_depth == 0 and all(
            kind == "ns" for kind in stack)
        col = 0
        for ch in line:
            if ch == "{":
                header = line[:col].strip() or prev_nonblank
                if re.search(r"\bnamespace\b", header):
                    stack.append("ns")
                elif type_open_re.match(header):
                    stack.append("type")
                else:
                    stack.append("other")
            elif ch == "}" and stack:
                stack.pop()
            elif ch == "(":
                paren_depth += 1
            elif ch == ")" and paren_depth:
                paren_depth -= 1
            col += 1
        if line.strip():
            prev_nonblank = line.strip()


def _is_value_arg(arg: str) -> bool:
    return (bool(_VALUE_ARG_RE.match(arg)) and not arg.endswith("_t")
            and arg.split("::")[-1] not in _TYPE_WORDS)


def _is_variable(line: str) -> bool:
    """False for a function declaration or definition. A '(' before
    the first initializer/terminator means a function unless the
    parenthesised list is non-empty and every argument is a value
    (`std::vector<int> g(4);`): a type (`int f(int);`, `Tick f(Tick);`)
    or a `Type name` pair (`int f(int x);`) declares a function."""
    head = re.split(r"[={;]", line, maxsplit=1)[0]
    if "[[" in head:
        return False
    if "(" not in head:
        return True
    m = re.search(r"\(([^()]*)\)\s*$", head)
    return bool(m and m.group(1).strip()) and all(
        _is_value_arg(arg.strip()) for arg in m.group(1).split(","))


def check_confinement_global(project: Project, manifest: dict,
                             src_root: str = "src") -> list[Hit]:
    """Mutable static-storage state must be synchronized (atomic, a
    sync.hh type, or a manifest-listed type), thread-local, or const:
    anything else is invisible shared state that the parallel sweep
    (runConfigs) would race on."""
    sync_markers = _BUILTIN_SYNC_MARKERS + tuple(
        manifest.get("confinement-global", {}).get(
            "synchronized_types", []))

    def exempt(line: str) -> bool:
        return bool(_EXEMPT_RE.search(line)) or any(
            marker in line for marker in sync_markers)

    findings = []
    for path, clean in project.cleaned.items():
        if _module_of(path, src_root) is None:
            continue
        for i, at_ns in _scope_kinds(clean):
            line = clean[i]
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if _STATIC_DECL_RE.match(line):
                # static anywhere: class member, function-local, or
                # file scope — all outlive the run and are shared.
                decl = stripped
                if not re.search(r"[;=({]", decl) and i + 1 < len(clean):
                    # `static long` alone: the return type of a
                    # gem5-style definition, or a split declaration.
                    decl += " " + clean[i + 1].strip()
                if exempt(line) or not _is_variable(decl):
                    continue
                findings.append((
                    path, i + 1,
                    "mutable static state is shared across threads; "
                    "make it std::atomic, a sync.hh type, thread_local "
                    "or const (rules.toml [confinement-global])"))
                continue
            if not at_ns:
                continue
            body = re.sub(r"^inline\s+", "", stripped)
            m = _NS_VAR_RE.match(body)
            if not m:
                continue
            first_word = re.split(r"[^\w]", body, maxsplit=1)[0]
            if first_word in _NS_NONVAR_KEYWORDS:
                continue
            if exempt(line) or not _is_variable(body):
                continue
            findings.append((
                path, i + 1,
                "mutable namespace-scope state is shared across "
                "threads; make it std::atomic, a sync.hh type, "
                "thread_local or const (rules.toml [confinement-global])"))
    return findings

