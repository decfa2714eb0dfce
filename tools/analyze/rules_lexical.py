"""Line-level convention rules: raw-addr-param, missing-nodiscard,
schedule-literal and timing-literal.

Each reads only Project.cleaned (comments and literal contents
blanked), one line at a time.
raw-addr-param and missing-nodiscard hold the headers of the modules
converted to the strong types (rules.toml `converted_modules`) to the
typed-interface conventions; the other two apply wherever the manifest
does not exempt them.
"""

from __future__ import annotations

import re

from model import Project
from rules import Hit

# --- raw-addr-param --------------------------------------------------

_RAW_INT_TYPES = (r"(?:std::uint64_t|std::uint32_t|uint64_t|uint32_t|Addr|"
                  r"unsigned long|unsigned int|unsigned|int|size_t|"
                  r"std::size_t)")
_ADDR_NAMES = (r"(?:addr|address|line|bank|channel|block|blockAddr|"
               r"lineAddr|bankId|channelId|deviceLine|physicalLine|"
               r"logicalLine)")
_TIME_NAMES = r"(?:now|tick|when|deadline)"

_RAW_ADDR_PARAM_RE = re.compile(
    rf"[(,]\s*(?:const\s+)?{_RAW_INT_TYPES}\s+{_ADDR_NAMES}\s*[,)=]")
_RAW_TIME_PARAM_RE = re.compile(
    rf"[(,]\s*(?:const\s+)?(?:std::uint64_t|uint64_t)\s+{_TIME_NAMES}"
    rf"\s*[,)=]")


def _converted_headers(project: Project, manifest: dict):
    modules = tuple(manifest.get("converted_modules", []))
    for path, clean in project.cleaned.items():
        if path.endswith(".hh") and path.startswith(modules):
            yield path, clean


def check_raw_addr_param(project: Project, manifest: dict) -> list[Hit]:
    findings = []
    for path, clean in _converted_headers(project, manifest):
        for i, code in enumerate(clean):
            if _RAW_ADDR_PARAM_RE.search(code):
                findings.append((
                    path, i + 1,
                    "raw integer parameter with an address-space name; "
                    "use the strong types from sim/strong_types.hh"))
            elif _RAW_TIME_PARAM_RE.search(code):
                findings.append((
                    path, i + 1,
                    "raw uint64_t parameter with a time name; use the "
                    "Tick alias"))
    return findings


# --- missing-nodiscard -----------------------------------------------

#: A return type: leading specifiers (`virtual`, `static`, `const`...),
#: then a possibly qualified, templated and const-qualified type name.
_SPECIFIERS = r"(?:(?:virtual|static|inline|constexpr|const)\s+)*"
_TYPE = r"[A-Za-z_][\w:]*(?:\s*<[^;(]*>)?(?:\s+const)?"

#: `Type name(...) const` on one line (void and operators excepted).
_CONST_ACCESSOR_RE = re.compile(
    rf"^\s*{_SPECIFIERS}(?!void\b)(?!.*\boperator\b){_TYPE}[\s&*]+"
    r"[a-zA-Z_]\w*\s*\([^;{}]*\)\s*const\b")

#: The gem5-style split form: `name(...) const` whose return type is
#: alone on the previous line (_RETURN_TYPE_LINE_RE).
_SPLIT_ACCESSOR_RE = re.compile(
    r"^\s*(?!operator\b)[a-zA-Z_]\w*\s*\([^;{}]*\)\s*const\b")
_RETURN_TYPE_LINE_RE = re.compile(
    rf"^\s*{_SPECIFIERS}"
    r"(?!(?:void|return|else|case|default|public|private|protected)\b)"
    rf"{_TYPE}[\s&*]*$")


def check_missing_nodiscard(project: Project, manifest: dict) -> list[Hit]:
    """Const accessors in converted headers must be [[nodiscard]]:
    silently dropping a queried stat or address is always a bug."""
    findings = []
    for path, clean in _converted_headers(project, manifest):
        for i, code in enumerate(clean):
            prev = clean[i - 1] if i else ""
            if _CONST_ACCESSOR_RE.search(code):
                attr_lines = (code, prev)
            elif (_SPLIT_ACCESSOR_RE.search(code)
                  and _RETURN_TYPE_LINE_RE.match(prev)):
                attr_lines = (code, prev, clean[i - 2] if i > 1 else "")
            else:
                continue
            if ("static_assert" in code
                    or code.lstrip().startswith("return")
                    or any("[[nodiscard]]" in ln for ln in attr_lines)):
                continue
            findings.append((path, i + 1,
                             "const accessor without [[nodiscard]]"))
    return findings


# --- schedule-literal ------------------------------------------------

_SCHEDULE_LITERAL_RE = re.compile(r"\bschedule\s*\(\s*\d")


def check_schedule_literal(project: Project, manifest: dict) -> list[Hit]:
    return [
        (path, i + 1,
         "schedule() with an absolute literal tick; schedule relative "
         "to the current time")
        for path, clean in project.cleaned.items()
        for i, code in enumerate(clean)
        if _SCHEDULE_LITERAL_RE.search(code)
    ]


# --- timing-literal --------------------------------------------------

#: <literal> * kXxxsecond in either order, or Tick(<literal>).
_TIMING_LITERAL_RE = re.compile(
    r"\b\d[\d']*(?:\.\d+)?[uUlL]*\s*\*\s*"
    r"k(?:(?:Pico|Nano|Micro|Milli)second|Second)\b"
    r"|\bk(?:(?:Pico|Nano|Micro|Milli)second|Second)\s*\*\s*\d"
    r"|\bTick\s*\(\s*\d")


def check_timing_literal(project: Project, manifest: dict) -> list[Hit]:
    """A literal scaled by a tick constant hard-codes a datasheet
    timing. Device timings come from configs/*.config through
    src/config/; compiled-in defaults live only in the manifest's
    sanctioned homes."""
    homes = tuple(manifest.get("timing-literal", {}).get("homes", []))
    return [
        (path, i + 1,
         "hard-coded timing literal; device timings come from "
         "configs/*.config via src/config/, compiled-in defaults live "
         "in src/nvm/timing.hh")
        for path, clean in project.cleaned.items()
        if path.startswith("src/") and not path.startswith(homes)
        for i, code in enumerate(clean)
        if _TIMING_LITERAL_RE.search(code)
    ]
