"""The intermediate representation mellow-analyze's rules consume.

The frontend (frontend_textual.py) lowers the source tree into a
Project; the rules (registry.py) only ever read this IR. The lexical
rules read nothing but ``Project.cleaned``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The strong types whose ``.value()`` is an escape from the typed
#: domain (see src/sim/strong_types.hh).
STRONG_TYPES = (
    "LogicalAddr",
    "LineIndex",
    "DeviceAddr",
    "LeveledAddr",
    "BankId",
    "ChannelId",
    "Picojoules",
    "PulseFactor",
)


@dataclass(frozen=True)
class Finding:
    rule: str
    file: str  # repo-relative path
    line: int  # 1-based
    message: str


@dataclass(frozen=True)
class ValueCall:
    """One ``<recv>.value()`` call on a strong type."""

    file: str
    line: int
    recv_type: str  # one of STRONG_TYPES
    enclosing: str  # qualified enclosing function ("" if unknown)


@dataclass
class FunctionDef:
    """A function definition with the facts the determinism rule needs."""

    name: str  # qualified: "Class::method" or "freeFunction"
    file: str
    start: int  # 1-based body start line
    end: int  # 1-based body end line
    calls: list[tuple[str, int]] = field(default_factory=list)
    #: (identifier, line, what) for banned-API uses in the body.
    banned: list[tuple[str, int, str]] = field(default_factory=list)
    #: (line, container) for range-for over unordered containers.
    unordered_iters: list[tuple[int, str]] = field(default_factory=list)
    #: True for synthetic lambda functions rooted at EventQueue::schedule.
    is_schedule_root: bool = False


@dataclass
class Project:
    """Everything the rules consume."""

    #: path -> raw source lines.
    files: dict[str, list[str]] = field(default_factory=dict)
    #: path -> list of (line, included-path-as-written).
    includes: dict[str, list[tuple[int, str]]] = field(default_factory=dict)
    value_calls: list[ValueCall] = field(default_factory=list)
    functions: list[FunctionDef] = field(default_factory=list)
    #: path -> lines with comments and string/char literal contents
    #: blanked (columns preserved); what every lexical rule reads.
    cleaned: dict[str, list[str]] = field(default_factory=dict)
