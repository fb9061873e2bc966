"""One clause grammar for every spec string a cluster takes.

Worker faults (``--fault-spec``), link faults (``--net-faults``) and
membership plans (``--elastic``) are comma-separated clauses of one shape::

    kind:[target][xN][[:]p=Q][@window]

What a kind takes is one row of :data:`KINDS`; the parser, the canonical
emitter and the error path read nothing but that table (DESIGN.md, "Spec
grammar"). What a clause *means* lives with its one consumer (the fault
injector, the link-fault model, the elastic controller), and this module
imports nothing from ``repro``.

Canonical form: kinds in table order; within a kind by (target, start) —
membership kinds by (start, target) — an absent target first, ties in the
order written. ``parse_spec(plan.to_spec(), plan.family) == plan``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple


class SpecError(ValueError):
    """A spec string could not be parsed, or names workers a cluster lacks."""


class ElasticSpecError(SpecError):
    """A membership (``--elastic``) spec string could not be parsed."""


#: Family -> (CLI flag, ``ClusterConfig`` field, label, error its defects raise).
FAMILIES: Dict[str, Tuple[str, str, str, type]] = {
    "worker": ("--fault-spec", "fault_spec", "worker-level fault", SpecError),
    "link": ("--net-faults", "net_fault_spec", "link-level fault", SpecError),
    "member": ("--elastic", "elastic_spec", "membership", ElasticSpecError),
}


@dataclass(frozen=True)
class Clause:
    """One parsed clause over steps ``[start, end)``; ``end=None`` is open-ended."""

    kind: str
    target: Any = None
    value: Optional[float] = None
    start: int = 0
    end: Optional[int] = None

    def covers(self, step: int) -> bool:
        return step >= self.start and (self.end is None or step < self.end)

    def to_spec(self) -> str:
        row = KINDS[self.kind]
        text = "" if self.target is None else _TARGETS[row.target.rstrip("?")][2](self.target)
        if row.value:
            lead = "x" if row.value[0] == "x" else ":p=" if text else "p="
            text += lead + _number_str(self.value)
        window = f"@{self.start}+" if self.end is None else f"@{self.start}-{self.end}"
        if row.window in ("single", "bounded") and self.end == self.start + 1:
            window = f"@{self.start}"
        elif row.window == "none" or (row.window == "optional" and window == "@0+"):
            window = ""  # the default is not printed, except by "printed" kinds
        return f"{row.word}:{text}{window}"


class Kind(NamedTuple):
    """One row of the grammar table."""

    name: str
    family: str
    target: str  # a key of _TARGETS; a trailing "?" makes the target optional
    value: str   # a key of _VALUES, or ""
    window: str  # a key of _WINDOWS
    hint: str
    #: ``check(clause, earlier clauses of this kind) -> problem or None``.
    check: Optional[Callable[[Clause, Sequence[Clause]], Optional[str]]] = None
    #: Keyword in the text; rows sharing one differ in taking ``p=`` or not.
    word: str = ""


def _check_partition(c: Clause, _earlier: Sequence[Clause]) -> Optional[str]:
    counts = Counter(w for group in c.target for w in group)
    fine = len(c.target) >= 2 and max(counts.values()) == 1
    return None if fine else "a partition needs two or more disjoint groups"


def _check_scale(c: Clause, earlier: Sequence[Clause]) -> Optional[str]:
    if earlier:
        return "duplicate scale clause (one scale:MIN..MAX per spec)"
    return None if 1 <= c.target[0] <= c.target[1] else "need 1 <= MIN <= MAX"


#: The one kind registry, in canonical emission order.
KINDS: Dict[str, Kind] = {k.name: k._replace(word=k.word or k.name) for k in (
    Kind("crash", "worker", "w", "", "required", "crash:wID@WINDOW"),
    Kind("straggle", "worker", "w", "xfloat", "required", "straggle:wIDxFACTOR@WINDOW"),
    Kind("drop", "worker", "w?", "p", "optional", "drop:[wID:]p=PROB[@WINDOW]"),
    Kind("corrupt", "worker", "w", "", "bounded", "corrupt:wID@STEP[-END]"),
    Kind("adversarial", "worker", "w?", "p", "optional",
         "corrupt:[wID:]p=PROB[@WINDOW]", word="corrupt"),
    Kind("partition", "link", "groups", "", "required",
         "partition:{wA,wB|wC..wD}@WINDOW", _check_partition),
    Kind("flap", "link", "link", "xint", "printed", "flap:link(A,B)xPERIOD[@WINDOW]"),
    Kind("loss", "link", "link?", "p", "optional", "loss:[link(A,B):]p=PROB[@WINDOW]"),
    Kind("dup", "link", "link?", "p", "optional", "dup:[link(A,B):]p=PROB[@WINDOW]"),
    Kind("delay", "link", "link", "xfloat", "optional", "delay:link(A,B)xFACTOR[@WINDOW]"),
    Kind("join", "member", "+K", "", "single", "join:+K@STEP",
         lambda c, _: None if c.target >= 1 else "count must be >= 1"),
    Kind("drain", "member", "w", "", "single", "drain:wR@STEP",
         lambda c, earlier: "duplicate drain clause" if c in earlier else None),
    Kind("scale", "member", "range", "", "none", "scale:MIN..MAX", _check_scale),
)}
_RANK = {name: rank for rank, name in enumerate(KINDS)}

_CLAUSE_RE = re.compile(
    r"^[a-z]+:"
    r"(?:w(?P<w>\d+)|link\((?P<a>\d+),(?P<b>\d+)\)|\{(?P<groups>.+)\}"
    r"|\+(?P<count>\d+)|(?P<lo>\d+)\.\.(?P<hi>\d+))?"
    r"(?:x(?P<x>[\d.eE+-]+))?"
    # ``p=`` follows the kind's colon directly, or a target and one colon.
    r"(?:(?:(?<!:):|(?<=:))p=(?P<p>[0-9.eE+-]+))?"
    r"(?:@(?P<start>\d+)(?:(?P<open>\+)|-(?P<end>\d+))?)?$"
)
_MEMBER_RE = re.compile(r"^w(\d+)(?:\.\.w?(\d+))?$")
#: A comma outside ``{...}`` / ``(...)`` (groups and links contain commas).
_COMMA_RE = re.compile(r",(?![^{(]*[})])")

#: Window form -> the shapes it takes: absent (= ``@0+``), ``@S`` (bare: one
#: step for single / bounded kinds, else open-ended), ``@S+``, ``@S-E``.
_WINDOWS = {
    "required": ("bare", "open", "range"),
    "optional": ("absent", "bare", "open", "range"),
    "printed": ("absent", "bare", "open", "range"),  # optional, always printed
    "bounded": ("bare", "range"),
    "single": ("bare",),
    "none": ("absent",),
}


def _error(family: str, clause: str, why: str = "") -> SpecError:
    """The one error path: the clause and its kind's hint; the right flag
    for a kind typed into the wrong one; every kind for an unknown one."""
    flag, _, label, error = FAMILIES[family]
    word = clause.split(":", 1)[0]
    rows = [k for k in KINDS.values() if k.word == word]
    if rows and rows[0].family == family:
        lines = [f"malformed {word} clause {clause!r}" + (f": {why}" if why else "")
                 + "; expected " + "  or  ".join(k.hint for k in rows)]
    elif rows:
        home_flag, home_field, home_label, _ = FAMILIES[rows[0].family]
        lines = [f"{word!r} is a {home_label} kind; it belongs in {home_flag} / "
                 f"ClusterConfig.{home_field}, not in {flag}: {clause!r}"]
    else:
        lines = [f"unknown {label} clause kind {word!r} in {clause!r}"]
        for name, (fam_flag, fam_field, fam_label, _) in FAMILIES.items():
            hints = [f"  {k.hint}" for k in KINDS.values() if k.family == name]
            lines += [f"{fam_label} kinds ({fam_flag} / ClusterConfig.{fam_field}):"] + hints
    return error("\n".join(lines))


#: Value form (its first letter is the regex group that carries it) -> what it is.
_VALUES = {"xfloat": "a finite number > 0", "xint": "a whole number >= 1",
           "p": "a probability in (0, 1]"}


def _number(text: str, form: str) -> float:
    """The one number reader."""
    try:
        value = int(text) if form == "xint" else float(text)
        # ``isdecimal`` is exactly what ``\d+`` admits; the float forms are ASCII.
        fine = text.isdecimal() if form == "xint" else text.isascii() and math.isfinite(value)
    except ValueError:
        fine = False
    if not fine or value <= 0 or (form == "p" and value > 1):
        raise ValueError(f"{text!r} is not {_VALUES[form]}")
    return value


def _number_str(x: float) -> str:
    """Render a number compactly and canonically (4.0 → "4", 0.05 → "0.05")."""
    return str(int(x)) if x == int(x) and abs(x) < 1e15 else repr(float(x))


def _read_link(m) -> Tuple[int, int]:
    a, b = sorted((int(m["a"]), int(m["b"])))
    if a == b:
        raise ValueError("a link needs two distinct endpoints")
    return a, b


def _read_groups(m) -> Tuple[Tuple[int, ...], ...]:
    groups = []
    for part in m["groups"].split("|"):
        ids: List[int] = []
        for raw in part.split(","):
            member = _MEMBER_RE.match(raw.strip())
            if not member or (member[2] and int(member[2]) <= int(member[1])):
                raise ValueError(f"bad group member {raw.strip()!r} (wID, or wLO..wHI ascending)")
            ids += range(int(member[1]), int(member[2] or member[1]) + 1)
        groups.append(tuple(sorted(set(ids))))
    return tuple(groups)


def _show_groups(groups) -> str:
    def show(ids):  # consecutive ids share ``id - position``; runs of 3+ print as wA..wB
        runs = [[w for _, w in run] for _, run in groupby(enumerate(ids), lambda iw: iw[1] - iw[0])]
        shown = [[f"w{r[0]}..w{r[-1]}"] if len(r) >= 3 else [f"w{w}" for w in r] for r in runs]
        return ",".join(w for run in shown for w in run)
    return "{" + "|".join(show(ids) for ids in groups) + "}"


#: Target form -> (its regex group, reader, printer, worker ids it names). A
#: link is stored smaller rank first; ``wA..wB`` in a group is inclusive.
_TARGETS: Dict[str, Tuple[str, Callable, Callable, Callable]] = {
    "w": ("w", lambda m: int(m["w"]), "w{}".format, lambda t: [t]),
    "link": ("a", _read_link, lambda t: f"link({t[0]},{t[1]})", list),
    "groups": ("groups", _read_groups, _show_groups, lambda t: [w for g in t for w in g]),
    "+K": ("count", lambda m: int(m["count"]), "+{}".format, lambda t: []),
    "range": ("lo", lambda m: (int(m["lo"]), int(m["hi"])),
              lambda t: f"{t[0]}..{t[1]}", lambda t: []),
}


def _parse_clause(text: str, family: str, earlier: Sequence[Clause]) -> Clause:
    word = text.split(":", 1)[0]
    rows = [k for k in KINDS.values() if k.word == word and k.family == family]
    m = _CLAUSE_RE.match(text) if rows else None
    if m is None:
        raise _error(family, text)
    # Rows sharing a keyword differ in whether they take ``p=``.
    row = next((k for k in rows if (k.value == "p") == (m["p"] is not None)), rows[0])
    try:
        group, read = _TARGETS[row.target.rstrip("?")][:2]
        given = [form[0] for form in _TARGETS.values() if m[form[0]] is not None]
        if given not in ([group], [] if row.target.endswith("?") else [group]):
            raise ValueError("wrong kind of target" if given else "missing target")
        target = read(m) if given else None

        for part in "xp":
            if (m[part] is not None) != (part == row.value[:1]):
                raise ValueError(f"{'unexpected' if m[part] else 'missing'} {part}-value")
        value = _number(m[row.value[0]], row.value) if row.value else None

        shape = ("absent" if m["start"] is None else "open" if m["open"]
                 else "range" if m["end"] else "bare")
        if shape not in _WINDOWS[row.window]:
            raise ValueError(f"{shape} window, takes {'/'.join(_WINDOWS[row.window])}")
        start = int(m["start"] or 0)
        end = int(m["end"]) if shape == "range" else None
        if shape == "range" and end <= start:
            raise ValueError("window must end after it starts")
        if shape == "bare" and row.window in ("single", "bounded"):
            end = start + 1
        clause = Clause(row.name, target, value, start, end)
        why = row.check and row.check(clause, [c for c in earlier if c.kind == row.name])
        if why:
            raise ValueError(why)
        return clause
    except ValueError as why:
        raise _error(family, text, str(why)) from None


def _worker_ids(c: Clause) -> List[int]:
    """Worker ids a clause's target names (none for counts and ranges)."""
    named = _TARGETS[KINDS[c.kind].target.rstrip("?")][3]
    return [] if c.target is None else named(c.target)


def _sort_key(c: Clause):
    row, rank = KINDS[c.kind], _RANK[c.kind]
    who = [] if row.target == "groups" else _worker_ids(c)  # partitions: by start alone
    return (rank, c.start, who) if row.family == "member" else (rank, who, c.start)


@dataclass(frozen=True)
class Plan:
    """Immutable, canonically ordered clauses of one family."""

    family: str
    clauses: Tuple[Clause, ...] = ()
    _by_kind: Dict[str, Tuple[Clause, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ordered = tuple(sorted(self.clauses, key=_sort_key))
        by_kind = {kind: tuple(c for c in ordered if c.kind == kind) for kind in KINDS}
        object.__setattr__(self, "clauses", ordered)
        object.__setattr__(self, "_by_kind", by_kind)

    def of(self, kind: str) -> Tuple[Clause, ...]:
        """This plan's clauses of one kind, in canonical order (a lookup)."""
        return self._by_kind[kind]

    @property
    def empty(self) -> bool:
        return not self.clauses

    def to_spec(self) -> str:
        """Canonical spec string (ordering: module docstring)."""
        return ",".join(c.to_spec() for c in self.clauses)

    def max_worker(self) -> int:
        """Highest worker id named anywhere in the plan (-1 if none)."""
        return max([-1] + [w for c in self.clauses for w in _worker_ids(c)])

    def validate(self, n_workers: int) -> None:
        """Reject a plan naming a worker an ``n_workers`` cluster lacks (never
        a membership plan: joins may have grown it by the step a drain names)."""
        if self.family != "member" and self.max_worker() >= n_workers:
            raise SpecError(f"{FAMILIES[self.family][2]} plan names worker {self.max_worker()} but "
                            f"the cluster has only {n_workers} workers (ids 0..{n_workers - 1})")


def parse_spec(spec: Optional[str], family: str) -> Plan:
    """Parse ``spec`` as clauses of ``family`` (``"worker"``, ``"link"`` or
    ``"member"``); ``None`` / blank, and ``"off"`` for members, give the empty
    plan. Every defect raises :class:`SpecError` (a ``ValueError``; for members
    :class:`ElasticSpecError`) naming the clause and its kind's grammar hint."""
    text = (spec or "").strip()
    if family == "member" and text.lower() == "off":
        text = ""
    clauses: List[Clause] = []
    for raw in filter(None, map(str.strip, _COMMA_RE.split(text))):
        clauses.append(_parse_clause(raw, family, clauses))
    return Plan(family, tuple(clauses))
