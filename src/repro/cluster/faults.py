"""Deterministic fault injection for the simulated cluster.

The paper's evaluation assumes perfectly reliable workers; real clusters do
not cooperate. This module adds a seeded, fully deterministic fault model so
every trainer can be exercised under crashes, stragglers, lossy links and
corrupted gradients — and so the same faults replay identically under the
serial and process executors (drop/corrupt draws are keyed on
``(seed, worker, step)``, never on call order).

Event taxonomy
--------------
``crash``
    Worker ``w`` is down for steps ``[start, end)`` and rejoins at ``end``
    (open-ended windows never rejoin). A down worker computes nothing,
    contributes nothing to aggregation, and its loader/optimizer freeze.
``straggle``
    Worker ``w``'s compute time is multiplied by ``factor`` for every step
    in the window; the same factor scales its upload-retry transfers, so a
    slow worker also retransmits slowly.
``drop``
    Each gradient/parameter upload is lost with probability ``p``
    (per-worker per-step Bernoulli). Lost uploads are retried with
    exponential backoff charged to the cost model; after
    :data:`MAX_UPLOAD_RETRIES` failures the update is abandoned for the
    step and the worker is excluded from that aggregation round.
``corrupt``
    Worker ``w``'s gradient is overwritten with a NaN/inf burst in the
    window. Degraded-mode trainers detect the poisoned update and reject
    it rather than averaging it into the global model.

Spec grammar
------------
One compact string shared by the CLI, the tests and the experiment runner::

    spec    := clause ("," clause)*
    clause  := "crash:w" ID window
             | "straggle:w" ID "x" FACTOR window
             | "corrupt:w" ID window
             | "drop:" ["w" ID ":"] "p=" PROB [window]
    window  := "@" START            (corrupt: one step; others: open-ended)
             | "@" START "-" END    (half-open [START, END))
             | "@" START "+"        (open-ended)

Example: ``crash:w2@50-120,straggle:w0x4@30+,drop:p=0.05``.

Link-level faults
-----------------
Worker faults model sick *nodes*; the network has its own failure modes —
lost messages, flapping links, full partitions — with their own spec
grammar (``ClusterConfig.net_fault_spec`` / ``--net-faults``). Clauses are
semicolon-free, comma-separated like worker faults, but because partition
groups use commas internally, clauses are split on commas *outside*
braces/parens::

    netspec := clause ("," clause)*
    clause  := "partition:{" group ("|" group)* "}" window
             | "flap:link(" A "," B ")x" PERIOD [window]
             | "loss:" ["link(" A "," B "):"] "p=" PROB [window]
             | "dup:"  ["link(" A "," B "):"] "p=" PROB [window]
             | "delay:link(" A "," B ")x" FACTOR [window]
    group   := member ("," member)*
    member  := "w" ID | "w" ID ".." ["w"] ID     (w2..w7 = w2,w3,...,w7)

``partition`` cuts every link between different groups for the window
(workers not named in any group ride with the majority side).  ``flap``
toggles one link down/up with half-period PERIOD steps.  ``loss`` drops
each message on the link (or all links) with probability ``p`` per
attempt; ``dup`` delivers a duplicate (idempotent, but the extra transfer
is charged).  ``delay`` multiplies the link's transfer time by FACTOR.

Example: ``partition:{w0,w1|w2..w7}@100-200,flap:link(2,5)x3@50+,loss:p=0.02``.

All link draws are keyed on ``(seed, src, dst, step)`` — see
:class:`repro.comm.network.LinkFaultModel` — so sequences replay
identically across executors and call orders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs


class QuorumLostError(RuntimeError):
    """Raised when fewer workers than ``min_quorum`` can contribute to an
    aggregation round — a loud failure instead of a silently wrong mean.

    Instances raised by the trainers carry ``step`` / ``contributing`` /
    ``quorum`` attributes so a recovery supervisor can relax the quorum to
    the surviving worker set before retrying.
    """

    step: int = -1
    contributing: int = -1
    quorum: int = -1


class NonFiniteUpdateError(ValueError):
    """A NaN/Inf update vector reached an aggregation point that cannot
    tolerate it (the plain-mean path, or a robust round where *every*
    contribution was non-finite). Subclasses ``ValueError`` so existing
    shape-validation handlers keep working."""


#: Abandon an upload after this many failed retries (the update is lost for
#: the step and the worker drops out of that aggregation round).
MAX_UPLOAD_RETRIES = 8

#: First-retry backoff in simulated seconds; retry ``k`` waits ``base·2^k``.
RETRY_BACKOFF_BASE_S = 0.05


def retry_backoff_seconds(n_retries: int) -> float:
    """Total exponential-backoff wait for ``n_retries`` failed attempts."""
    if n_retries < 0:
        raise ValueError(f"n_retries must be >= 0, got {n_retries}")
    # base * (2^n - 1): geometric series of base·2^k for k in [0, n).
    return RETRY_BACKOFF_BASE_S * (2.0**n_retries - 1.0)


# -- fault clauses -----------------------------------------------------------


@dataclass(frozen=True)
class CrashFault:
    """Worker ``worker`` is down for steps ``[start, end)``; ``end=None``
    means it never rejoins."""

    worker: int
    start: int
    end: Optional[int] = None

    kind = "crash"

    def covers(self, step: int) -> bool:
        return step >= self.start and (self.end is None or step < self.end)

    def to_spec(self) -> str:
        return f"crash:w{self.worker}@{_window_str(self.start, self.end)}"


@dataclass(frozen=True)
class StraggleFault:
    """Worker ``worker`` runs ``factor``× slower for steps ``[start, end)``."""

    worker: int
    factor: float
    start: int
    end: Optional[int] = None

    kind = "straggle"

    def covers(self, step: int) -> bool:
        return step >= self.start and (self.end is None or step < self.end)

    def to_spec(self) -> str:
        return (
            f"straggle:w{self.worker}x{_number_str(self.factor)}"
            f"@{_window_str(self.start, self.end)}"
        )


@dataclass(frozen=True)
class DropFault:
    """Uploads are lost with probability ``p``; ``worker=None`` hits all."""

    p: float
    worker: Optional[int] = None
    start: int = 0
    end: Optional[int] = None

    kind = "drop"

    def covers(self, worker: int, step: int) -> bool:
        if self.worker is not None and worker != self.worker:
            return False
        return step >= self.start and (self.end is None or step < self.end)

    def to_spec(self) -> str:
        prefix = "drop:" if self.worker is None else f"drop:w{self.worker}:"
        s = f"{prefix}p={_number_str(self.p)}"
        if self.start != 0 or self.end is not None:
            s += f"@{_window_str(self.start, self.end)}"
        return s


@dataclass(frozen=True)
class CorruptFault:
    """Worker ``worker``'s gradient is NaN/inf-poisoned in ``[start, end)``."""

    worker: int
    start: int
    end: int  # always bounded; a single-step burst has end = start + 1

    kind = "corrupt"

    def covers(self, step: int) -> bool:
        return self.start <= step < self.end

    def to_spec(self) -> str:
        if self.end == self.start + 1:
            return f"corrupt:w{self.worker}@{self.start}"
        return f"corrupt:w{self.worker}@{self.start}-{self.end}"


@dataclass(frozen=True)
class RandomCorruptFault:
    """Adversarial (finite) corruption: each covered worker's gradient is
    replaced with a hostile vector with probability ``p`` per step.

    Unlike :class:`CorruptFault`'s NaN burst — which any finiteness check
    detects — the adversarial gradient is fully finite (a scaled sign-flip
    plus large-norm noise), so a plain mean silently averages it in. This
    is the threat model robust aggregators exist for. ``worker=None``
    covers all workers.
    """

    p: float
    worker: Optional[int] = None
    start: int = 0
    end: Optional[int] = None

    kind = "adversarial"

    def covers(self, worker: int, step: int) -> bool:
        if self.worker is not None and worker != self.worker:
            return False
        return step >= self.start and (self.end is None or step < self.end)

    def to_spec(self) -> str:
        prefix = "corrupt:" if self.worker is None else f"corrupt:w{self.worker}:"
        s = f"{prefix}p={_number_str(self.p)}"
        if self.start != 0 or self.end is not None:
            s += f"@{_window_str(self.start, self.end)}"
        return s


def _window_str(start: int, end: Optional[int]) -> str:
    return f"{start}+" if end is None else f"{start}-{end}"


def _number_str(x: float) -> str:
    """Render a float compactly and canonically (4 → "4", 0.05 → "0.05")."""
    f = float(x)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


# -- the plan ----------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """Immutable, canonically ordered collection of fault clauses."""

    crashes: Tuple[CrashFault, ...] = ()
    straggles: Tuple[StraggleFault, ...] = ()
    drops: Tuple[DropFault, ...] = ()
    corruptions: Tuple[CorruptFault, ...] = ()
    rand_corruptions: Tuple[RandomCorruptFault, ...] = ()

    @property
    def empty(self) -> bool:
        return not (
            self.crashes
            or self.straggles
            or self.drops
            or self.corruptions
            or self.rand_corruptions
        )

    def to_spec(self) -> str:
        """Canonical spec string: kinds in a fixed order, each kind sorted
        by (worker, start). ``parse_fault_spec(plan.to_spec()) == plan``."""
        clauses: List[str] = []
        clauses += [c.to_spec() for c in sorted(self.crashes, key=lambda c: (c.worker, c.start))]
        clauses += [s.to_spec() for s in sorted(self.straggles, key=lambda s: (s.worker, s.start))]
        clauses += [
            d.to_spec()
            for d in sorted(self.drops, key=lambda d: (-1 if d.worker is None else d.worker, d.start))
        ]
        clauses += [c.to_spec() for c in sorted(self.corruptions, key=lambda c: (c.worker, c.start))]
        clauses += [
            r.to_spec()
            for r in sorted(
                self.rand_corruptions,
                key=lambda r: (-1 if r.worker is None else r.worker, r.start),
            )
        ]
        return ",".join(clauses)

    def max_worker(self) -> int:
        """Highest worker id named anywhere in the plan (-1 if none)."""
        ids = [c.worker for c in self.crashes]
        ids += [s.worker for s in self.straggles]
        ids += [d.worker for d in self.drops if d.worker is not None]
        ids += [c.worker for c in self.corruptions]
        ids += [r.worker for r in self.rand_corruptions if r.worker is not None]
        return max(ids) if ids else -1

    def validate(self, n_workers: int) -> None:
        """Reject plans that name workers outside the cluster or would take
        every worker down simultaneously forever (an unrunnable cluster)."""
        hi = self.max_worker()
        if hi >= n_workers:
            raise ValueError(
                f"fault plan names worker {hi} but the cluster has only "
                f"{n_workers} workers (ids 0..{n_workers - 1})"
            )


_WINDOW_RE = re.compile(r"^(\d+)(\+|-(\d+))?$")


def _parse_window(text: str, clause: str) -> Tuple[int, Optional[int], bool]:
    """Return ``(start, end, explicit_open)``; ``end=None`` when bare/open."""
    m = _WINDOW_RE.match(text)
    if not m:
        raise ValueError(f"bad fault window {text!r} in clause {clause!r}")
    start = int(m.group(1))
    if m.group(2) is None:
        return start, None, False
    if m.group(2) == "+":
        return start, None, True
    end = int(m.group(3))
    if end <= start:
        raise ValueError(
            f"fault window must end after it starts, got {text!r} in {clause!r}"
        )
    return start, end, False


_CRASH_RE = re.compile(r"^crash:w(\d+)@(.+)$")
_STRAGGLE_RE = re.compile(r"^straggle:w(\d+)x([0-9.eE+-]+)@(.+)$")
_CORRUPT_RE = re.compile(r"^corrupt:w(\d+)@(.+)$")
_RAND_CORRUPT_RE = re.compile(r"^corrupt:(?:w(\d+):)?p=([0-9.eE+-]+?)(?:@(.+))?$")
_DROP_RE = re.compile(r"^drop:(?:w(\d+):)?p=([0-9.eE+-]+?)(?:@(.+))?$")


def parse_fault_spec(spec: Optional[str]) -> FaultPlan:
    """Parse the compact fault-spec grammar (module docstring) into a plan.

    Empty/None specs yield an empty plan. Raises ``ValueError`` with the
    offending clause on any syntax or range error.
    """
    if spec is None or not spec.strip():
        return FaultPlan()
    crashes: List[CrashFault] = []
    straggles: List[StraggleFault] = []
    drops: List[DropFault] = []
    corruptions: List[CorruptFault] = []
    rand_corruptions: List[RandomCorruptFault] = []
    for raw in spec.split(","):
        clause = raw.strip()
        if not clause:
            continue
        if clause.startswith("crash:"):
            m = _CRASH_RE.match(clause)
            if not m:
                raise ValueError(f"bad crash clause {clause!r}")
            start, end, _ = _parse_window(m.group(2), clause)
            crashes.append(CrashFault(worker=int(m.group(1)), start=start, end=end))
        elif clause.startswith("straggle:"):
            m = _STRAGGLE_RE.match(clause)
            if not m:
                raise ValueError(f"bad straggle clause {clause!r}")
            factor = float(m.group(2))
            if factor <= 0:
                raise ValueError(f"straggle factor must be > 0 in {clause!r}")
            start, end, _ = _parse_window(m.group(3), clause)
            straggles.append(
                StraggleFault(worker=int(m.group(1)), factor=factor, start=start, end=end)
            )
        elif clause.startswith("corrupt:") and "p=" in clause:
            # Probabilistic *adversarial* corruption, mirroring the drop
            # grammar: ``corrupt:[wID:]p=PROB[@window]``.
            m = _RAND_CORRUPT_RE.match(clause)
            if not m:
                raise ValueError(f"bad corrupt clause {clause!r}")
            p = float(m.group(2))
            if not 0.0 < p <= 1.0:
                raise ValueError(
                    f"corrupt probability must be in (0, 1], got {clause!r}"
                )
            worker = None if m.group(1) is None else int(m.group(1))
            if m.group(3) is None:
                start, end = 0, None
            else:
                start, end, _ = _parse_window(m.group(3), clause)
            rand_corruptions.append(
                RandomCorruptFault(p=p, worker=worker, start=start, end=end)
            )
        elif clause.startswith("corrupt:"):
            m = _CORRUPT_RE.match(clause)
            if not m:
                raise ValueError(f"bad corrupt clause {clause!r}")
            start, end, explicit_open = _parse_window(m.group(2), clause)
            if end is None:
                if explicit_open:
                    raise ValueError(
                        f"corrupt windows must be bounded (a permanent NaN "
                        f"source is never aggregatable): {clause!r}"
                    )
                end = start + 1  # bare "@s": a one-step burst
            corruptions.append(CorruptFault(worker=int(m.group(1)), start=start, end=end))
        elif clause.startswith("drop:"):
            m = _DROP_RE.match(clause)
            if not m:
                raise ValueError(f"bad drop clause {clause!r}")
            p = float(m.group(2))
            if not 0.0 < p <= 1.0:
                raise ValueError(f"drop probability must be in (0, 1], got {clause!r}")
            worker = None if m.group(1) is None else int(m.group(1))
            if m.group(3) is None:
                start, end = 0, None
            else:
                start, end, _ = _parse_window(m.group(3), clause)
            drops.append(DropFault(p=p, worker=worker, start=start, end=end))
        else:
            raise _unknown_kind_error(clause, "worker-level")
    # Normalize clause order (same keys as ``to_spec``) so plans compare by
    # content, not by the order the user happened to write clauses in —
    # this is what makes ``parse(plan.to_spec()) == plan`` hold universally.
    return FaultPlan(
        crashes=tuple(sorted(crashes, key=lambda c: (c.worker, c.start))),
        straggles=tuple(sorted(straggles, key=lambda s: (s.worker, s.start))),
        drops=tuple(
            sorted(drops, key=lambda d: (-1 if d.worker is None else d.worker, d.start))
        ),
        corruptions=tuple(sorted(corruptions, key=lambda c: (c.worker, c.start))),
        rand_corruptions=tuple(
            sorted(
                rand_corruptions,
                key=lambda r: (-1 if r.worker is None else r.worker, r.start),
            )
        ),
    )


def canonical_fault_spec(spec: Optional[str]) -> str:
    """Canonical form of a spec string (parse → re-emit)."""
    return parse_fault_spec(spec).to_spec()


# -- link-level faults --------------------------------------------------------

#: Registered worker-level fault kinds → grammar hint (one line each).
WORKER_FAULT_KINDS: Dict[str, str] = {
    "crash": "crash:wID@WINDOW",
    "straggle": "straggle:wIDxFACTOR@WINDOW",
    "drop": "drop:[wID:]p=PROB[@WINDOW]",
    "corrupt": "corrupt:wID@WINDOW  or  corrupt:[wID:]p=PROB[@WINDOW]",
}

#: Registered link-level fault kinds → grammar hint (one line each).
LINK_FAULT_KINDS: Dict[str, str] = {
    "partition": "partition:{wA,wB|wC..wD}@WINDOW",
    "flap": "flap:link(A,B)xPERIOD[@WINDOW]",
    "loss": "loss:[link(A,B):]p=PROB[@WINDOW]",
    "dup": "dup:[link(A,B):]p=PROB[@WINDOW]",
    "delay": "delay:link(A,B)xFACTOR[@WINDOW]",
}


def _unknown_kind_error(clause: str, level: str) -> ValueError:
    """One actionable error for any unknown/misplaced fault clause.

    Lists every registered kind — worker- and link-level — and where each
    belongs, so a user who typed a link clause into ``--fault-spec`` (or
    vice versa) is redirected instead of left guessing.
    """
    kind = clause.split(":", 1)[0].split("{", 1)[0].strip()
    lines = [f"unknown {level} fault clause {clause!r}"]
    if level == "worker-level" and kind in LINK_FAULT_KINDS:
        lines[0] = (
            f"{kind!r} is a link-level fault kind; it belongs in the "
            f"net-fault spec (--net-faults / ClusterConfig.net_fault_spec), "
            f"not the worker fault spec"
        )
    elif level == "link-level" and kind in WORKER_FAULT_KINDS:
        lines[0] = (
            f"{kind!r} is a worker-level fault kind; it belongs in the "
            f"worker fault spec (--fault-spec / ClusterConfig.fault_spec), "
            f"not the net-fault spec"
        )
    lines.append("registered worker-level kinds (--fault-spec):")
    lines += [f"  {k}: {g}" for k, g in WORKER_FAULT_KINDS.items()]
    lines.append("registered link-level kinds (--net-faults):")
    lines += [f"  {k}: {g}" for k, g in LINK_FAULT_KINDS.items()]
    return ValueError("\n".join(lines))


def _link_key(a: int, b: int) -> Tuple[int, int]:
    """Canonical undirected link id (smaller rank first)."""
    a, b = int(a), int(b)
    if a == b:
        raise ValueError(f"a link needs two distinct endpoints, got ({a},{b})")
    if a < 0 or b < 0:
        raise ValueError(f"link endpoints must be worker ranks >= 0, got ({a},{b})")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class PartitionFault:
    """Links between different ``groups`` are down for steps ``[start, end)``.

    Groups are disjoint worker-id tuples; workers not named in any group
    are treated as members of the majority side (largest group, ties
    broken toward the group holding the lowest worker id).
    """

    groups: Tuple[Tuple[int, ...], ...]
    start: int
    end: Optional[int] = None

    kind = "partition"

    def covers(self, step: int) -> bool:
        return step >= self.start and (self.end is None or step < self.end)

    def side_of(self, worker: int) -> Optional[int]:
        for gi, g in enumerate(self.groups):
            if worker in g:
                return gi
        return None

    def majority_index(self) -> int:
        """Index of the majority group (largest; ties → lowest worker id)."""
        return min(
            range(len(self.groups)),
            key=lambda gi: (-len(self.groups[gi]), min(self.groups[gi])),
        )

    def severs(self, a: int, b: int) -> bool:
        """Is the (a, b) link cut? Unnamed workers ride with the majority."""
        maj = self.majority_index()
        sa = self.side_of(a)
        sb = self.side_of(b)
        sa = maj if sa is None else sa
        sb = maj if sb is None else sb
        return sa != sb

    def to_spec(self) -> str:
        return (
            "partition:{"
            + "|".join(_group_str(g) for g in self.groups)
            + "}@"
            + _window_str(self.start, self.end)
        )


@dataclass(frozen=True)
class FlapFault:
    """Link ``(a, b)`` toggles down/up with half-period ``period`` steps.

    Within the window the link is *down* on steps where
    ``((step - start) // period) % 2 == 0`` — so ``flap:link(2,5)x3@50+``
    is down on 50–52, up on 53–55, down on 56–58, and so on.
    """

    a: int
    b: int
    period: int
    start: int
    end: Optional[int] = None

    kind = "flap"

    def covers(self, step: int) -> bool:
        return step >= self.start and (self.end is None or step < self.end)

    def is_down(self, step: int) -> bool:
        if not self.covers(step):
            return False
        return ((step - self.start) // self.period) % 2 == 0

    def to_spec(self) -> str:
        return (
            f"flap:link({self.a},{self.b})x{self.period}"
            f"@{_window_str(self.start, self.end)}"
        )


@dataclass(frozen=True)
class LossFault:
    """Messages on ``link`` (``None`` = every link) are lost with
    probability ``p`` per attempt in ``[start, end)``."""

    p: float
    link: Optional[Tuple[int, int]] = None
    start: int = 0
    end: Optional[int] = None

    kind = "loss"

    def covers(self, a: int, b: int, step: int) -> bool:
        if self.link is not None and self.link != _link_key(a, b):
            return False
        return step >= self.start and (self.end is None or step < self.end)

    def to_spec(self) -> str:
        prefix = (
            "loss:" if self.link is None
            else f"loss:link({self.link[0]},{self.link[1]}):"
        )
        s = f"{prefix}p={_number_str(self.p)}"
        if self.start != 0 or self.end is not None:
            s += f"@{_window_str(self.start, self.end)}"
        return s


@dataclass(frozen=True)
class DupFault:
    """Messages on ``link`` (``None`` = every link) are duplicated with
    probability ``p``; delivery is idempotent but the duplicate transfer
    is charged to the metrics ledger."""

    p: float
    link: Optional[Tuple[int, int]] = None
    start: int = 0
    end: Optional[int] = None

    kind = "dup"

    def covers(self, a: int, b: int, step: int) -> bool:
        if self.link is not None and self.link != _link_key(a, b):
            return False
        return step >= self.start and (self.end is None or step < self.end)

    def to_spec(self) -> str:
        prefix = (
            "dup:" if self.link is None
            else f"dup:link({self.link[0]},{self.link[1]}):"
        )
        s = f"{prefix}p={_number_str(self.p)}"
        if self.start != 0 or self.end is not None:
            s += f"@{_window_str(self.start, self.end)}"
        return s


@dataclass(frozen=True)
class DelayFault:
    """Transfers on link ``(a, b)`` take ``factor``× longer in the window
    (overlapping delay clauses on one link multiply)."""

    a: int
    b: int
    factor: float
    start: int = 0
    end: Optional[int] = None

    kind = "delay"

    def covers(self, step: int) -> bool:
        return step >= self.start and (self.end is None or step < self.end)

    def to_spec(self) -> str:
        s = f"delay:link({self.a},{self.b})x{_number_str(self.factor)}"
        if self.start != 0 or self.end is not None:
            s += f"@{_window_str(self.start, self.end)}"
        return s


def _group_str(group: Sequence[int]) -> str:
    """Render a worker group compactly: runs of >= 3 become ``wA..wB``."""
    ids = sorted(group)
    parts: List[str] = []
    i = 0
    while i < len(ids):
        j = i
        while j + 1 < len(ids) and ids[j + 1] == ids[j] + 1:
            j += 1
        if j - i >= 2:
            parts.append(f"w{ids[i]}..w{ids[j]}")
        else:
            parts += [f"w{k}" for k in ids[i:j + 1]]
        i = j + 1
    return ",".join(parts)


@dataclass(frozen=True)
class NetFaultPlan:
    """Immutable, canonically ordered collection of link-fault clauses."""

    partitions: Tuple[PartitionFault, ...] = ()
    flaps: Tuple[FlapFault, ...] = ()
    losses: Tuple[LossFault, ...] = ()
    dups: Tuple[DupFault, ...] = ()
    delays: Tuple[DelayFault, ...] = ()

    @property
    def empty(self) -> bool:
        return not (
            self.partitions or self.flaps or self.losses or self.dups or self.delays
        )

    def to_spec(self) -> str:
        """Canonical spec: kinds in a fixed order, each sorted by its key.
        ``parse_net_fault_spec(plan.to_spec()) == plan``."""
        clauses: List[str] = []
        clauses += [p.to_spec() for p in sorted(self.partitions, key=lambda p: p.start)]
        clauses += [f.to_spec() for f in sorted(self.flaps, key=lambda f: (f.a, f.b, f.start))]
        clauses += [
            l.to_spec()
            for l in sorted(self.losses, key=lambda l: ((-1, -1) if l.link is None else l.link, l.start))
        ]
        clauses += [
            d.to_spec()
            for d in sorted(self.dups, key=lambda d: ((-1, -1) if d.link is None else d.link, d.start))
        ]
        clauses += [d.to_spec() for d in sorted(self.delays, key=lambda d: (d.a, d.b, d.start))]
        return ",".join(clauses)

    def max_worker(self) -> int:
        """Highest worker rank named anywhere in the plan (-1 if none)."""
        ids: List[int] = []
        for p in self.partitions:
            for g in p.groups:
                ids += list(g)
        for f in self.flaps:
            ids += [f.a, f.b]
        for l in self.losses:
            if l.link is not None:
                ids += list(l.link)
        for d in self.dups:
            if d.link is not None:
                ids += list(d.link)
        for d in self.delays:
            ids += [d.a, d.b]
        return max(ids) if ids else -1

    def validate(self, n_workers: int) -> None:
        hi = self.max_worker()
        if hi >= n_workers:
            raise ValueError(
                f"net-fault plan names worker {hi} but the cluster has only "
                f"{n_workers} workers (ids 0..{n_workers - 1})"
            )
        for p in self.partitions:
            seen: set = set()
            for g in p.groups:
                overlap = seen & set(g)
                if overlap:
                    raise ValueError(
                        f"partition groups must be disjoint; worker(s) "
                        f"{sorted(overlap)} appear in more than one group of "
                        f"{p.to_spec()!r}"
                    )
                seen |= set(g)


_LINK_RE = re.compile(r"^link\((\d+),(\d+)\)$")
_FLAP_RE = re.compile(r"^flap:link\((\d+),(\d+)\)x(\d+)(?:@(.+))?$")
_DELAY_RE = re.compile(r"^delay:link\((\d+),(\d+)\)x([0-9.eE+-]+?)(?:@(.+))?$")
_LINK_PROB_RE = re.compile(
    r"^(loss|dup):(?:link\((\d+),(\d+)\):)?p=([0-9.eE+-]+?)(?:@(.+))?$"
)
_PARTITION_RE = re.compile(r"^partition:\{(.+)\}@(.+)$")
_MEMBER_RE = re.compile(r"^w(\d+)(?:\.\.w?(\d+))?$")


def _split_net_clauses(spec: str) -> List[str]:
    """Split on commas outside ``{...}``/``(...)`` (partition groups and
    link endpoints legitimately contain commas)."""
    clauses: List[str] = []
    depth = 0
    cur: List[str] = []
    for ch in spec:
        if ch in "{(":
            depth += 1
        elif ch in "})":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced braces/parens in net-fault spec {spec!r}")
        if ch == "," and depth == 0:
            clauses.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced braces/parens in net-fault spec {spec!r}")
    clauses.append("".join(cur))
    return [c.strip() for c in clauses if c.strip()]


def _parse_group(text: str, clause: str) -> Tuple[int, ...]:
    members: List[int] = []
    for raw in text.split(","):
        m = _MEMBER_RE.match(raw.strip())
        if not m:
            raise ValueError(
                f"bad partition group member {raw.strip()!r} in {clause!r}; "
                f"expected wID or wID..wID"
            )
        lo = int(m.group(1))
        if m.group(2) is None:
            members.append(lo)
        else:
            hi = int(m.group(2))
            if hi <= lo:
                raise ValueError(
                    f"bad worker range w{lo}..w{hi} in {clause!r}; "
                    f"ranges must ascend"
                )
            members += list(range(lo, hi + 1))
    if not members:
        raise ValueError(f"empty partition group in {clause!r}")
    return tuple(sorted(set(members)))


def _parse_prob(text: str, clause: str) -> float:
    p = float(text)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"probability must be in (0, 1], got {clause!r}")
    return p


def parse_net_fault_spec(spec: Optional[str]) -> NetFaultPlan:
    """Parse the link-level fault grammar (module docstring) into a plan.

    Empty/None specs yield an empty plan. Unknown kinds raise one
    actionable error listing every registered fault kind (worker- and
    link-level) and which spec each belongs in.
    """
    if spec is None or not spec.strip():
        return NetFaultPlan()
    partitions: List[PartitionFault] = []
    flaps: List[FlapFault] = []
    losses: List[LossFault] = []
    dups: List[DupFault] = []
    delays: List[DelayFault] = []
    for clause in _split_net_clauses(spec):
        if clause.startswith("partition:"):
            m = _PARTITION_RE.match(clause)
            if not m:
                raise ValueError(
                    f"bad partition clause {clause!r}; expected "
                    f"{LINK_FAULT_KINDS['partition']}"
                )
            groups = tuple(
                _parse_group(g, clause) for g in m.group(1).split("|")
            )
            if len(groups) < 2:
                raise ValueError(
                    f"a partition needs at least two groups, got {clause!r}"
                )
            start, end, _ = _parse_window(m.group(2), clause)
            partitions.append(PartitionFault(groups=groups, start=start, end=end))
        elif clause.startswith("flap:"):
            m = _FLAP_RE.match(clause)
            if not m:
                raise ValueError(
                    f"bad flap clause {clause!r}; expected "
                    f"{LINK_FAULT_KINDS['flap']}"
                )
            a, b = _link_key(int(m.group(1)), int(m.group(2)))
            period = int(m.group(3))
            if period < 1:
                raise ValueError(f"flap period must be >= 1 in {clause!r}")
            if m.group(4) is None:
                start, end = 0, None
            else:
                start, end, _ = _parse_window(m.group(4), clause)
            flaps.append(FlapFault(a=a, b=b, period=period, start=start, end=end))
        elif clause.startswith(("loss:", "dup:")):
            m = _LINK_PROB_RE.match(clause)
            if not m:
                kind = clause.split(":", 1)[0]
                raise ValueError(
                    f"bad {kind} clause {clause!r}; expected "
                    f"{LINK_FAULT_KINDS[kind]}"
                )
            link = (
                None if m.group(2) is None
                else _link_key(int(m.group(2)), int(m.group(3)))
            )
            p = _parse_prob(m.group(4), clause)
            if m.group(5) is None:
                start, end = 0, None
            else:
                start, end, _ = _parse_window(m.group(5), clause)
            target = losses if m.group(1) == "loss" else dups
            cls = LossFault if m.group(1) == "loss" else DupFault
            target.append(cls(p=p, link=link, start=start, end=end))
        elif clause.startswith("delay:"):
            m = _DELAY_RE.match(clause)
            if not m:
                raise ValueError(
                    f"bad delay clause {clause!r}; expected "
                    f"{LINK_FAULT_KINDS['delay']}"
                )
            a, b = _link_key(int(m.group(1)), int(m.group(2)))
            factor = float(m.group(3))
            if factor <= 0:
                raise ValueError(f"delay factor must be > 0 in {clause!r}")
            if m.group(4) is None:
                start, end = 0, None
            else:
                start, end, _ = _parse_window(m.group(4), clause)
            delays.append(DelayFault(a=a, b=b, factor=factor, start=start, end=end))
        else:
            raise _unknown_kind_error(clause, "link-level")
    return NetFaultPlan(
        partitions=tuple(sorted(partitions, key=lambda p: p.start)),
        flaps=tuple(sorted(flaps, key=lambda f: (f.a, f.b, f.start))),
        losses=tuple(
            sorted(losses, key=lambda l: ((-1, -1) if l.link is None else l.link, l.start))
        ),
        dups=tuple(
            sorted(dups, key=lambda d: ((-1, -1) if d.link is None else d.link, d.start))
        ),
        delays=tuple(sorted(delays, key=lambda d: (d.a, d.b, d.start))),
    )


def canonical_net_fault_spec(spec: Optional[str]) -> str:
    """Canonical form of a net-fault spec string (parse → re-emit)."""
    return parse_net_fault_spec(spec).to_spec()


# -- the injector ------------------------------------------------------------


@dataclass
class StepFaults:
    """Fault transitions and state at one step, as seen by a trainer.

    ``live`` is the list of worker ids that are up this step; ``crashed`` /
    ``rejoined`` are the transitions that happened *at* this step (rejoined
    workers are live and need their state restored); ``corrupted`` lists the
    live workers whose gradient will be NaN-poisoned this step;
    ``adversarial`` lists the live workers whose gradient is replaced with a
    finite hostile vector (they still *look* healthy to any finiteness
    check and stay in the contributing set — only robust aggregation or
    health screening can defuse them).
    """

    step: int
    live: List[int]
    crashed: List[int]
    rejoined: List[int]
    corrupted: List[int]
    adversarial: List[int] = field(default_factory=list)


class FaultInjector:
    """Stateless-per-step fault oracle for one simulated cluster.

    All queries are pure functions of ``(plan, seed, worker, step)``; the
    injector holds no evolving state, so checkpoint/resume needs nothing
    from it and every executor backend sees identical faults.
    """

    def __init__(self, plan: FaultPlan, n_workers: int, seed: int = 0):
        plan.validate(n_workers)
        self.plan = plan
        self.n_workers = int(n_workers)
        self.seed = int(seed)

    @classmethod
    def disabled(cls, n_workers: int) -> "FaultInjector":
        return cls(FaultPlan(), n_workers)

    @property
    def active(self) -> bool:
        return not self.plan.empty

    # -- liveness ---------------------------------------------------------
    def is_down(self, worker: int, step: int) -> bool:
        return any(c.worker == worker and c.covers(step) for c in self.plan.crashes)

    def live_workers(self, step: int) -> List[int]:
        return [w for w in range(self.n_workers) if not self.is_down(w, step)]

    def begin_step(self, step: int) -> StepFaults:
        """Liveness and transitions for ``step`` (pure; no state mutated)."""
        live = self.live_workers(step)
        crashed = [
            c.worker
            for c in self.plan.crashes
            # is_down(w, -1) is False, so start-of-run crashes register too.
            if c.start == step and not self.is_down(c.worker, step - 1)
        ] if self.active else []
        # A worker "rejoins" at the first step after a crash window where it
        # is up again (adjacent windows merge into one outage).
        rejoined = [
            c.worker
            for c in self.plan.crashes
            if c.end == step and not self.is_down(c.worker, step)
        ] if self.active else []
        corrupted = [
            c.worker
            for c in self.plan.corruptions
            if c.covers(step) and c.worker in live
        ] if self.active else []
        # Dedup while preserving order (overlapping clauses for one worker).
        crashed = list(dict.fromkeys(crashed))
        rejoined = list(dict.fromkeys(rejoined))
        corrupted = list(dict.fromkeys(corrupted))
        corrupted_set = set(corrupted)
        adversarial = [
            w
            for w in live
            # A NaN burst takes precedence over the adversarial draw; the
            # draw itself is still consumed deterministically per worker.
            if self.adversarial_corrupts(w, step) and w not in corrupted_set
        ] if self.plan.rand_corruptions else []
        return StepFaults(
            step=step, live=live, crashed=crashed,
            rejoined=rejoined, corrupted=corrupted,
            adversarial=adversarial,
        )

    # -- stragglers -------------------------------------------------------
    def straggle_factor(self, worker: int, step: int) -> float:
        """Combined multiplicative slowdown for ``worker`` at ``step``
        (overlapping straggle windows multiply)."""
        f = 1.0
        for s in self.plan.straggles:
            if s.worker == worker and s.covers(step):
                f *= s.factor
        return f

    # -- lossy uploads ----------------------------------------------------
    def _event_rng(self, worker: int, step: int, salt: int) -> np.random.Generator:
        # Keyed on (seed, worker, step): identical draws no matter which
        # thread, executor or call order asks.
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, worker, step, salt])
        )

    def upload_retries(self, worker: int, step: int) -> Tuple[int, bool]:
        """Number of failed upload attempts before success, and whether the
        update was abandoned (``retries == MAX_UPLOAD_RETRIES``).

        Deterministic per ``(seed, worker, step)``. With no matching drop
        clause this is ``(0, False)`` without consuming any randomness.
        """
        p = 0.0
        for d in self.plan.drops:
            if d.covers(worker, step):
                # Independent loss channels compose: 1 - Π(1 - p_i).
                p = 1.0 - (1.0 - p) * (1.0 - d.p)
        if p <= 0.0:
            return 0, False
        rng = self._event_rng(worker, step, salt=0xD0)
        retries = 0
        while retries < MAX_UPLOAD_RETRIES and rng.random() < p:
            retries += 1
        return retries, retries >= MAX_UPLOAD_RETRIES

    def upload_penalty_seconds(
        self, worker: int, step: int, transfer_s: float
    ) -> Tuple[float, int, bool]:
        """Simulated extra seconds for this worker's upload at this step.

        Returns ``(extra_seconds, retries, lost)``. Each failed attempt
        costs one (straggle-scaled) retransfer plus exponential backoff;
        an abandoned upload still pays for every attempt it made.
        """
        retries, lost = self.upload_retries(worker, step)
        if retries == 0:
            return 0.0, 0, False
        scaled = transfer_s * self.straggle_factor(worker, step)
        tr = obs.active()
        if tr is not None:
            tr.metrics.inc("faults.upload_retries", retries)
            if lost:
                tr.metrics.inc("faults.uploads_lost")
        return retries * scaled + retry_backoff_seconds(retries), retries, lost

    # -- corruption -------------------------------------------------------
    def corrupts(self, worker: int, step: int) -> bool:
        return any(
            c.worker == worker and c.covers(step) for c in self.plan.corruptions
        )

    def corrupt_gradient(self, worker: int, step: int, grad: np.ndarray) -> np.ndarray:
        """Return a NaN/inf-poisoned copy of ``grad`` (deterministic burst:
        ~1% of entries NaN, one entry ±inf)."""
        tr = obs.active()
        if tr is not None:
            tr.metrics.inc("faults.corruptions")
        rng = self._event_rng(worker, step, salt=0xC0)
        out = np.array(grad, dtype=np.float64, copy=True)
        n = out.size
        k = max(1, n // 100)
        idx = rng.choice(n, size=min(k, n), replace=False)
        out.flat[idx] = np.nan
        out.flat[int(rng.integers(0, n))] = np.inf if rng.random() < 0.5 else -np.inf
        return out

    # -- adversarial (finite) corruption ----------------------------------
    #: Norm of an adversarial gradient relative to the honest one. Large
    #: enough that one hostile vector in a mean of ~8-16 visibly derails
    #: training; trivially trimmed by any coordinate-wise robust rule.
    ADVERSARIAL_BOOST = 40.0

    def adversarial_corrupts(self, worker: int, step: int) -> bool:
        """Deterministic Bernoulli: is this worker's gradient replaced with
        a hostile vector at this step? Independent clauses compose like
        drop probabilities."""
        p = 0.0
        for r in self.plan.rand_corruptions:
            if r.covers(worker, step):
                p = 1.0 - (1.0 - p) * (1.0 - r.p)
        if p <= 0.0:
            return False
        rng = self._event_rng(worker, step, salt=0xAD)
        return bool(rng.random() < p)

    def adversarial_gradient(
        self, worker: int, step: int, grad: np.ndarray
    ) -> np.ndarray:
        """A finite hostile gradient: sign-flipped and noise-boosted to
        ``ADVERSARIAL_BOOST ×`` the honest norm.

        Every entry is finite, so finiteness checks pass and a plain mean
        averages it straight into the global model — the Byzantine threat
        model robust aggregation exists for. Deterministic per
        ``(seed, worker, step)``.
        """
        tr = obs.active()
        if tr is not None:
            tr.metrics.inc("faults.adversarial")
        rng = self._event_rng(worker, step, salt=0xAE)
        g = np.asarray(grad, dtype=np.float64)
        norm = float(np.linalg.norm(g))
        if norm == 0.0 or not np.isfinite(norm):
            norm = 1.0
        noise = rng.standard_normal(g.shape)
        noise *= (norm / max(float(np.linalg.norm(noise)), 1e-30))
        return self.ADVERSARIAL_BOOST * (noise - g)

    # -- introspection ----------------------------------------------------
    def event_trace(self, n_steps: int) -> List[Tuple]:
        """Flat, ordered list of every event the plan injects in
        ``[0, n_steps)`` — the property-test surface for determinism.
        """
        trace: List[Tuple] = []
        for step in range(n_steps):
            sf = self.begin_step(step)
            for w in sf.crashed:
                trace.append(("crash", step, w))
            for w in sf.rejoined:
                trace.append(("rejoin", step, w))
            for w in sf.live:
                f = self.straggle_factor(w, step)
                if f != 1.0:
                    trace.append(("straggle", step, w, f))
                retries, lost = self.upload_retries(w, step)
                if retries:
                    trace.append(("drop", step, w, retries, lost))
            for w in sf.corrupted:
                trace.append(("corrupt", step, w))
            for w in sf.adversarial:
                trace.append(("adv_corrupt", step, w))
        return trace
