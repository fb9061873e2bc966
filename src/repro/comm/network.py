"""Network model: link bandwidths, latency, heterogeneity and link faults."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.utils.spec import Clause, Plan


@dataclass
class NetworkModel:
    """Parameters of the simulated interconnect.

    Defaults mirror the paper's testbed: worker containers on a 5 Gbps NIC
    pushing/pulling through one PS node. ``intra_node_fraction`` models
    multi-GPU nodes (paper's 8/16-worker clusters pack 2/4 GPUs per node)
    where co-located workers enjoy a much faster effective link.

    Attributes
    ----------
    bandwidth_bps:
        Per-worker NIC bandwidth in bits/second.
    ps_bandwidth_bps:
        PS node NIC bandwidth; the PS ingests all N updates through it, which
        is what makes the PS the scaling bottleneck (Fig. 1a).
    latency_s:
        One-way message latency in seconds.
    intra_node_speedup:
        Bandwidth multiplier for worker pairs on the same node.
    workers_per_node:
        Workers co-located per physical node (1 = every link crosses the NIC).
    """

    bandwidth_bps: float = 5e9
    ps_bandwidth_bps: float = 20e9
    latency_s: float = 2e-4
    intra_node_speedup: float = 8.0
    workers_per_node: int = 1

    def __post_init__(self):
        if self.bandwidth_bps <= 0 or self.ps_bandwidth_bps <= 0:
            raise ValueError("bandwidths must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be >= 0")
        if self.workers_per_node < 1:
            raise ValueError("workers_per_node must be >= 1")

    def effective_worker_bandwidth(self) -> float:
        """Average per-worker bandwidth accounting for intra-node links."""
        if self.workers_per_node <= 1:
            return self.bandwidth_bps
        # One of every `workers_per_node` transfers crosses the NIC; the rest
        # move at the intra-node rate. Harmonic blend of the two rates.
        inter = 1.0 / self.workers_per_node
        intra = 1.0 - inter
        return 1.0 / (
            inter / self.bandwidth_bps
            + intra / (self.bandwidth_bps * self.intra_node_speedup)
        )

    def transfer_time(self, nbytes: float, bandwidth_bps: Optional[float] = None) -> float:
        """Seconds to move ``nbytes`` over one link (payload + latency)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        bw = self.bandwidth_bps if bandwidth_bps is None else bandwidth_bps
        return self.latency_s + 8.0 * nbytes / bw


class LinkFaultModel:
    """Deterministic link-level fault oracle for the simulated fabric.

    What the link-level kinds of a ``net_fault_spec`` (grammar:
    :mod:`repro.utils.spec`) mean. ``partition`` cuts every link between
    different groups for its window; workers named in no group, and the
    parameter server, ride with the majority side (the largest group, ties
    toward the one holding the lowest worker id). ``flap`` toggles one link
    with half-period ``PERIOD`` steps, down first: ``flap:link(2,5)x3@50+``
    is down on 50–52, up on 53–55, down on 56–58. ``loss`` drops each
    message on the link (no link: every link) with probability ``p`` per
    attempt; ``dup`` delivers a duplicate — idempotent, but the extra
    transfer is charged. ``delay`` multiplies the link's transfer time;
    overlapping clauses multiply. So for any ``(src, dst, step)`` the
    oracle answers whether the link is administratively down, what loss
    and duplication probability applies, and how much slower transfers
    are. Every stochastic draw
    is keyed on ``(seed, src, dst, step, attempt)`` through its own
    :class:`numpy.random.SeedSequence` stream — never the trainer RNGs — so
    outcomes are identical across serial/process executors and
    independent of call order. The parameter server is addressed as the
    pseudo-rank ``n_workers`` so PS links share the same keying scheme.
    """

    #: Salt namespaces for the keyed streams (distinct per draw purpose so
    #: loss and dup draws on the same message are independent).
    _SALT_LOSS = 101
    _SALT_DUP = 102
    _SALT_JITTER = 103

    def __init__(self, plan: Plan, n_workers: int, seed: int = 0):
        plan.validate(n_workers)
        self.plan = plan
        self.n_workers = int(n_workers)
        self.seed = int(seed)
        self._flaps = plan.of("flap")
        self._losses = plan.of("loss")
        self._dups = plan.of("dup")
        self._delays = plan.of("delay")
        # Per partition: the group index of every named worker, and the
        # majority group's index — the side of everyone else, PS included.
        self._sides = {
            p: (
                {w: gi for gi, group in enumerate(p.target) for w in group},
                min(
                    range(len(p.target)),
                    key=lambda gi: (-len(p.target[gi]), min(p.target[gi])),
                ),
            )
            for p in plan.of("partition")
        }

    @property
    def active(self) -> bool:
        return not self.plan.empty

    @property
    def ps_rank(self) -> int:
        """Pseudo-rank used to key PS↔worker links."""
        return self.n_workers

    def _rng(
        self,
        src: int,
        dst: int,
        step: int,
        salt: int,
        attempt: int = 0,
        msg: int = 0,
    ):
        a, b = (src, dst) if src <= dst else (dst, src)
        # ``msg`` namespaces multiple independent messages on the same link
        # in the same step (one per parameter-server shard). It is appended
        # only when nonzero so every pre-sharding draw keeps its exact
        # stream — the byte-identity contract for unsharded runs.
        key = [self.seed, a, b, step, salt, attempt]
        if msg:
            key.append(msg)
        return np.random.default_rng(np.random.SeedSequence(key))

    # -- administrative link state -------------------------------------

    def partition_at(self, step: int) -> Optional[Clause]:
        """The partition clause covering ``step``, if any (first wins); its
        ``target`` holds the groups."""
        for p in self._sides:
            if p.covers(step):
                return p
        return None

    def majority_side(self, step: int) -> Optional[Tuple[int, ...]]:
        """Worker ids on the majority side of the active partition (with
        unnamed workers riding along), or ``None`` when unpartitioned."""
        p = self.partition_at(step)
        if p is None:
            return None
        side_of, maj = self._sides[p]
        return tuple(w for w in range(self.n_workers) if side_of.get(w, maj) == maj)

    def link_down(self, a: int, b: int, step: int) -> bool:
        """Is the undirected link (a, b) administratively down at ``step``?

        True while a partition severs the pair or a flap clause is in its
        down half-period. The PS pseudo-rank is treated as a member of the
        partition's majority side (the PS sits with the majority).
        """
        p = self.partition_at(step)
        if p is not None:
            # The PS pseudo-rank is never a named worker: it gets ``maj``.
            side_of, maj = self._sides[p]
            if side_of.get(a, maj) != side_of.get(b, maj):
                return True
        link = (a, b) if a <= b else (b, a)
        for f in self._flaps:
            if (
                f.target == link
                and f.covers(step)
                and ((step - f.start) // f.value) % 2 == 0
            ):
                return True
        return False

    # -- stochastic per-attempt draws ----------------------------------

    def loss_prob(self, a: int, b: int, step: int) -> float:
        """Per-attempt drop probability on the link (clauses combine as
        independent loss processes: 1 − Π(1 − pᵢ))."""
        return self._composed(self._losses, a, b, step)

    def dup_prob(self, a: int, b: int, step: int) -> float:
        return self._composed(self._dups, a, b, step)

    @staticmethod
    def _composed(clauses, a: int, b: int, step: int) -> float:
        link = (a, b) if a <= b else (b, a)
        keep = 1.0
        for c in clauses:
            # A clause without a link covers every link.
            if (c.target is None or c.target == link) and c.covers(step):
                keep *= 1.0 - c.value
        return 1.0 - keep

    def delay_factor(self, a: int, b: int, step: int) -> float:
        """Multiplier on transfer time (overlapping clauses multiply)."""
        link = (a, b) if a <= b else (b, a)
        factor = 1.0
        for d in self._delays:
            if d.target == link and d.covers(step):
                factor *= d.value
        return factor

    def message_lost(
        self, src: int, dst: int, step: int, attempt: int, msg: int = 0
    ) -> bool:
        """Keyed Bernoulli draw: is this attempt's message dropped?"""
        p = self.loss_prob(src, dst, step)
        if p <= 0.0:
            return False
        u = self._rng(src, dst, step, self._SALT_LOSS, attempt, msg).random()
        return bool(u < p)

    def message_duplicated(
        self, src: int, dst: int, step: int, attempt: int, msg: int = 0
    ) -> bool:
        """Keyed Bernoulli draw: does this attempt spawn a duplicate?"""
        p = self.dup_prob(src, dst, step)
        if p <= 0.0:
            return False
        u = self._rng(src, dst, step, self._SALT_DUP, attempt, msg).random()
        return bool(u < p)

    def jitter_uniform(
        self, src: int, dst: int, step: int, attempt: int, msg: int = 0
    ) -> float:
        """Keyed uniform [0, 1) draw for backoff jitter."""
        return float(
            self._rng(src, dst, step, self._SALT_JITTER, attempt, msg).random()
        )


def make_link_faults(
    plan: Plan, n_workers: int, seed: int = 0
) -> Optional[LinkFaultModel]:
    """A :class:`LinkFaultModel` over a parsed link-fault plan, or ``None``
    for an empty one — callers short-circuit on ``None`` so fault-free runs
    never touch the link-fault code path at all."""
    return None if plan.empty else LinkFaultModel(plan, n_workers, seed=seed)
