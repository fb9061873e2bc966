"""Synchronization topologies.

Alg. 1's ``pushToPS``/``pullFromPS`` can be swapped for decentralized
collectives (paper §III, last paragraph); a :class:`Topology` encapsulates
the cost formula for one full model synchronization so trainers are agnostic
to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.comm.costmodel import (
    chain_allreduce_time,
    ps_sync_time,
    ring_allreduce_time,
    tree_allreduce_time,
    tree_reparent_time,
)
from repro.comm.network import LinkFaultModel, NetworkModel
from repro.utils.registry import Registry

TOPOLOGIES: Registry = Registry("topology")


@dataclass(frozen=True)
class HealedSync:
    """Outcome of routing one collective around dead links.

    ``mode`` is ``"normal"`` (no healing needed), ``"rerouted"`` (ring →
    chain around one dead link, or the ring/tree re-formed over a rank
    subset), ``"reparent"`` (tree subtrees re-attached) or
    ``"ps_fallback"`` (fabric too broken for the decentralized schedule —
    degrade to PS push–pull). ``edges`` is the healed schedule actually
    used, so the envelope simulates retries over real links only.
    """

    seconds: float
    mode: str
    detail: str
    edges: Tuple[Tuple[int, int], ...]
    n_dead: int = 0


class Topology:
    """Cost interface for one full-model synchronization round."""

    name = "abstract"

    def sync_time(self, nbytes: float, n_workers: int, net: NetworkModel) -> float:
        raise NotImplementedError

    def schedule_edges(
        self, ranks: Sequence[int], ps_rank: int
    ) -> Tuple[Tuple[int, int], ...]:
        """Links one sync round crosses when ``ranks`` participate."""
        raise NotImplementedError

    def healed_sync_time(
        self,
        nbytes: float,
        ranks: Sequence[int],
        n_total: int,
        net: NetworkModel,
        faults: LinkFaultModel,
        step: int,
    ) -> HealedSync:
        """Sync time with dead links routed around.

        ``ranks`` are the participating worker ids (possibly a survivor
        subset of ``n_total``); ``faults`` answers per-link liveness at
        ``step``. The default treats every topology as unaffected by
        worker–worker link state (correct for PS, overridden by ring/tree).
        """
        k = len(ranks)
        return HealedSync(
            seconds=self.sync_time(nbytes, k, net),
            mode="normal",
            detail="",
            edges=self.schedule_edges(ranks, faults.ps_rank),
        )


@TOPOLOGIES.register("ps")
class PSTopology(Topology):
    """Central parameter server (the paper's deployment)."""

    name = "ps"

    def sync_time(self, nbytes: float, n_workers: int, net: NetworkModel) -> float:
        return ps_sync_time(nbytes, n_workers, net)

    def schedule_edges(
        self, ranks: Sequence[int], ps_rank: int
    ) -> Tuple[Tuple[int, int], ...]:
        # Every participant talks to the PS pseudo-rank only. The per-worker
        # uplink retries are simulated in the trainer's upload path (where a
        # terminally lost push can drop that one worker); the edges here
        # exist so healed_sync_time has a uniform shape, not for retry
        # simulation — see SimGroup._resilient_sync.
        return tuple((r, ps_rank) for r in ranks)


@TOPOLOGIES.register("ring")
class RingTopology(Topology):
    """Bandwidth-optimal ring allreduce."""

    name = "ring"

    def sync_time(self, nbytes: float, n_workers: int, net: NetworkModel) -> float:
        return ring_allreduce_time(nbytes, n_workers, net)

    def schedule_edges(
        self, ranks: Sequence[int], ps_rank: int
    ) -> Tuple[Tuple[int, int], ...]:
        # The ring over the participating ranks in id order (wrap-around
        # closes it); a sub-ring over survivors skips missing members.
        ids = sorted(ranks)
        if len(ids) < 2:
            return ()
        edges = [
            (ids[i], ids[i + 1]) for i in range(len(ids) - 1)
        ]
        if len(ids) > 2:
            edges.append((ids[0], ids[-1]))
        return tuple(edges)

    def healed_sync_time(
        self,
        nbytes: float,
        ranks: Sequence[int],
        n_total: int,
        net: NetworkModel,
        faults: LinkFaultModel,
        step: int,
    ) -> HealedSync:
        k = len(ranks)
        edges = self.schedule_edges(ranks, faults.ps_rank)
        dead = [e for e in edges if faults.link_down(e[0], e[1], step)]
        live = tuple(e for e in edges if e not in set(dead))
        if not dead:
            mode = "rerouted" if k < n_total else "normal"
            detail = (
                f"ring re-formed over {k}/{n_total} ranks" if k < n_total else ""
            )
            return HealedSync(
                seconds=self.sync_time(nbytes, k, net),
                mode=mode, detail=detail, edges=edges,
            )
        if len(dead) == 1:
            a, b = dead[0]
            return HealedSync(
                seconds=chain_allreduce_time(nbytes, k, net),
                mode="rerouted",
                detail=f"ring rerouted around dead link ({a},{b}) as open chain",
                edges=live,
                n_dead=1,
            )
        # Two or more dead ring links disconnect the chain: degrade to PS
        # push–pull over the PS pseudo-rank links (the PS sits with the
        # majority, so survivors can always reach it).
        return HealedSync(
            seconds=ps_sync_time(nbytes, k, net),
            mode="ps_fallback",
            detail=(
                f"ring disconnected ({len(dead)} dead links); "
                f"degraded to PS push-pull"
            ),
            edges=tuple((r, faults.ps_rank) for r in ranks),
            n_dead=len(dead),
        )


@TOPOLOGIES.register("tree")
class TreeTopology(Topology):
    """Logarithmic binary-tree reduce + broadcast."""

    name = "tree"

    def sync_time(self, nbytes: float, n_workers: int, net: NetworkModel) -> float:
        return tree_allreduce_time(nbytes, n_workers, net)

    def schedule_edges(
        self, ranks: Sequence[int], ps_rank: int
    ) -> Tuple[Tuple[int, int], ...]:
        # Binary-heap tree over the participating ranks in id order: the
        # i-th smallest id parents the (2i+1)-th and (2i+2)-th, so a
        # survivor subset still forms a connected tree.
        ids = sorted(ranks)
        k = len(ids)
        return tuple(
            (min(ids[(i - 1) // 2], ids[i]), max(ids[(i - 1) // 2], ids[i]))
            for i in range(1, k)
        )

    def healed_sync_time(
        self,
        nbytes: float,
        ranks: Sequence[int],
        n_total: int,
        net: NetworkModel,
        faults: LinkFaultModel,
        step: int,
    ) -> HealedSync:
        k = len(ranks)
        edges = self.schedule_edges(ranks, faults.ps_rank)
        dead = [e for e in edges if faults.link_down(e[0], e[1], step)]
        live = tuple(e for e in edges if e not in set(dead))
        if not dead:
            mode = "rerouted" if k < n_total else "normal"
            detail = (
                f"tree re-formed over {k}/{n_total} ranks" if k < n_total else ""
            )
            return HealedSync(
                seconds=self.sync_time(nbytes, k, net),
                mode=mode, detail=detail, edges=edges,
            )
        # Each dead parent link orphans a subtree; it re-parents one level
        # up, costing an extra full-payload hop per sweep direction.
        return HealedSync(
            seconds=tree_reparent_time(nbytes, k, net, len(dead)),
            mode="reparent",
            detail=(
                f"tree re-parented {len(dead)} orphaned subtree(s) around "
                f"dead link(s) {sorted(dead)}"
            ),
            edges=live,
            n_dead=len(dead),
        )


def build_topology(name: str) -> Topology:
    return TOPOLOGIES.create(name)
