"""In-process collectives over numpy buffers, with simulated timing.

:class:`SimGroup` mirrors the mpi4py surface the paper's PS calls map onto
(allreduce / allgather / p2p) but executes within one process:
the data movement is real numpy, the elapsed time is the cost model's. An
operation returns data or nothing: its simulated seconds exist only on its
``collective`` event, and the trainer's clock is the fold over those events
(:func:`repro.obs.views.clock`).

A full-model sync round is produced in one place, :meth:`SimGroup._round`:
:meth:`~SimGroup.allreduce_mean` (reduce and account) and
:meth:`~SimGroup.charge_sync` (account a round reduced elsewhere) are
entries over it, :meth:`~SimGroup.pull` (FedAvg's pull-back half-round)
shares its rank check and seconds, and everything a round needs — the
ranks taking part (their count is its size) and the per-shard absences —
arrives as arguments; the group keeps no per-round state, and nothing about
a partition either: onset is read off the link-fault plan.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.comm.costmodel import (
    allgather_bits_time,
    ps_sync_time,
    sharded_ps_sync_time,
)
from repro.comm.envelope import CollectiveTimeoutError, CommEnvelope, RetryPolicy
from repro.comm.network import LinkFaultModel, NetworkModel
from repro.comm.sharding import ShardSpec
from repro.comm.topology import Topology, build_topology
from repro.utils.flatten import reduce_slices


class SimGroup:
    """A communicator over ``n_workers`` simulated ranks.

    Parameters
    ----------
    n_workers:
        Group size (the PS is not a rank; its cost is in the topology).
    net:
        Link parameters used for timing.
    topology:
        Name or instance; decides the full-model sync cost formula.
    link_faults:
        Optional :class:`~repro.comm.network.LinkFaultModel`. ``None`` (the
        default) disables the resilient-collectives layer entirely — every
        op takes the original single-shot path and runs are bitwise
        identical to builds without it. When set, each collective routes
        around dead links (ring→chain, tree re-parenting, PS fallback) and
        wraps its messages in a retrying :class:`CommEnvelope`; a link the
        schedule cannot route around raises :class:`CollectiveTimeoutError`.
    retry_policy:
        Envelope retry/backoff schedule; only consulted with link faults.
    shard_spec:
        Optional :class:`~repro.comm.sharding.ShardSpec` of ``S > 1``
        shards. ``None`` is the one shard ``slice(None)``: the same
        reduction over one slice, charged by the topology's full-vector
        formula — byte-identical to builds without sharding. With ``S > 1``
        shards, full-model syncs run one PS round per shard **in parallel**
        and the clock charges
        :func:`~repro.comm.costmodel.sharded_ps_sync_time`; only the
        ``"ps"`` topology supports this (enforced by the config layer).
    """

    def __init__(
        self,
        n_workers: int,
        net: NetworkModel = None,
        topology="ps",
        aggregator=None,
        link_faults: Optional[LinkFaultModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
        shard_spec: Optional[ShardSpec] = None,
    ):
        self.resize(n_workers, shard_spec)
        self.net = net if net is not None else NetworkModel()
        self.topology: Topology = (
            topology if isinstance(topology, Topology) else build_topology(topology)
        )
        #: Optional robust :class:`~repro.core.robust.Aggregator` applied by
        #: :meth:`allreduce_mean` in place of the plain mean; ``None`` keeps
        #: the exact legacy arithmetic (byte-identity contract). Timing and
        #: byte accounting are strategy-independent — a robust round moves
        #: the same payload over the same links.
        self.aggregator = aggregator
        self.link_faults = link_faults
        self.envelope: Optional[CommEnvelope] = (
            None if link_faults is None
            else CommEnvelope(link_faults, retry_policy or RetryPolicy())
        )
        # Byte counter so experiments can report communication volume.
        self.bytes_synced: int = 0
        # Current training step (fed by the trainer via begin_step) — the
        # key every link-fault draw is salted with.
        self._step: int = 0
        # Dedup link_fault events to one per (link, step).
        self._faulted_links: set = set()
        # Reusable allreduce output; sized on first use.
        self._mean_buf: Optional[np.ndarray] = None

    # -- membership --------------------------------------------------------
    def resize(self, n_workers: int, shard_spec: Optional[ShardSpec] = None):
        """Adopt a world size and shard geometry — at construction, and
        after an elastic membership change.

        Topology objects are stateless over the group size (every
        ``sync_time`` takes ``n_workers`` explicitly), so a resize is just
        the new count plus fresh shard geometry; the byte counter carries
        over — it ledgers the whole run, not one membership epoch.
        """
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.shard_spec: Optional[ShardSpec] = shard_spec

    # -- step context ------------------------------------------------------
    def begin_step(self, step: int) -> None:
        """Install the step every subsequent link-fault draw is keyed on.

        Collectives always run on the coordinator thread, so this is safe
        under every executor backend. A partition's onset — ``step`` is
        partitioned and ``step - 1`` was not, read off the plan, so a resumed
        run needs nothing remembered — emits ``partition_detected``. Events
        go to the trace's step in flight: the same step for a lock-step
        rule, the landed push for SSP (whose draws key on a worker's own
        iteration).
        """
        self._step = int(step)
        if self.link_faults is None:
            return
        self._faulted_links = set()
        part = self.link_faults.partition_at(step)
        if part is not None and self.link_faults.partition_at(step - 1) is None:
            obs.emit("partition_detected", groups=[list(g) for g in part.target],
                     majority=list(self.link_faults.majority_side(step)), until=part.end)

    # -- resilient envelope ------------------------------------------------
    def _record_link_fault(self, src: int, dst: int, kind: str) -> None:
        key = (min(src, dst), max(src, dst))
        if key in self._faulted_links:
            return
        self._faulted_links.add(key)
        obs.emit("link_fault", src=key[0], dst=key[1], kind=kind)

    def _send(self, src: int, dst: int, transfer_s: float, op: str, msg=0, **tag):
        """One enveloped message: its outcome, with the ``link_fault`` /
        ``retry`` events it implies."""
        out = self.envelope.send(src, dst, self._step, transfer_s, msg)
        if out.attempts > 1 or not out.delivered:
            down = self.link_faults.link_down(src, dst, self._step)
            self._record_link_fault(src, dst, "down" if down else "loss")
            obs.emit("retry", src=src, dst=dst, op=op, attempts=out.attempts,
                     wait_s=out.wait_s, delivered=out.delivered, **tag)
        return out

    def _enveloped_edges(self, edges, op: str, transfer_s: float, must_deliver: bool) -> float:
        """Push one enveloped message across each schedule edge.

        Returns the summed retry latency (timeouts + backoffs + duplicate
        retransfers) to charge on top of the healed cost-model time. A
        terminal loss raises :class:`CollectiveTimeoutError` when
        ``must_deliver`` (ring/tree schedules cannot tolerate a hole).
        """
        extra = 0.0
        for (src, dst) in edges:
            out = self._send(src, dst, transfer_s, op)
            extra += out.wait_s + out.dup_extra_s
            if not out.delivered and must_deliver:
                raise CollectiveTimeoutError(op, src, dst, self._step, out.attempts)
        return extra

    def _resilient_sync(self, op: str, payload: float, ids: List[int]) -> float:
        """Healed + enveloped time for one full-model sync round.

        Only reached when link faults are active. Reroutes the schedule
        around dead links (emitting ``reroute``), then charges per-message
        retries over the healed edges. PS schedules skip the per-edge
        envelope here — their uplinks are simulated per worker in the
        trainer's upload path, where a lost push degrades one worker
        instead of the whole round.
        """
        healed = self.topology.healed_sync_time(
            payload, ids, self.n_workers, self.net, self.link_faults, self._step
        )
        if healed.mode != "normal":
            obs.emit("reroute", op=op, topology=self.topology.name, mode=healed.mode,
                     detail=healed.detail, n_dead=healed.n_dead)
        t = healed.seconds
        if self.topology.name != "ps" and healed.mode != "ps_fallback":
            # Full payload crosses each healed hop (chain/tree hop cost);
            # the normal ring's per-hop share is payload/k but retries there
            # retransmit the full segment stream, so charge conservatively.
            per_hop = self.net.transfer_time(payload, self.net.effective_worker_bandwidth())
            t += self._enveloped_edges(healed.edges, op, per_hop, must_deliver=True)
        return t

    # -- full-model synchronization ---------------------------------------
    def _ranks(self, nbytes: Optional[float], ranks: Optional[Sequence[int]]) -> List[int]:
        """The sorted worker ids of a round (``None`` = all; their count is
        its size), refused unless distinct and in range; a payload, when
        given, must not run the ledger backwards."""
        ids = list(range(self.n_workers)) if ranks is None else sorted(ranks)
        size = len(ids)
        if size < 1 or len(set(ids)) != size or ids[0] < 0 or ids[-1] >= self.n_workers:
            raise ValueError(
                f"ranks must be distinct ids in [0, {self.n_workers}), got {ranks}"
            )
        if nbytes is not None and nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return ids

    def _seconds(self, op: str, payload: float, ids: List[int], absent):
        """``(shard sizes, contributors per shard, seconds)`` of one round
        over ``ids``: per-shard parallel rounds, the topology formula, or
        the healed and enveloped schedule under link faults."""
        if self.shard_spec is None:
            if self.envelope is None:
                return [payload], [len(ids)], self.topology.sync_time(payload, len(ids), self.net)
            return [payload], [len(ids)], self._resilient_sync(op, payload, ids)
        gone = absent or {}
        sizes = self.shard_spec.int_payloads(payload)
        ks = [max(0, len(ids) - len(gone.get(s, ()))) for s in range(len(sizes))]
        return sizes, ks, sharded_ps_sync_time(sizes, ks, self.net)

    def _round(
        self,
        op: str,
        nbytes: Optional[float],
        ranks: Optional[Sequence[int]],
        absent,
        vectors: Optional[Sequence[np.ndarray]] = None,
        upload_s: Optional[float] = None,
    ) -> None:
        """One full-model sync round: check, reduce, cost, account.

        The one place a round's ranks (:meth:`_ranks`) and payload are
        validated, its ``vectors`` (when the arithmetic happens here) are
        reduced into :attr:`_mean_buf`, its seconds are picked
        (:meth:`_seconds`) and put on its ``collective`` events, and its
        bytes land in :attr:`bytes_synced`. ``absent``
        maps a shard to the positions (in the round's pusher order) whose
        push for that shard was lost: they sit out that shard's reduction,
        contributor count, bytes and seconds. ``upload_s`` (given only when
        above 0) is the push phase's wait before the round: recorded on the
        round's ``collective`` (or ``shard_round``) event, never added to
        its ``seconds``.

        A ``collective`` event's ``bytes`` is exactly what the round added
        to :attr:`bytes_synced` (the events-sum == counter invariant the
        property tests pin). A sharded round emits one per shard (tagged
        ``shard=s``) plus one ``shard_round`` summary whose ``bytes`` recaps
        the round total without being counted again by the metrics view.
        """
        ids = self._ranks(nbytes, ranks)
        spec = self.shard_spec
        if absent and spec is None:
            raise RuntimeError("shard absences require a sharded group")
        if vectors is not None:
            if len(vectors) != len(ids):
                raise ValueError(f"expected {len(ids)} vectors, got {len(vectors)}")
            first = np.asarray(vectors[0])
            if any(np.asarray(v).shape != first.shape for v in vectors[1:]):
                raise ValueError("allreduce requires equally-shaped vectors")
            if self._mean_buf is None or self._mean_buf.shape != first.shape:
                self._mean_buf = np.empty(first.shape, dtype=np.float64)
            slices = (slice(None),) if spec is None else spec.slices()
            reduce_slices(vectors, self._mean_buf, slices, absent, self.aggregator, "allreduce")
            if nbytes is None:
                nbytes = first.nbytes
        payload = float(nbytes)
        sizes, ks, total = self._seconds(op, payload, ids, absent)
        upload = {} if upload_s is None else {"upload_s": upload_s}
        round_bytes = 0
        for s, (b, k) in enumerate(zip(sizes, ks)):
            counted = int(b) * k
            self.bytes_synced += counted
            round_bytes += counted
            if spec is None:
                obs.emit("collective", op=op, payload=payload, bytes=float(counted),
                         ranks=k, seconds=total, **upload)
            else:
                t = ps_sync_time(float(b), k, self.net) if k >= 1 else 0.0
                obs.emit("collective", op=op, payload=float(b), bytes=float(counted),
                         ranks=k, seconds=t, shard=s)
        if spec is not None:
            obs.emit("shard_round", op=op, n_shards=len(ks), n_active=sum(k >= 1 for k in ks),
                     n_degraded=sum(k < len(ids) for k in ks), bytes=float(round_bytes),
                     seconds=total, **upload)

    def allreduce_mean(
        self,
        vectors: Sequence[np.ndarray],
        nbytes: float = None,
        ranks: Optional[Sequence[int]] = None,
        absent=None,
        upload_s: Optional[float] = None,
    ) -> np.ndarray:
        """Average one flat vector per rank and charge the round; returns
        the mean (the round's seconds are on its ``collective`` event).

        ``nbytes`` overrides the payload size for timing (the experiment
        harness passes the *paper-scale* model size here so Fig. 1a's
        507 MB VGG11 behaviour reproduces with a small in-memory analog).

        ``ranks`` opts in to a degraded round over a survivor subset: it
        names the participating worker ids (distinct, in range), the mean
        is over ``len(ranks)`` vectors, the sync is charged for that many
        ranks and the link-fault layer routes around the links they use.
        Without it a short vector list is an error — silently averaging
        fewer replicas than the group has is exactly the wrong-answer mode
        the fault model exists to make loud.

        ``absent`` (sharded groups only) names the lost shard pushes of a
        degraded *shard* round and ``upload_s`` the push phase's wait; see
        :meth:`_round`. The mean is a read-only view of a buffer the next
        ``allreduce_mean`` reuses.
        """
        self._round("allreduce", nbytes, ranks, absent, vectors, upload_s=upload_s)
        mean = self._mean_buf.view()
        mean.flags.writeable = False
        return mean

    def charge_sync(
        self,
        nbytes: float,
        ranks: Optional[Sequence[int]] = None,
        absent=None,
        upload_s: Optional[float] = None,
    ) -> None:
        """Account one full-model sync round.

        For callers that perform the aggregation arithmetic elsewhere (e.g.
        through the :class:`~repro.cluster.server.ParameterServer`) and only
        need the clock charged once. ``ranks`` charges a degraded round over
        the named survivors instead of the full group; ``absent`` is the
        per-shard absences the server's aggregation was given, ``upload_s``
        the push phase's wait (:meth:`_round`).
        """
        self._round("sync", nbytes, ranks, absent, upload_s=upload_s)

    def pull(self, nbytes: float, ranks: Sequence[int]) -> None:
        """FedAvg's pull-back: every rank in ``ranks`` (the live workers)
        takes the new global model, half of a full round over them.

        Outside the byte ledger, like :meth:`allgather_flags`: one
        ``collective`` with ``op="pull"`` and ``bytes=0.0``. Under link
        faults the half-round travels the healed sync schedule, so its
        ``reroute`` / ``retry`` events carry ``op="sync"``.
        """
        ids = self._ranks(nbytes, ranks)
        seconds = self._seconds("sync", float(nbytes), ids, None)[2] / 2.0
        obs.emit("collective", op="pull", payload=float(nbytes), bytes=0.0,
                 ranks=len(ids), seconds=seconds)

    def push_outcome(
        self, worker: int, nbytes: float, shard: Optional[int] = None
    ) -> Tuple[float, bool]:
        """Simulate one worker's PS uplink push through the envelope.

        Returns ``(extra_seconds, delivered)``. Only meaningful with link
        faults active (returns ``(0.0, True)`` otherwise). A terminal loss
        does NOT raise here: the PS schedule tolerates holes, so the
        trainer degrades by dropping that worker from the round — the same
        path worker-level drop faults take.

        ``shard`` namespaces one shard's push within the step: each shard
        message draws its own loss/dup/jitter fate (envelope ``msg`` key
        ``shard + 1``) and a terminal loss drops the worker from *that
        shard's* round only. ``None`` keeps the exact unsharded streams.
        """
        if self.envelope is None:
            return 0.0, True
        transfer_s = self.net.transfer_time(float(nbytes))
        tag = {} if shard is None else {"shard": int(shard)}
        out = self._send(
            worker, self.link_faults.ps_rank, transfer_s, "push",
            msg=0 if shard is None else int(shard) + 1, worker=worker, **tag,
        )
        return out.wait_s + out.dup_extra_s, out.delivered

    # -- SelSync's flag exchange ------------------------------------------
    def allgather_flags(self, flags: Sequence[int]) -> np.ndarray:
        """Alg. 1 line 12: share each worker's 1-bit sync status with all;
        returns the gathered bits."""
        if len(flags) != self.n_workers:
            raise ValueError(f"expected {self.n_workers} flags, got {len(flags)}")
        arr = np.asarray(flags, dtype=np.uint8)
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise ValueError(f"flags must be 0/1 bits, got {list(flags)}")
        # Flag exchanges are latency traffic; they do not count toward the
        # full-model ``bytes_synced`` ledger, so ``bytes`` is 0 here.
        obs.emit("collective", op="allgather_flags", payload=float(self.n_workers),
                 bytes=0.0, ranks=self.n_workers,
                 seconds=allgather_bits_time(self.n_workers, self.net))
        return arr

    # -- p2p ----------------------------------------------------------------
    def p2p(self, payload_nbytes: float) -> None:
        """Charge one point-to-point transfer (data injection)."""
        obs.emit("collective", op="p2p", payload=float(payload_nbytes), bytes=0.0,
                 ranks=2, seconds=self.net.transfer_time(payload_nbytes))

    # -- checkpointing ----------------------------------------------------
    def state_dict(self) -> dict:
        """The byte counter (the only mutable state besides scratch).

        The ``net`` key exists only while the resilient layer is active so
        fault-free checkpoints stay byte-identical to builds without it.
        The shard layout is the server's to check (``sharding.bounds``).
        """
        state = {"bytes_synced": self.bytes_synced}
        if self.envelope is not None:
            state["net"] = self.envelope.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        self.bytes_synced = int(state["bytes_synced"])
        if self.envelope is not None and "net" in state:
            self.envelope.load_state_dict(state["net"])
