"""Central parameter server.

Implements the PS side of Alg. 1 (``pushToPS`` / ``pullFromPS``) plus the
asynchronous interface SSP needs (each async push is applied to the global
parameters as it arrives).

Aggregation is pluggable: with ``aggregator=None`` (the default) the PS
runs the original plain-mean arithmetic bit-for-bit; handing it a
:class:`repro.core.robust.Aggregator` routes every synchronous round
through that strategy (non-finite pre-filter included) and the
asynchronous path through its ``async_transform`` hook. Either way a
non-finite update can no longer silently corrupt the global model: the
mean path rejects it with a typed
:class:`~repro.cluster.faults.NonFiniteUpdateError`, a robust aggregator
drops it on the floor.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cluster.faults import NonFiniteUpdateError
from repro.utils.flatten import reduce_slices, snapshot


class ParameterServer:
    """Holds the flat global parameter vector.

    Synchronous aggregation (BSP / FedAvg / SelSync-PA) averages pushed
    vectors; asynchronous application (SSP) applies each worker's update as
    it arrives.

    Aggregation averages into preallocated buffers (``mean_into`` is
    bitwise-identical to ``np.mean(np.stack(...), axis=0)``) and hands out
    read-only views, so a sync step allocates nothing proportional to the
    model size.

    With a :class:`~repro.comm.sharding.ShardSpec` the vector is ``S``
    independently aggregated shards, each a contiguous, layer-aligned
    slice: robust aggregators see one shard's slices, and a worker whose
    uplink push for one shard was lost (the round's ``absent`` argument) is
    excluded from *that shard's* aggregation only — a degraded shard round — instead of the whole sync.
    With no absences and the plain mean the result is **bitwise identical**
    for every shard count, so sharding alters *when parallelism is charged*
    and *how faults degrade*, never fault-free numerics. The asynchronous
    path does not shard: an async push is a full-vector delta applied
    atomically, which per shard is the same write.
    """

    def __init__(self, init_params: np.ndarray, aggregator=None, spec=None):
        self._params = np.array(init_params, dtype=np.float64, copy=True)
        if spec is not None and spec.n_params != self._params.size:
            raise ValueError(
                f"shard spec covers {spec.n_params} params but the model "
                f"has {self._params.size}"
            )
        # Scratch for gradient aggregation; separate from ``_params`` because
        # GA averages gradients without moving the globals.
        self._agg: Optional[np.ndarray] = None
        #: Optional robust :class:`~repro.core.robust.Aggregator`; ``None``
        #: keeps the exact legacy mean path (byte-identity contract).
        self.aggregator = aggregator
        #: Shard geometry; ``None`` is the one shard ``slice(None)``.
        self.spec = spec

    @property
    def n_params(self) -> int:
        return int(self._params.size)

    def _readonly(self, vec: np.ndarray) -> np.ndarray:
        view = vec.view()
        view.flags.writeable = False
        return view

    # -- synchronous interface --------------------------------------------
    def pull(self, copy: bool = True) -> np.ndarray:
        """Current global parameters.

        A private copy by default (workers go on to mutate their replicas);
        ``copy=False`` returns a read-only view for call sites that copy
        downstream anyway (e.g. straight into a worker's arena).
        """
        if copy:
            return self._params.copy()
        return self._readonly(self._params)

    def aggregate_params(self, pushed: Sequence[np.ndarray], absent=None) -> np.ndarray:
        """Parameter aggregation: global ← aggregate of pushed replicas.

        ``absent`` maps a shard to the positions in ``pushed`` whose push
        for it was lost; a shard nobody delivered keeps its parameters."""
        return self._aggregate(pushed, self._params, "params", absent)

    def aggregate_grads(self, grads: Sequence[np.ndarray], absent=None) -> np.ndarray:
        """Gradient aggregation: return the aggregate gradient (global
        params are NOT moved — in GA each worker applies the aggregate to
        its own replica, which is exactly the divergence mechanism §III-C
        describes). A shard nobody delivered contributes zeros."""
        if self._agg is None or self._agg.shape != self._params.shape:
            self._agg = np.empty_like(self._params)
        return self._aggregate(grads, self._agg, "grads", absent)

    def _aggregate(self, vectors, out, where, absent) -> np.ndarray:
        self._check(vectors)
        reduce_slices(
            vectors,
            out,
            (slice(None),) if self.spec is None else self.spec.slices(),
            absent,
            self.aggregator,
            where,
            keep_empty=out is self._params,
        )
        return self._readonly(out)

    # -- asynchronous (SSP) interface ------------------------------------------
    def async_apply(self, update: np.ndarray) -> None:
        """Apply one worker's update vector to the global params immediately.

        ``update`` is the delta to *add* (callers pass ``-lr * grad``).
        Non-finite updates are rejected with a typed error — a NaN entering
        here would poison the globals for every later pull. With a robust aggregator installed, the update first
        passes through its ``async_transform`` hook (norm clipping).
        """
        if update.shape != self._params.shape:
            raise ValueError(
                f"update shape {update.shape} != params {self._params.shape}"
            )
        if not np.isfinite(update).all():
            raise NonFiniteUpdateError(
                "async update contains NaN/Inf; refusing to apply it to the "
                "global model"
            )
        if self.aggregator is not None:
            update = self.aggregator.async_transform(update)
        self._params += update

    def _check(self, vectors: Sequence[np.ndarray]) -> None:
        if len(vectors) == 0:
            raise ValueError("nothing to aggregate")
        for v in vectors:
            if v.shape != self._params.shape:
                raise ValueError(
                    f"vector shape {v.shape} != params {self._params.shape}"
                )
        # The plain mean has breakdown point 0: one NaN poisons the global
        # model, so reject loudly. Robust aggregators pre-filter instead
        # (dropping the offender is the whole point of having them).
        if self.aggregator is None:
            for i, v in enumerate(vectors):
                if not np.isfinite(v).all():
                    raise NonFiniteUpdateError(
                        f"update vector {i} of {len(vectors)} contains "
                        "NaN/Inf; refusing to average it into the global "
                        "model (use a robust aggregator to drop it instead)"
                    )

    # -- checkpointing ----------------------------------------------------
    def state_dict(self, copy: bool = True) -> dict:
        state = {"params": snapshot(self._params, copy)}
        if self.spec is not None:
            state["sharding"] = {"bounds": list(self.spec.bounds)}
        return state

    def load_state_dict(self, state: dict) -> None:
        params = np.asarray(state["params"], dtype=np.float64)
        if params.shape != self._params.shape:
            raise ValueError(
                f"server state mismatch: checkpoint params {params.shape} "
                f"vs {self._params.shape}"
            )
        self._params = params.copy()
        self._agg = None
        if self.spec is None:
            return
        sh = state.get("sharding")
        if sh is None:
            raise ValueError(
                "checkpoint has no shard state; it was saved by an "
                "unsharded server and cannot resume a sharded run"
            )
        if list(sh["bounds"]) != list(self.spec.bounds):
            raise ValueError(
                f"shard layout mismatch: checkpoint bounds "
                f"{list(sh['bounds'])} vs server {list(self.spec.bounds)}"
            )
