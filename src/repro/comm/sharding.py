"""Parameter-space sharding for the parameter server.

DS-Sync (arXiv:2007.03298) divides synchronization into independent groups
served concurrently; sharded parameter servers (each shard server owning a
contiguous slice of the model) are the classic realization. A
:class:`ShardSpec` partitions the flat parameter/gradient arena into ``S``
contiguous, **layer-aligned** shards: every shard boundary coincides with a
parameter-tensor boundary, so a shard is always a whole number of tensors.

The spec is pure geometry — which flat indices belong to which shard — and
is shared by every consumer:

* :func:`repro.utils.flatten.reduce_slices` — the one reduction behind
  :class:`~repro.cluster.server.ParameterServer` and ``SimGroup.allreduce_mean``
  — aggregates each of :meth:`ShardSpec.slices` independently (robust
  aggregators operate shard-locally),
* :class:`~repro.comm.collectives.SimGroup` charges a sharded sync round as
  the **max over shards served in parallel** plus a per-shard coordination
  latency (see :func:`~repro.comm.costmodel.sharded_ps_sync_time`),
* the trainer's upload path pushes one enveloped message per shard, so a
  lost uplink degrades *one shard's* round instead of the whole sync; the
  losses reach that round as its ``absent`` argument.

``ShardSpec.from_layers(sizes, 1)`` yields the single-shard spec; callers
treat ``ps_shards == 1`` as "no sharding" and never construct a spec at
all: the same reduction runs over the one slice ``slice(None)``, keeping
default runs byte-identical to builds without this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["ShardSpec"]


@dataclass(frozen=True)
class ShardSpec:
    """Contiguous partition of ``[0, n_params)`` into layer-aligned shards.

    ``bounds`` has ``n_shards + 1`` strictly increasing entries with
    ``bounds[0] == 0`` and ``bounds[-1] == n_params``; shard ``s`` owns the
    flat slice ``[bounds[s], bounds[s+1])``. Immutable and hashable, so a
    spec can key caches and travel through checkpoints as a plain list.
    """

    n_params: int
    bounds: Tuple[int, ...]

    def __post_init__(self):
        if self.n_params < 1:
            raise ValueError(f"n_params must be >= 1, got {self.n_params}")
        b = self.bounds
        if len(b) < 2:
            raise ValueError(f"need at least 2 bounds, got {b!r}")
        if b[0] != 0 or b[-1] != self.n_params:
            raise ValueError(
                f"bounds must run 0..{self.n_params}, got {b[0]}..{b[-1]}"
            )
        for lo, hi in zip(b, b[1:]):
            if hi <= lo:
                raise ValueError(
                    f"bounds must be strictly increasing, got {b!r}"
                )

    # -- construction ------------------------------------------------------
    @classmethod
    def from_layers(
        cls, layer_sizes: Sequence[int], n_shards: int
    ) -> "ShardSpec":
        """Balanced contiguous partition aligned to layer boundaries.

        Walks the tensors in registration order and closes a shard once it
        holds at least its proportional share of the *remaining* parameters
        (while leaving at least one tensor per remaining shard), which is
        the standard linear-partition greedy. The effective shard count is
        ``min(n_shards, len(layer_sizes))`` — a shard can never be smaller
        than one tensor, so over-asking degrades gracefully instead of
        erroring.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        sizes = [int(s) for s in layer_sizes]
        if not sizes:
            raise ValueError("layer_sizes must be non-empty")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be >= 1, got {sizes}")
        total = sum(sizes)
        s_eff = min(n_shards, len(sizes))
        bounds: List[int] = [0]
        offset = 0
        layer_idx = 0
        remaining = total
        for shard in range(s_eff):
            shards_left = s_eff - shard
            layers_left = len(sizes) - layer_idx
            target = remaining / shards_left
            acc = 0
            # Take at least one tensor; keep taking while under target and
            # enough tensors remain for the shards after this one.
            while layer_idx < len(sizes):
                layers_left = len(sizes) - layer_idx
                if acc and layers_left <= shards_left - 1:
                    break
                nxt = sizes[layer_idx]
                # Close the shard if adding the next tensor overshoots the
                # target by more than stopping short undershoots it.
                if acc and acc + nxt - target > target - acc:
                    break
                acc += nxt
                layer_idx += 1
            offset += acc
            remaining -= acc
            bounds.append(offset)
        return cls(n_params=total, bounds=tuple(bounds))

    # -- geometry ----------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.bounds) - 1

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Parameter count per shard."""
        return tuple(
            hi - lo for lo, hi in zip(self.bounds, self.bounds[1:])
        )

    @property
    def fractions(self) -> Tuple[float, ...]:
        """Each shard's fraction of the full parameter count — the scale
        factor applied to ``comm_bytes`` to get per-shard payloads."""
        return tuple(s / self.n_params for s in self.sizes)

    def slices(self) -> Tuple[slice, ...]:
        """Flat-vector slice per shard, in shard order."""
        return tuple(
            slice(lo, hi) for lo, hi in zip(self.bounds, self.bounds[1:])
        )

    def int_payloads(self, total_nbytes: float) -> Tuple[int, ...]:
        """Exact integer byte split: sums to ``int(total_nbytes)``.

        Largest-remainder apportionment over the shard fractions, with
        deterministic tie-breaking by shard index — so the sharded byte
        ledger (sum over shards × contributors) reconciles exactly with the
        unsharded ``int(payload) × ranks`` accounting when no shard round
        is degraded.
        """
        total = int(total_nbytes)
        if total < 0:
            raise ValueError(f"total_nbytes must be >= 0, got {total_nbytes}")
        exact = [f * total for f in self.fractions]
        floors = [int(x) for x in exact]
        short = total - sum(floors)
        order = sorted(
            range(self.n_shards), key=lambda s: (floors[s] - exact[s], s)
        )
        for s in order[:short]:
            floors[s] += 1
        return tuple(floors)
