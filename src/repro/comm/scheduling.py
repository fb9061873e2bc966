"""Per-layer communication scheduling (paper §II-D related work).

GradientFlow overlaps outer-layer communication with inner-layer backward
compute; ByteScheduler re-partitions and batches tensors for efficient
transmission. This module models those schedules over a model's per-layer
parameter sizes so the ablation benches can quantify what layer-wise
scheduling buys on top of (or instead of) SelSync's skip-the-round strategy.

Three schedules over one backward pass:

* ``fused`` — wait for the full backward, then send one message with all
  bytes (the baseline the rest of this library charges).
* ``per_layer`` — send each layer the moment its gradient is ready
  (backward runs output→input), overlapping transfers with the remaining
  backward compute; each message pays its own latency.
* ``bucketed`` — per-layer readiness, but messages are coalesced into
  buckets of at least ``bucket_bytes`` (ByteScheduler / PyTorch-DDP style),
  amortizing latency while keeping most of the overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.comm.network import NetworkModel
from repro.nn.module import Module


def layer_sizes_bytes(model: Module) -> List[int]:
    """Per-parameter-tensor byte sizes in backward order (output→input).

    Parameters are registered in forward order, so backward readiness is the
    reverse traversal.
    """
    sizes = [p.nbytes for p in model.parameters()]
    return list(reversed(sizes))


@dataclass
class ScheduleResult:
    """Outcome of one modelled backward+communicate pass."""

    total_time: float
    comm_tail: float  # time spent communicating after compute finished
    n_messages: int


def fused_schedule(
    sizes: Sequence[int],
    backward_time: float,
    net: NetworkModel,
) -> ScheduleResult:
    """One message after the full backward pass."""
    total_bytes = float(sum(sizes))
    t = net.transfer_time(total_bytes, net.effective_worker_bandwidth())
    return ScheduleResult(
        total_time=backward_time + t, comm_tail=t, n_messages=1
    )


def _overlapped(
    chunks: Sequence[float], backward_time: float, net: NetworkModel,
    ready_fracs: Sequence[float],
) -> ScheduleResult:
    """Simulate a single link draining ``chunks`` as they become ready.

    ``ready_fracs[i]`` is the fraction of the backward pass after which
    chunk ``i`` may start transmitting. The link serializes messages.
    """
    clock = 0.0
    for frac, nbytes in zip(ready_fracs, chunks):
        ready_at = frac * backward_time
        start = max(clock, ready_at)
        clock = start + net.transfer_time(nbytes, net.effective_worker_bandwidth())
    return ScheduleResult(
        total_time=max(clock, backward_time),
        comm_tail=max(0.0, clock - backward_time),
        n_messages=len(chunks),
    )


def per_layer_schedule(
    sizes: Sequence[int],
    backward_time: float,
    net: NetworkModel,
) -> ScheduleResult:
    """Send each layer as soon as its gradient exists (GradientFlow)."""
    n = len(sizes)
    if n == 0:
        return ScheduleResult(backward_time, 0.0, 0)
    # Layer i (backward order) is ready after (i+1)/n of the backward pass;
    # readiness is proportional to work done, approximated as uniform.
    fracs = [(i + 1) / n for i in range(n)]
    return _overlapped([float(s) for s in sizes], backward_time, net, fracs)


def bucketed_schedule(
    sizes: Sequence[int],
    backward_time: float,
    net: NetworkModel,
    bucket_bytes: float = 1e6,
) -> ScheduleResult:
    """Coalesce ready layers into ≥``bucket_bytes`` messages (ByteScheduler)."""
    if bucket_bytes <= 0:
        raise ValueError(f"bucket_bytes must be positive, got {bucket_bytes}")
    n = len(sizes)
    if n == 0:
        return ScheduleResult(backward_time, 0.0, 0)
    buckets: List[float] = []
    fracs: List[float] = []
    acc = 0.0
    for i, s in enumerate(sizes):
        acc += float(s)
        is_last = i == n - 1
        if acc >= bucket_bytes or is_last:
            buckets.append(acc)
            fracs.append((i + 1) / n)  # ready when its last layer is ready
            acc = 0.0
    return _overlapped(buckets, backward_time, net, fracs)
