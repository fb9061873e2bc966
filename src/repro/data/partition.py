"""Data-partitioning schemes (paper §III-D).

*DefDP* splits the training set into N disjoint chunks, one per worker —
the BSP default. *SelDP* gives every worker the full dataset as a circular
queue of the same N chunks, rotated so worker ``n`` starts at chunk ``n``:
workers processing in lock-step always cover N distinct chunks per
synchronized step, yet each worker eventually sees all the data when it
trains locally. The label-skew partitioner produces the paper's non-IID
splits (1 label per worker for CIFAR10, 10 for CIFAR100).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.utils.rng import RngLike, as_rng


@dataclass
class Partition:
    """Per-worker sample index orders.

    ``orders[n]`` is the sequence of dataset indices worker ``n`` walks
    (wrapping at the end = one epoch of *that worker's* view).
    ``chunk_order[n]``, when present, lists the chunk ids worker ``n``
    traverses (Fig. 7's DP labels); label-skew partitions have no chunk
    structure and leave it ``None``.
    """

    orders: List[np.ndarray]
    scheme: str
    chunk_order: "List[List[int]] | None" = None

    @property
    def n_workers(self) -> int:
        return len(self.orders)

    def __getitem__(self, worker: int) -> np.ndarray:
        return self.orders[worker]


def _chunks(n_samples: int, n_workers: int, rng) -> List[np.ndarray]:
    """Shuffle sample indices once and split into N near-equal chunks."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_samples < n_workers:
        raise ValueError(
            f"cannot split {n_samples} samples across {n_workers} workers"
        )
    perm = rng.permutation(n_samples)
    return np.array_split(perm, n_workers)


def default_partition(
    n_samples: int, n_workers: int, rng: RngLike = None
) -> Partition:
    """DefDP: worker ``n`` owns only chunk ``n`` (Fig. 7a)."""
    chunks = _chunks(n_samples, n_workers, as_rng(rng))
    return Partition(
        orders=[c.copy() for c in chunks],
        scheme="defdp",
        chunk_order=[[n] for n in range(n_workers)],
    )


def selsync_partition(
    n_samples: int, n_workers: int, rng: RngLike = None
) -> Partition:
    """SelDP: worker ``n`` walks all chunks in rotated order (Fig. 7b).

    Worker 0 sees chunks ``[0, 1, ..., N-1]``, worker 1 sees
    ``[1, 2, ..., 0]``, etc. The rotation is the entire one-time overhead
    the paper measures in Fig. 8b.
    """
    chunks = _chunks(n_samples, n_workers, as_rng(rng))
    orders = [
        np.concatenate(chunks[n:] + chunks[:n]) for n in range(n_workers)
    ]
    chunk_order = [
        [(n + k) % n_workers for k in range(n_workers)]
        for n in range(n_workers)
    ]
    return Partition(orders=orders, scheme="seldp", chunk_order=chunk_order)


def label_skew_partition(
    labels: np.ndarray,
    n_workers: int,
    labels_per_worker: int,
    rng: RngLike = None,
) -> Partition:
    """Non-IID split: each worker receives samples of only ``labels_per_worker``
    labels (paper §IV-A: 1 label/worker for CIFAR10, 10 for CIFAR100).

    Labels are dealt to workers round-robin; when
    ``n_workers * labels_per_worker`` exceeds the label count, label
    assignments repeat and the owning workers split that label's samples.
    """
    rng = as_rng(rng)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if labels_per_worker < 1:
        raise ValueError(f"labels_per_worker must be >= 1, got {labels_per_worker}")
    if len(uniq) < 1:
        raise ValueError("dataset has no labels")

    # Deal label ids to workers in a shuffled round-robin.
    label_cycle = np.tile(uniq, int(np.ceil(n_workers * labels_per_worker / len(uniq))))
    label_cycle = label_cycle[: n_workers * labels_per_worker]
    rng.shuffle(label_cycle)
    assignment = label_cycle.reshape(n_workers, labels_per_worker)

    # Workers sharing a label split its samples evenly.
    owners: dict = {}
    for w in range(n_workers):
        for lab in assignment[w]:
            owners.setdefault(int(lab), []).append(w)

    per_worker: List[List[np.ndarray]] = [[] for _ in range(n_workers)]
    for lab, ws in owners.items():
        idx = np.flatnonzero(labels == lab)
        rng.shuffle(idx)
        for part, w in zip(np.array_split(idx, len(ws)), ws):
            per_worker[w].append(part)

    orders = []
    for w in range(n_workers):
        if per_worker[w]:
            order = np.concatenate(per_worker[w])
        else:
            # A worker can end up with an empty shard when samples of its
            # labels were exhausted by co-owners; give it a random sample so
            # training does not divide by zero (mirrors FL clients with
            # tiny local datasets).
            order = rng.integers(0, len(labels), size=max(1, len(labels) // (4 * n_workers)))
        rng.shuffle(order)
        orders.append(order)
    return Partition(orders=orders, scheme="label_skew")
