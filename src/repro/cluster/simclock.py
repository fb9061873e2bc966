"""Discrete-event machinery for asynchronous (SSP) simulation.

Synchronous trainers advance time in lock-step (``max`` over worker compute
times per round); SSP workers each carry their own clock, so completion
events are processed in global time order through a priority queue.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any


@dataclass(order=True)
class Event:
    """A timestamped simulation event. Ordering ties break by insertion."""

    time: float
    seq: int = field(compare=True)
    worker: int = field(compare=False, default=-1)
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """Min-heap of :class:`Event` ordered by (time, insertion order)."""

    def __init__(self):
        self._heap: list = []
        self._counter = itertools.count()
        self.now: float = 0.0

    def push(self, time: float, worker: int = -1, payload: Any = None) -> None:
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        heapq.heappush(self._heap, Event(time, next(self._counter), worker, payload))

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from empty event queue")
        ev = heapq.heappop(self._heap)
        self.now = ev.time
        return ev

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
