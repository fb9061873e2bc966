"""Discrete-event machinery for asynchronous (SSP) simulation.

Synchronous trainers advance time in lock-step (``max`` over worker compute
times per round); SSP workers each carry their own clock, so completion
events are processed in global time order through a priority queue.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass(order=True)
class Event:
    """A timestamped simulation event. Ordering ties break by insertion."""

    time: float
    seq: int = field(compare=True)
    worker: int = field(compare=False, default=-1)
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """Min-heap of :class:`Event` ordered by (time, insertion order).

    Its checkpoint is the heap as it lies, the insertion counter and
    ``now``: a restored queue pops the same events in the same order."""

    def __init__(self):
        self._heap: list = []
        self._counter = 0
        self.now: float = 0.0

    def push(self, time: float, worker: int = -1, payload: Any = None) -> None:
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        heapq.heappush(self._heap, Event(time, self._counter, worker, payload))
        self._counter += 1

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

    def state_dict(self) -> Dict[str, Any]:
        return {
            "heap": [[e.time, e.seq, e.worker, e.payload] for e in self._heap],
            "counter": self._counter,
            "now": self.now,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._heap = [Event(*e) for e in state["heap"]]
        self._counter = int(state["counter"])
        self.now = float(state["now"])
