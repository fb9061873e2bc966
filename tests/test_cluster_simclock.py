"""Tests for the discrete-event queue."""

import pytest

from repro.cluster.simclock import EventQueue


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(3.0, worker=0)
        q.push(1.0, worker=1)
        q.push(2.0, worker=2)
        assert [q.pop().worker for _ in range(3)] == [1, 2, 0]

    def test_ties_break_by_insertion(self):
        q = EventQueue()
        q.push(1.0, worker=5)
        q.push(1.0, worker=6)
        assert q.pop().worker == 5
        assert q.pop().worker == 6

    def test_clock_advances(self):
        q = EventQueue()
        q.push(2.5)
        q.pop()
        assert q.now == 2.5

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.push(5.0)
        q.pop()
        with pytest.raises(ValueError):
            q.push(1.0)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0)
        assert q and len(q) == 1

    def test_payload_carried(self):
        q = EventQueue()
        q.push(1.0, worker=3, payload={"grad": 7})
        ev = q.pop()
        assert ev.payload["grad"] == 7

    def test_state_round_trip_pops_the_same_events(self):
        q = EventQueue()
        for t, w in ((3.0, 0), (1.0, 1), (1.0, 2), (2.0, 3)):
            q.push(t, worker=w, payload="rejoin" if w == 3 else None)
        q.pop()
        twin = EventQueue()
        twin.load_state_dict(q.state_dict())
        assert twin.now == q.now == 1.0
        q.push(1.5, worker=4)
        twin.push(1.5, worker=4)
        popped = [(e.time, e.seq, e.worker, e.payload) for e in (q.pop() for _ in range(4))]
        assert popped == [
            (e.time, e.seq, e.worker, e.payload) for e in (twin.pop() for _ in range(4))
        ]
        assert [w for _, _, w, _ in popped] == [2, 4, 3, 0]
