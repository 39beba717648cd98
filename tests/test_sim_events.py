"""Unit tests for the simulator's event heap."""

import random

from repro.sim.kernel import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    for t in (5.0, 1.0, 3.0):
        sim.schedule_at(t, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.0, 3.0, 5.0]


def test_ties_broken_by_insertion_order():
    sim = Simulator()
    seen = []

    def record(tag):
        seen.append((tag, sim.now))

    sim.schedule(2.0, record, "a")
    sim.schedule_at(2.0, record, "b")
    assert sim.pending == 2
    sim.run()
    assert seen == [("a", 2.0), ("b", 2.0)]


def test_cancelled_events_are_skipped():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "keep")
    drop = sim.schedule(0.5, seen.append, "drop")
    sim.cancel(drop)
    assert sim.pending == 1
    assert sim.run() == 1
    assert seen == ["keep"]
    assert sim.pending == 0


def test_pending_counts_live_events():
    sim = Simulator()
    assert sim.pending == 0
    a = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    sim.cancel(a)
    assert sim.pending == 1
    sim.run(until=1.5)  # drops the cancelled entry, runs nothing
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0
    assert "pending=0" in repr(sim)


def test_many_events_pop_in_global_order():
    sim = Simulator()
    rng = random.Random(3)
    times = [rng.uniform(0, 100) for _ in range(500)]
    seen = []
    for t in times:
        sim.schedule_at(t, lambda: seen.append(sim.now))
    assert sim.run() == 500
    assert seen == sorted(times)


def test_repr_mentions_state():
    # Handles are opaque; the simulator's repr shows the clock and what
    # is still pending.
    sim = Simulator()
    handle = sim.schedule(1.5, test_repr_mentions_state)
    assert repr(sim) == "<Simulator t=0.0ms pending=1>"
    sim.cancel(handle)
    assert repr(sim) == "<Simulator t=0.0ms pending=0>"
    sim.run(until=1.5)
    assert repr(sim) == "<Simulator t=1.5ms pending=0>"


def test_run_until_skips_cancelled_events():
    # Cancelled entries neither keep a drained run alive nor stop the
    # dead-air fold short of the earliest live event.
    sim = Simulator()
    sim.cancel(sim.schedule(1.0, lambda: None))
    assert not sim.run_until(lambda: False)
    assert sim.pending == 0 and sim.now == 0.0
    seen, slices = [], []
    run = sim.run

    def sliced(until=None, max_events=None):
        slices.append(until)
        return run(until=until, max_events=max_events)

    sim.run = sliced
    sim.cancel(sim.schedule(500.0, seen.append, "dead"))
    sim.schedule(4500.0, seen.append, "live")
    assert sim.run_until(lambda: bool(seen), check_every=1000.0)
    assert seen == ["live"]
    assert slices == [5000.0] and sim.now == 5000.0
