"""Unit tests for the simulation kernel."""

import math

import pytest

from repro.sim.kernel import MINUTE, SECOND, SimulationError, Simulator


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, seen.append, "a")
    sim.schedule(5.0, seen.append, "b")
    executed = sim.run()
    assert executed == 2
    assert seen == ["b", "a"]
    assert sim.now == 10.0


def test_schedule_at_absolute_time():
    sim = Simulator()
    sim.schedule_at(42.0, lambda: None)
    sim.run()
    assert sim.now == 42.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_nan_delay_rejected():
    # A NaN entry at the heap top would compare false against every
    # horizon and block all later events.
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(math.nan, lambda: None)
    seen = []
    sim.schedule(5.0, seen.append, "g")
    assert sim.run(until=100.0) == 1
    assert seen == ["g"]
    assert sim.pending == 0


def test_nan_time_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(math.nan, lambda: None)
    assert sim.pending == 0


def test_nan_horizon_and_deadline_rejected():
    # run(until=NaN) would run nothing and leave the clock alone, and a
    # NaN deadline is never reached, so run_until would only stop on its
    # predicate or an empty heap.
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(until=math.nan)
    with pytest.raises(SimulationError):
        sim.run_until(lambda: False, deadline=math.nan)
    with pytest.raises(SimulationError):
        sim.run_until(lambda: False, check_every=math.nan)
    assert sim.pending == 1


def test_run_until_time_boundary():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, 1)
    sim.schedule(15.0, seen.append, 2)
    sim.run(until=10.0)
    assert seen == [1]
    assert sim.now == 10.0
    sim.run()
    assert seen == [1, 2]


def test_run_until_with_empty_queue_advances_to_until():
    sim = Simulator()
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(1.0, seen.append, "second")
        seen.append("first")

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == 2.0


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    event = sim.schedule(1.0, seen.append, "x")
    sim.cancel(event)
    sim.run()
    assert seen == []


def test_cancel_is_idempotent_and_accepts_none():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    sim.cancel(None)
    assert sim.run() == 0


def test_max_events_bounds_execution():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i), lambda: None)
    assert sim.run(max_events=4) == 4
    assert sim.run() == 6


def test_run_is_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_run_until_predicate():
    sim = Simulator()
    state = {"done": False}
    sim.schedule(5 * SECOND, lambda: state.update(done=True))
    assert sim.run_until(lambda: state["done"], check_every=SECOND)
    assert state["done"]


def test_run_until_predicate_deadline():
    sim = Simulator()
    # Recurring event keeps the queue non-empty forever.

    def tick():
        sim.schedule(SECOND, tick)

    sim.schedule(SECOND, tick)
    assert not sim.run_until(lambda: False, check_every=SECOND,
                             deadline=5 * SECOND)
    assert sim.now == 5 * SECOND


def test_run_until_drained_queue_returns_predicate_value():
    sim = Simulator()
    assert not sim.run_until(lambda: False, check_every=SECOND)


def test_deterministic_rng_per_seed():
    a = Simulator(seed=5).rng.random()
    b = Simulator(seed=5).rng.random()
    c = Simulator(seed=6).rng.random()
    assert a == b
    assert a != c


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(3):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 3


def test_time_constants():
    assert SECOND == 1000.0
    assert MINUTE == 60 * SECOND
