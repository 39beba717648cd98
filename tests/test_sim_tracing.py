"""Tests for the tracing bus."""

from repro.sim.kernel import Simulator
from repro.sim.tracing import TraceRecord


def test_emit_reaches_subscriber_with_time():
    sim = Simulator()
    seen = []
    sim.tracer.subscribe(seen.append)
    sim.schedule(5.0, lambda: sim.tracer.emit("cat", x=1))
    sim.run()
    assert len(seen) == 1
    assert seen[0].time == 5.0
    assert seen[0].category == "cat"
    assert seen[0].x == 1


def test_category_filter():
    sim = Simulator()
    seen = []
    sim.tracer.subscribe(seen.append, categories=("keep",))
    sim.tracer.emit("keep", v=1)
    sim.tracer.emit("drop", v=2)
    assert [r.category for r in seen] == ["keep"]


def test_unsubscribe():
    sim = Simulator()
    seen = []
    fn = sim.tracer.subscribe(seen.append)
    sim.tracer.emit("a")
    sim.tracer.unsubscribe(fn)
    sim.tracer.emit("b")
    assert len(seen) == 1


def test_no_subscribers_is_cheap_noop():
    sim = Simulator()
    sim.tracer.emit("a", x=1)  # must not raise


def test_record_attribute_error_for_missing_field():
    rec = TraceRecord(0.0, "c", {"a": 1})
    assert rec.a == 1
    try:
        rec.missing
    except AttributeError:
        pass
    else:
        raise AssertionError("expected AttributeError")


def test_multiple_subscribers_all_receive():
    sim = Simulator()
    a, b = [], []
    sim.tracer.subscribe(a.append)
    sim.tracer.subscribe(b.append)
    sim.tracer.emit("cat")
    assert len(a) == len(b) == 1
