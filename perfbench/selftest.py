"""Self-test of the benchmark's own arithmetic and bookkeeping.

    python3 perfbench/selftest.py        (or: pytest perfbench/selftest.py)

Covers self time with nested and overlapping child spans, the
percentile and sample-count rule, ratios with their base, the span file
round trip, the layer map, the service mix, node completion latencies,
the host-speed scale, and that ``BENCHMARK.json`` lists exactly the
metrics ``report.py`` prints.
"""

import gc
import json
import os
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import report  # noqa: E402
import spans  # noqa: E402


def _columns(rows):
    """Columns from ``(sid, parent, start, end)`` rows."""
    cols = spans._Columns()
    for sid, parent, start, end in rows:
        cols.sid.append(sid)
        cols.name.append(0)
        cols.trace.append(0)
        cols.parent.append(parent)
        cols.start.append(start)
        cols.end.append(end)
    return cols


def test_self_time_nested_children():
    # root [0,10] > a [1,4] > b [2,3];  root > c [5,6]
    own = spans.self_times(_columns([
        (0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 1, 2.0, 3.0),
        (3, 0, 5.0, 6.0)]))
    assert list(own) == [6.0, 2.0, 1.0, 1.0]
    assert sum(own) == 10.0     # self times partition the root


def test_self_time_overlapping_children():
    # Two concurrent children [1,5] and [3,8] cover [1,8]: 7 of 10.  A
    # third child sticking out past the parent counts only up to its end.
    own = spans.self_times(_columns([
        (0, -1, 0.0, 10.0), (1, 0, 1.0, 5.0), (2, 0, 3.0, 8.0),
        (3, 0, 9.0, 12.0)]))
    assert own[0] == 10.0 - 7.0 - 1.0
    # Children whose ids run against their start order (threads racing
    # for the clock) take the exact path: [5,8] and [1,6] cover [1,8].
    own = spans.self_times(_columns([
        (0, -1, 0.0, 10.0), (1, 0, 5.0, 8.0), (2, 0, 1.0, 6.0)]))
    assert list(own) == [3.0, 3.0, 5.0]
    assert spans.covered(0.0, 10.0, [(3.0, 8.0), (1.0, 5.0)]) == 7.0
    assert spans.covered(0.0, 10.0, [(2.0, 3.0), (2.0, 3.0)]) == 1.0
    assert spans.covered(0.0, 10.0, []) == 0.0


def test_percentile_sample_count_rule():
    values = list(range(1, 101))        # 1..100
    p90 = spans.percentile(values, 0.9)
    assert p90 == {"value": 90, "n": 100}
    assert spans.percentile(values[:99], 0.9) == {"value": None, "n": 99}
    assert spans.percentile([5, 1, 3], 0.5) == {"value": 3, "n": 3}
    assert spans.percentile([4, 1, 3, 2], 0.5) == {"value": 2, "n": 4}
    assert spans.percentile([], 0.5) == {"value": None, "n": 0}
    p99 = spans.percentile(list(range(1000)), 0.99)
    assert p99 == {"value": 989, "n": 1000}
    assert spans.median([1, 4, 2, 3]) == 2.5


def test_ratio_keeps_its_base():
    assert spans.ratio(3, 4) == {"value": 0.75, "num": 3, "den": 4}
    assert spans.ratio(0, 0) == {"value": 0.0, "num": 0, "den": 0}


def test_recorder_nesting_and_round_trip():
    ticks = iter(range(100))
    rec = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap(lambda x: x + 1, "inner", "layer.b")
    outer = rec.wrap(lambda x: inner(x) * 2, "outer", "layer.a")
    rec.trace.set(rec.new_trace("run-1"))
    assert outer(1) == 4
    agg = report.span_aggregates(rec)
    assert agg["names"]["outer"]["calls"] == 1
    # outer [0,3] contains inner [1,2]: self time 2 and 1.
    assert agg["names"]["outer"]["self_s"] == 2.0
    assert agg["names"]["inner"]["self_s"] == 1.0
    assert report.layer_self_s(agg) == {"layer.a": 2.0, "layer.b": 1.0}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spans.bin")
        assert rec.dump(path) == 2
        header, cols = spans.load(path)
    assert header["traces"] == ["run-1"]
    assert [header["names"][n] for n in cols.name] == ["inner", "outer"]
    assert list(cols.parent) == [cols.sid[1], -1]
    assert list(cols.trace) == [0, 0]


def test_recorder_exceptions_still_close_spans():
    rec = spans.SpanRecorder()

    def boom():
        raise KeyError("x")

    traced = rec.wrap(boom, "boom", "layer")
    try:
        traced()
    except KeyError:
        pass
    assert len(rec.spans()) == 1
    assert rec.current.get() == -1


def test_classify_by_owning_module():
    import layers
    from repro.radio.channel import Channel
    from repro.radio.mac import CsmaMac
    from repro.sim.timers import Timer

    assert layers.classify(Channel._finish_transmission) == (
        "radio.channel", "radio.channel.resolve")
    assert layers.classify(CsmaMac._attempt) == (
        "radio.mac", "radio.mac.attempt")
    assert layers.classify(Timer._fire) == ("sim", "sim.timer_fire")
    assert layers.classify(test_classify_by_owning_module)[0] == "workload"


def test_service_mix_is_seeded_and_sourced():
    import service_mix

    blocks = service_mix.blocks_for(1)
    a, b = service_mix.build_mix(3, blocks), service_mix.build_mix(4, blocks)
    assert a == service_mix.build_mix(3, blocks)
    assert a != b
    assert len(a) == len(b) >= 100      # p90 needs 100 samples

    def shape(mix):
        """(kind, experiment) of first submissions, and the duplicates."""
        seen, firsts = set(), []
        for kind, spec in mix:
            key = json.dumps([kind, spec], sort_keys=True)
            if key not in seen:
                seen.add(key)
                firsts.append((kind, spec["experiment"]))
        return sorted(firsts), len(mix) - len(seen)

    assert shape(a) == shape(b)         # same work, other seeds
    firsts, duplicates = shape(a)
    # The recorded duplicate share, and equal turns for the rest.
    assert duplicates * service_mix.BLOCK == \
        len(a) * service_mix.DUPLICATES
    turns = Counter(firsts).values()
    assert len(turns) == len(service_mix.UNIQUE)
    assert max(turns) - min(turns) <= 1
    assert service_mix.unique_executions(a) < sum(
        len(s["seeds"]) if k == "sweep" else 1 for k, s in a)


def test_completion_latencies():
    import run

    # Slices of 10, 20 and 30 ms at scale 0.5; one node done after the
    # first slice, none after the second, two after the third.
    assert run.completion_latencies([0.01, 0.02, 0.03], [1, 1, 3], 0.5) \
        == [5.0, 30.0, 30.0]
    assert run.completion_latencies([0.01], [0], 1.0) == []


def test_host_speed_scale():
    import hostspeed

    assert hostspeed.kernel() == hostspeed.kernel() > 1000  # fixed work
    speed = hostspeed.HostSpeed()
    try:
        speed.scale()
        raise AssertionError("an unsampled scale must fail")
    except RuntimeError:
        pass
    speed.times = [hostspeed.REFERENCE_S * 2, hostspeed.REFERENCE_S * 2]
    assert abs(speed.scale() - 0.5) < 1e-12        # slow host: halve
    speed.sample()
    assert len(speed.times) == 3 and speed.times[-1] > 0
    assert gc.isenabled()


def test_benchmark_json_matches_report_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(report.PER_LAYER)
    import run
    import service_mix

    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    # The gated run length leaves service_mix 100+ jobs for its p90.
    assert service_mix.BLOCK * service_mix.blocks_for(
        bench["run_seconds"]) >= 100


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")


if __name__ == "__main__":
    main()
