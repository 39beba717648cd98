"""Deterministic cost proxies on seeded runs.

Per-frame metrics come from the channel's own counts, run milestones
from the nodes, and the hot protocol emits are guarded by
``Tracer.watches``, so a plain run subscribes nothing to the tracer and
makes no ``Tracer.emit`` call for a per-frame or per-state-change
category.

The call ledger pins how many Python calls each layer of the stack makes
on three seeded runs: the stock 6x6 run, a small coded run with the
secure pipeline, and a small faulted run.  A layer is the one perfbench
attributes a source file to (``perfbench/layers.py``'s
``_FILE_LAYERS``).  Calls are counted, not timed, so the figures are
exact on any host, and they are equal on Python 3.9, 3.11 and 3.12:
comprehension frames, which 3.12 inlines, and lambdas are not counted.
The module imports no pytest, so an interpreter without it can call the
tests directly (``PYTHONPATH=src:.``).
"""

import importlib.util
import os
import sys
from collections import Counter

import repro
from repro.core.auth import SecurityConfig
from repro.core.segments import CodeImage
from repro.experiments.chaos import FaultedRun
from repro.experiments.common import Deployment
from repro.faults import FaultPlan
from repro.net.loss_models import EmpiricalLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import SECOND
from repro.sim.tracing import Tracer

#: Emitted once per frame, or once per protocol step, and read by no
#: subscriber of a plain run.
HOT_CATEGORIES = (
    "radio.tx",
    "radio.rx",
    "channel.collision",
    "mnp.state",
    "mnp.adv",
    "mnp.sleep",
    "mnp.request",
    "mnp.sender_done",
)


def _seeded_deployment():
    return Deployment(
        Topology.grid(6, 6, 10.0),
        image=CodeImage.random(1, n_segments=2, segment_packets=32, seed=3),
        seed=3, propagation=PropagationModel(13.0, 3.0),
        loss_model=EmpiricalLossModel(seed=3),
    )


#: The run milestones: emitted unguarded, once per protocol step, and
#: stamped on the node by the same call.
MILESTONE_CATEGORIES = (
    "mnp.sender",
    "mnp.parent",
    "mnp.got_segment",
    "mnp.got_code",
    "mnp.first_adv",
    "mnp.fail",
)


def test_plain_run_subscribes_nothing(monkeypatch):
    calls = Counter()
    subscribed = []
    emit = Tracer.emit
    subscribe = Tracer.subscribe

    def counted(self, category, **fields):
        calls[category] += 1
        emit(self, category, **fields)

    def counted_subscribe(self, fn, categories=None):
        subscribed.append(fn)
        return subscribe(self, fn, categories)

    monkeypatch.setattr(Tracer, "emit", counted)
    monkeypatch.setattr(Tracer, "subscribe", counted_subscribe)
    result = _seeded_deployment().run_to_completion()
    assert subscribed == []
    assert result.all_complete
    assert sum(result.messages_sent().values()) == 5126
    assert result.collector.collisions == 552
    assert sum(result.messages_received().values()) == 7320
    for category in HOT_CATEGORIES:
        assert calls[category] == 0, category
    assert set(calls) <= set(MILESTONE_CATEGORIES)
    assert sum(calls.values()) == 696


def _file_layers():
    """perfbench's source-file -> layer map, loaded from its file."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(root, "perfbench", "layers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._FILE_LAYERS


#: Frames not counted: 3.12 inlines comprehensions, and a lambda only
#: glues a call site to its callee.
_UNCOUNTED = frozenset(
    {"<listcomp>", "<genexpr>", "<dictcomp>", "<setcomp>", "<lambda>"})


def call_ledger(run):
    """``(run(), {layer: Python calls into that layer's code})``.

    Every call (a generator resuming included) into a function under the
    ``repro`` package is counted with ``sys.setprofile`` and attributed
    to the first ``_FILE_LAYERS`` fragment its package path matches."""
    file_layers = _file_layers()
    package = os.path.dirname(repro.__file__).replace("\\", "/") + "/"
    layer_of = {}
    calls = Counter()

    def layer(code):
        path = code.co_filename.replace("\\", "/")
        if code.co_name in _UNCOUNTED or not path.startswith(package):
            return None
        path = "repro/" + path[len(package):]
        return next((name for fragment, name, _ in file_layers
                     if fragment in path), None)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in layer_of:
                layer_of[code] = layer(code)
            if layer_of[code] is not None:
                calls[layer_of[code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, dict(calls)


def test_stock_run_call_ledger():
    """The stock 6x6 run, layer by layer.  It took 380,221 calls (sim
    106,104, radio.channel 43,017, radio.mac 34,157, radio.radio
    53,205, core.mnp 123,267, hardware 18,964) while the kernel built an
    event object per schedule, each emit guard was a method call, every
    stop of a node's timers stopped all nine, and each timeout rebuilt
    a sample data packet.  Before the per-layer ledger the pin counted
    only ``repro/sim`` (106,125 with its lambdas and comprehensions)
    and ``repro/radio`` (130,379, the three radio layers' sum).  While
    the metrics collector subscribed to the milestones it took 237,534
    (sim 47,704, core.mnp 90,457, metrics 696)."""
    dep = _seeded_deployment()
    result, calls = call_ledger(dep.run_to_completion)
    assert result.all_complete
    assert dep.sim.events_executed == 17342
    assert calls == {
        "sim": 47008, "radio.channel": 22513, "radio.mac": 29032,
        "radio.radio": 39319, "core.mnp": 90922, "hardware": 7072,
        "other": 811,
    }
    assert sum(calls.values()) == 236677


def test_coded_secure_run_call_ledger():
    """Coded MNP with the secure pipeline on a 4x4 grid, installed
    through the bootloader: pins the coding and auth layers (135,861
    calls in all before the same cuts)."""
    dep = Deployment(
        Topology.grid(4, 4, 10.0),
        image=CodeImage.random(1, n_segments=2, segment_packets=16, seed=5),
        protocol="coded_mnp", seed=5,
        propagation=PropagationModel(13.0, 3.0),
        loss_model=EmpiricalLossModel(seed=5),
        security=SecurityConfig(enabled=True),
    )

    def run():
        result = dep.run_to_completion()
        return result, dep.install_all()

    (result, installs), calls = call_ledger(run)
    assert result.all_complete
    assert installs == {"installed": 16, "rejected": 0}
    assert dep.sim.events_executed == 6226
    assert calls == {
        "sim": 16423, "radio.channel": 7705, "radio.mac": 8604,
        "radio.radio": 11443, "core.mnp": 33598, "core.coding": 9565,
        "core.auth": 4290, "hardware": 2975, "other": 482,
    }


def test_faulted_run_call_ledger():
    """A 4x4 run with a crash, a restart and a degraded link window,
    audited by the watchdog: pins the fault layer (58,704 calls in all
    before the same cuts).  It took sim 10,241 and faults 3,411 while
    the watchdog read record fields through ``TraceRecord.__getattr__``
    (sim) and parsed the timer name of every ``timer.fire`` record
    (faults); it now parses each distinct name once."""
    plan = FaultPlan(salt="ledger")
    plan.crash(at_ms=5 * SECOND, count=1, restart_after_ms=20 * SECOND)
    plan.link_degradation(start_ms=2 * SECOND, end_ms=30 * SECOND,
                          ber_factor=20.0, ber_floor=0.001)
    dep = Deployment(
        Topology.grid(4, 4, 10.0),
        image=CodeImage.random(1, n_segments=1, segment_packets=16, seed=2),
        seed=2, propagation=PropagationModel(13.0, 3.0),
        loss_model=EmpiricalLossModel(seed=2),
    )

    def run():
        faulted = FaultedRun(dep, plan, stall_ms=60 * SECOND)
        faulted.settle(60 * 60 * SECOND)
        faulted.close()
        return faulted

    faulted, calls = call_ledger(run)
    assert faulted.all_complete and faulted.verdict["ok"]
    assert faulted.controller.summary()["restarted"] == [6]
    assert dep.sim.events_executed == 1881
    assert calls == {
        "sim": 8618, "radio.channel": 3377, "radio.mac": 3163,
        "radio.radio": 4687, "core.mnp": 10858, "hardware": 727,
        "faults": 2688, "other": 6494,
    }
