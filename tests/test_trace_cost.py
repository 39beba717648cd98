"""Deterministic cost proxies on a seeded stock-MNP run.

Per-frame metrics come from the channel's own counts, and the hot
protocol emits are guarded by ``Tracer.watches``, so a run whose only
subscriber is the metrics collector makes no ``Tracer.emit`` call for a
per-frame or per-state-change category.  The same run also pins how many
Python calls the event kernel and the radio stack make.  Calls are
counted, not timed, so the figures are exact on any host.
"""

import sys
from collections import Counter

from repro.core.segments import CodeImage
from repro.experiments.common import Deployment
from repro.metrics.collector import MetricsCollector
from repro.net.loss_models import EmpiricalLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
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


def test_plain_run_emits_only_collector_milestones(monkeypatch):
    calls = Counter()
    emit = Tracer.emit

    def counted(self, category, **fields):
        calls[category] += 1
        emit(self, category, **fields)

    monkeypatch.setattr(Tracer, "emit", counted)
    result = _seeded_deployment().run_to_completion()
    assert result.all_complete
    assert sum(result.messages_sent().values()) == 5126
    assert result.collector.collisions == 552
    assert sum(result.messages_received().values()) == 7320
    for category in HOT_CATEGORIES:
        assert calls[category] == 0, category
    assert set(calls) <= set(MetricsCollector.CATEGORIES)
    assert sum(calls.values()) == 696


def test_plain_run_calls_into_kernel_and_radio():
    """Every Python call whose code lives under ``repro/sim/`` or
    ``repro/radio/`` is counted with ``sys.setprofile``: a change that
    adds or removes a call per event, per frame or per reception moves
    these counts (317,032 in all when the kernel still called into the
    queue per event and the channel built a record per reception; the
    kernel's 127,156 while each schedule still called into the queue;
    the radio's 131,478 while each MAC reset called a separate
    ``cancel_pending``, 1,099 times on this run)."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename.replace("\\", "/")
            if "/repro/sim/" in path:
                calls["sim"] += 1
            elif "/repro/radio/" in path:
                calls["radio"] += 1

    dep = _seeded_deployment()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = dep.run_to_completion()
    finally:
        sys.setprofile(previous)
    assert result.all_complete
    assert dep.sim.events_executed == 17342
    assert calls == {"sim": 106125, "radio": 130379}
