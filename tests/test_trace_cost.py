"""Deterministic cost proxy: trace emits on a seeded stock-MNP run.

Per-frame metrics come from the channel's own counts, and the hot
protocol emits are guarded by ``Tracer.watches``, so a run whose only
subscriber is the metrics collector makes no ``Tracer.emit`` call for a
per-frame or per-state-change category.  Emit calls are counted, not
timed, so the figure is exact on any host.
"""

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


def test_plain_run_emits_only_collector_milestones(monkeypatch):
    calls = Counter()
    emit = Tracer.emit

    def counted(self, category, **fields):
        calls[category] += 1
        emit(self, category, **fields)

    monkeypatch.setattr(Tracer, "emit", counted)
    dep = Deployment(
        Topology.grid(6, 6, 10.0),
        image=CodeImage.random(1, n_segments=2, segment_packets=32, seed=3),
        seed=3, propagation=PropagationModel(13.0, 3.0),
        loss_model=EmpiricalLossModel(seed=3),
    )
    result = dep.run_to_completion()
    assert result.all_complete
    assert sum(result.messages_sent().values()) == 5126
    assert result.collector.collisions == 552
    assert sum(result.messages_received().values()) == 7320
    for category in HOT_CATEGORIES:
        assert calls[category] == 0, category
    assert set(calls) <= set(MetricsCollector.CATEGORIES)
    assert sum(calls.values()) == 696
