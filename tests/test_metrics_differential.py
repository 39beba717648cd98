"""Differential test: the collector's per-frame views against the trace.

``MetricsCollector`` reads transmissions, decoded frames and collisions
from the channel and its radios.  :class:`RecordOracle` rebuilds the same
views from one ``radio.tx``, ``radio.rx`` or ``channel.collision`` trace
record per frame, the way the collector itself once did, and every view
must equal it on seeded runs covering stock MNP, the secured coded
variant, crashes and brownouts that abort frames mid-air, decode
corruption, the TDMA MAC and Deluge.  Attaching the oracle makes the
channel emit those records, which must not change the simulated outcome.
"""

from collections import Counter

import pytest

from repro.core.auth import SecurityConfig
from repro.core.segments import CodeImage
from repro.experiments.chaos import run_chaos
from repro.experiments.common import Deployment
from repro.faults import FaultPlan
from repro.hardware.mote import MoteConfig
from repro.net.loss_models import EmpiricalLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.radio.tdma import TdmaMac, build_tdma_schedule
from repro.sim.kernel import MINUTE, SECOND
from repro.sim.tracing import pop_tap, push_tap


class RecordOracle:
    """Per-frame metrics rebuilt from one trace record per frame."""

    CATEGORIES = ("radio.tx", "radio.rx", "channel.collision")

    def __init__(self):
        self.tx_by_node = Counter()
        self.tx_log = []  # (time, node, kind)
        self.rx_by_node = Counter()
        self.collisions = 0

    def on_record(self, rec):
        fields = rec.fields
        category = rec.category
        if category == "radio.tx":
            node = fields["node"]
            kind = fields["kind"]
            self.tx_by_node[node] += 1
            self.tx_log.append((rec.time, node, kind))
        elif category == "radio.rx":
            self.rx_by_node[fields["node"]] += 1
        elif category == "channel.collision":
            self.collisions += 1


def _image(seed, n_segments=1):
    return CodeImage.random(1, n_segments=n_segments, segment_packets=16,
                            seed=seed)


def _deployment(protocol="mnp", rows=4, cols=4, range_ft=13.0, seed=3,
                n_segments=1, **kwargs):
    return Deployment(
        Topology.grid(rows, cols, 10.0), image=_image(seed, n_segments),
        protocol=protocol, seed=seed,
        propagation=PropagationModel(range_ft, 3.0),
        loss_model=EmpiricalLossModel(seed=seed), **kwargs,
    )


def stock_mnp():
    dep = _deployment(n_segments=2)
    dep.run_to_completion(deadline_ms=60 * MINUTE)
    return dep


def secured_coded_mnp():
    dep = _deployment("coded_mnp", rows=3, cols=3, range_ft=25.0, seed=42,
                      n_segments=2, security=SecurityConfig(enabled=True))
    dep.run_to_completion(deadline_ms=60 * MINUTE)
    return dep


def chaos():
    """Crashes and brownouts (some cut a frame off mid-air) plus decode
    corruption, both dropped and passed through."""
    plan = FaultPlan().decode_corruption(probability=0.05, pass_fraction=0.2)
    for i in range(12):
        plan.brownout(at_ms=(3 + 2.1 * i) * SECOND,
                      duration_ms=2 * SECOND, count=3)
    plan.crash(at_ms=11 * SECOND, count=3, restart_after_ms=20 * SECOND)
    out = run_chaos(plan, rows=4, cols=4, n_segments=1, segment_packets=16,
                    seed=1)
    counts = out.controller.summary()["counts"]
    assert counts["decode_drop"] > 0 and counts["decode_pass"] > 0
    channel = out.deployment.channel
    finished = sum(r.frames_sent for r in channel.radios.values())
    assert channel.transmissions > finished  # frames aborted mid-air
    return out.deployment


def mnp_over_tdma():
    topo = Topology.grid(3, 3, 10.0)
    schedule = build_tdma_schedule(topo, 25.0, slot_ms=30.0)
    dep = _deployment(
        rows=3, cols=3, range_ft=25.0,
        mote_config=MoteConfig(
            mac_factory=lambda sim, radio, channel, seed: TdmaMac(
                sim, radio, channel, schedule, seed=seed)),
    )
    dep.run_to_completion(deadline_ms=60 * MINUTE)
    return dep


def deluge():
    dep = _deployment("deluge", n_segments=2)
    dep.run_to_completion(deadline_ms=60 * MINUTE)
    return dep


SCENARIOS = {
    "stock_mnp": stock_mnp,
    "secured_coded_mnp": secured_coded_mnp,
    "chaos": chaos,
    "mnp_over_tdma": mnp_over_tdma,
    "deluge": deluge,
}


def observed(scenario):
    """Run ``scenario`` with a :class:`RecordOracle` tapped into its
    tracer from construction on."""
    oracle = RecordOracle()
    tap = push_tap(oracle.on_record, categories=RecordOracle.CATEGORIES)
    try:
        dep = SCENARIOS[scenario]()
    finally:
        pop_tap(tap)
    return dep, oracle


def outcome(dep):
    collector = dep.collector
    got_code = {n: node.got_code_time for n, node in dep.nodes.items()}
    return (dep.sim.events_executed, dep.sim.now, got_code,
            collector.tx_log, dict(collector.rx_by_node),
            collector.collisions)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_collector_views_equal_record_oracle(scenario):
    dep, oracle = observed(scenario)
    collector = dep.collector
    assert oracle.tx_log and oracle.rx_by_node
    assert collector.tx_log == oracle.tx_log
    assert list(collector.tx_by_node.items()) == \
        list(oracle.tx_by_node.items())
    assert dict(collector.rx_by_node) == dict(oracle.rx_by_node)
    assert collector.collisions == oracle.collisions
    assert dep.channel.transmissions == len(oracle.tx_log)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_oracle_leaves_the_run_unchanged(scenario):
    watched, _ = observed(scenario)
    unwatched = SCENARIOS[scenario]()
    assert outcome(watched) == outcome(unwatched)
