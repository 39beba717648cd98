"""Tests for channel outages (link degradation windows whose BER floor
of 0.5 lets nothing decode), RunResult summaries, and the wavefront
speed estimator."""

import json

import pytest

from repro.core.segments import CodeImage
from repro.experiments.common import Deployment
from repro.faults import FaultController, FaultPlan
from repro.net.loss_models import DegradedLossModel, PerfectLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE, SECOND, Simulator


def build(nodes=3, seed=0, n_segments=1):
    image = CodeImage.random(1, n_segments=n_segments, segment_packets=8,
                             seed=seed)
    dep = Deployment(
        Topology.line(nodes, 15), image=image, protocol="mnp", seed=seed,
        loss_model=PerfectLossModel(),
        propagation=PropagationModel.outdoor(25.0),
    )
    return dep, image


def black_out(dep, start_ms, end_ms, nodes=None):
    """Saturate the BER of every (or the given nodes') link inside the
    window: a link degradation with a 0.5 floor."""
    plan = FaultPlan().link_degradation(start_ms, end_ms, ber_factor=1.0,
                                        ber_floor=0.5, nodes=nodes)
    FaultController(dep, plan).install()


# ----------------------------------------------------------------------
# Outage windows
# ----------------------------------------------------------------------
def test_outage_saturates_ber():
    sim = Simulator()
    model = DegradedLossModel(sim, PerfectLossModel(), [(100.0, 200.0)],
                              ber_floor=0.5)
    sim.now = 50.0
    assert model.ber(0, 1, 5.0, 25.0) == 0.0
    sim.now = 150.0
    assert model.ber(0, 1, 5.0, 25.0) == 0.5
    assert model.degraded_packets == 1
    sim.now = 200.0
    assert model.ber(0, 1, 5.0, 25.0) == 0.0  # end is exclusive


def test_outage_node_scoping():
    sim = Simulator()
    model = DegradedLossModel(sim, PerfectLossModel(), [(0.0, 100.0)],
                              ber_floor=0.5, nodes={7})
    sim.now = 50.0
    assert model.ber(7, 1, 5.0, 25.0) == 0.5
    assert model.ber(1, 7, 5.0, 25.0) == 0.5
    assert model.ber(1, 2, 5.0, 25.0) == 0.0


def test_outage_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        DegradedLossModel(sim, PerfectLossModel(), [(100.0, 100.0)])


def test_dissemination_rides_out_a_blackout():
    dep, image = build(seed=3, n_segments=2)
    # Black out the whole channel for 30 s early in the run.
    black_out(dep, 5 * SECOND, 35 * SECOND)
    res = dep.run_to_completion(deadline_ms=60 * MINUTE)
    assert res.all_complete
    assert res.images_intact(image)
    assert dep.loss_model.degraded_packets > 0
    # The blackout cost time: completion lands after the window.
    assert res.completion_time_ms > 35 * SECOND


def test_scoped_outage_only_delays_affected_branch():
    dep, image = build(nodes=4, seed=4)
    black_out(dep, 0.0, 20 * SECOND, nodes={3})
    res = dep.run_to_completion(deadline_ms=60 * MINUTE)
    assert res.all_complete
    times = res.got_code_times_ms()
    assert times[3] > 20 * SECOND  # the jammed node had to wait
    assert times[1] < 20 * SECOND  # the clean branch did not


# ----------------------------------------------------------------------
# RunResult.to_dict
# ----------------------------------------------------------------------
def test_run_result_to_dict_is_json_ready():
    dep, image = build(seed=5)
    res = dep.run_to_completion(deadline_ms=30 * MINUTE)
    summary = res.to_dict()
    text = json.dumps(summary)  # must not raise
    parsed = json.loads(text)
    assert parsed["coverage"] == 1.0
    assert parsed["all_complete"] is True
    assert parsed["nodes"] == 3
    assert parsed["completion_ms"] > 0
    assert parsed["senders"] >= 1


# ----------------------------------------------------------------------
# Wavefront speed
# ----------------------------------------------------------------------
def test_wavefront_speed_positive_on_line():
    from repro.experiments.propagation import wavefront_speed_ft_per_s

    dep, image = build(nodes=5, seed=6)
    res = dep.run_to_completion(deadline_ms=60 * MINUTE)
    speed = wavefront_speed_ft_per_s(res)
    assert speed is not None
    assert speed > 0


def test_wavefront_speed_degenerate_cases():
    from repro.experiments.propagation import wavefront_speed_ft_per_s

    dep, image = build(nodes=2, seed=7)
    res = dep.run_to_completion(deadline_ms=30 * MINUTE)
    # 2 nodes -> 1 non-base arrival -> not enough points
    assert wavefront_speed_ft_per_s(res) is None
