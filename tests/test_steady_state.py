"""Post-completion (steady-state) behaviour.

Once every node holds the image, the network should go quiet: intervals
back off exponentially and nodes nap through them, so the marginal radio
duty cycle falls toward zero ("saves energy when the network is stable",
§3.1.1).  Reliability must nevertheless survive: a late advertisement
round still answers demand (see the late-joiner tests).
"""

import pytest

from repro.core.segments import CodeImage
from repro.experiments.common import Deployment
from repro.net.loss_models import PerfectLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE


def completed_deployment(seed=0):
    image = CodeImage.random(1, n_segments=1, segment_packets=16, seed=seed)
    dep = Deployment(
        Topology.grid(3, 3, 15), image=image, protocol="mnp", seed=seed,
        loss_model=PerfectLossModel(),
        propagation=PropagationModel.outdoor(25.0),
    )
    res = dep.run_to_completion(deadline_ms=30 * MINUTE)
    assert res.all_complete
    return dep, res


def test_steady_state_duty_cycle_collapses():
    dep, res = completed_deployment(seed=8)
    on_at_completion = {
        n: mote.radio.on_time_ms() for n, mote in dep.motes.items()
    }
    window = 10 * MINUTE
    dep.sim.run(until=dep.sim.now + window)
    for node_id, mote in dep.motes.items():
        extra = mote.radio.on_time_ms() - on_at_completion[node_id]
        duty = extra / window
        assert duty < 0.20, f"node {node_id} stayed on {duty:.0%}"


def test_steady_state_message_rate_collapses():
    dep, res = completed_deployment(seed=9)
    sent_at_completion = sum(res.messages_sent().values())
    completion = dep.sim.now
    dep.sim.run(until=completion + 10 * MINUTE)
    sent_after = sum(res.messages_sent().values())
    extra_rate = (sent_after - sent_at_completion) / 10.0  # msgs/min
    rate_during = sent_at_completion / (completion / MINUTE)
    assert extra_rate < 0.5 * rate_during


def test_advertisement_intervals_reach_cap():
    dep, res = completed_deployment(seed=10)
    dep.sim.run(until=dep.sim.now + 15 * MINUTE)
    capped = sum(
        1 for node in dep.nodes.values()
        if node._adv_interval == node.config.adv_interval_max_ms
    )
    assert capped >= len(dep.nodes) // 2


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_completion_across_seeds(seed):
    dep, res = completed_deployment(seed=seed)
    assert res.coverage == 1.0
