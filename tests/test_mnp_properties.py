"""Property-based end-to-end tests: MNP invariants over randomized
deployments.

Hypothesis drives topology shape, image geometry, channel seed, and
ablation switches; the invariants checked are the paper's correctness
claims, which must hold for *every* configuration:

* coverage -- all nodes of a connected network obtain the image;
* accuracy -- the received image is byte-identical;
* write-once -- no EEPROM key is written more than once;
* legal state machine -- every observed transition is an edge of Fig. 4.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import MNPConfig
from repro.core.segments import CodeImage
from repro.core.states import is_allowed
from repro.experiments.common import Deployment
from repro.net.loss_models import UniformLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE

RANGE_FT = 25.0


def run_case(rows, cols, spacing, n_segments, segment_packets, seed, ber,
             config):
    topo = Topology.grid(rows, cols, spacing)
    image = CodeImage.random(1, n_segments=n_segments,
                             segment_packets=segment_packets, seed=seed)
    dep = Deployment(
        topo, image=image, protocol="mnp", protocol_config=config,
        seed=seed, loss_model=UniformLossModel(ber),
        propagation=PropagationModel.outdoor(RANGE_FT),
    )
    res = dep.run_to_completion(deadline_ms=60 * MINUTE)
    return dep, res, image


case = st.fixed_dictionaries({
    "rows": st.integers(1, 3),
    "cols": st.integers(2, 4),
    "spacing": st.sampled_from([10, 15, 20]),
    "n_segments": st.integers(1, 3),
    "segment_packets": st.sampled_from([4, 8]),
    "seed": st.integers(0, 10_000),
    "ber": st.sampled_from([0.0, 1e-4, 5e-4]),
})

ablations = st.fixed_dictionaries({
    "query_update": st.booleans(),
    "pipelining": st.booleans(),
    "idle_sleep": st.booleans(),
})


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case, ablations)
def test_property_connected_networks_complete_correctly(params, abl):
    config = MNPConfig(**abl)
    dep, res, image = run_case(config=config, **params)
    assert res.all_complete, (
        f"incomplete: {res.coverage:.0%} with {params} {abl}"
    )
    # Accuracy: byte-identical images everywhere.
    expected = image.to_bytes()
    for node in dep.nodes.values():
        assert node.assemble_image() == expected
    # Write-once EEPROM invariant.
    for mote in dep.motes.values():
        assert mote.eeprom.max_write_count() <= 1
    # Legal state machine.
    for node in dep.nodes.values():
        for _, frm, to in node.state_changes:
            assert is_allowed(frm, to)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000))
def test_property_runs_are_deterministic(seed):
    """Same seed, same everything: completion times and message counts
    must match exactly across repeated runs."""
    def once():
        dep, res, _ = run_case(rows=2, cols=3, spacing=15, n_segments=2,
                               segment_packets=4, seed=seed, ber=1e-4,
                               config=MNPConfig())
        return (res.completion_time_ms, dict(res.messages_sent()),
                res.collisions)

    assert once() == once()


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000), st.sampled_from([0.0, 1e-4]))
def test_property_sleeping_never_loses_data(seed, ber):
    """Radio sleeping is an energy optimization: it must never corrupt
    stored data (missing vectors and EEPROM stay consistent)."""
    dep, res, image = run_case(rows=2, cols=3, spacing=15, n_segments=2,
                               segment_packets=8, seed=seed, ber=ber,
                               config=MNPConfig())
    assert res.all_complete
    for node in dep.nodes.values():
        for seg_id, missing in node._seg_missing.items():
            for pkt in range(node.program.n_packets(seg_id)):
                stored = (node.program.program_id, seg_id, pkt) in node.mote.eeprom
                if node._base_image is None:
                    assert stored == (not missing.test(pkt))
