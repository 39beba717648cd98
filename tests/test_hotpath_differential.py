"""Differential and regression tests for the hot-path overhaul.

Three optimisations replaced O(n) scans with O(1) bookkeeping; these
tests check each fast path against a slow reference implementation:

* ``Channel.carrier_busy`` (per-node audible counters) vs
  :func:`_carrier_busy_bruteforce` below (scan over active
  transmissions), compared at every node after every executed event of a
  saturated run;
* ``Topology.grid_index`` bucket lookups, and ``Topology.nodes_within``
  through its shared power-of-two radius classes, vs
  ``nodes_within_linear``, compared over random topologies and radii
  (same ids, same order);
* the static link-budget cache vs recomputing every BER draw (the path
  a time-varying loss model takes), compared as full end-to-end metric
  summaries of a fixed-seed MNP run (bit-identical floats).

Plus regressions for the ``run_until`` dead-air fold (O(events) loop
iterations, bit-exact stop times) and the frozen per-power-level ranges
behind the neighbor cache.
"""

import random

import pytest

from repro.net.loss_models import EmpiricalLossModel
from repro.net.topology import Topology
from repro.radio.channel import Channel
from repro.radio.mac import CsmaMac
from repro.radio.packet import Frame
from repro.radio.propagation import PropagationModel
from repro.radio.radio import Radio
from repro.sim.kernel import MINUTE, SECOND, Simulator


def _saturated_channel(positions, range_ft, frames_per_node, seed=0):
    """A channel with every MAC kept busy (same shape as the profiling
    harness's saturation workload, but small enough to single-step)."""
    from repro.profiling import StressPayload, _SaturatingSender

    sim = Simulator(seed=seed)
    topology = Topology(positions)
    channel = Channel(sim, topology, EmpiricalLossModel(seed=seed),
                      PropagationModel(range_ft, 3.0), seed=seed)
    senders = []
    for node_id in topology.node_ids():
        radio = Radio(sim, node_id)
        channel.attach(radio)
        radio.turn_on()
        mac = CsmaMac(sim, radio, channel, seed=seed)
        senders.append(_SaturatingSender(mac, frames_per_node))
    for sender in senders:
        sender.start()
    return sim, topology, channel


def _carrier_busy_bruteforce(channel, node_id):
    """Reference O(active transmissions) scan with distance math: the
    ground truth for the counter-based ``Channel.carrier_busy``."""
    if channel._radios[node_id].transmitting:
        return True
    for src, tx in channel._active.items():
        if src == node_id:
            continue
        if channel.topology.distance(src, node_id) <= tx.range_ft:
            return True
    return False


class TestCarrierCounterDifferential:
    def test_matches_bruteforce_after_every_event(self):
        """O(1) counter == reference scan, at every node, after every
        single event of a congested hidden-terminal-rich run."""
        rng = random.Random(42)
        positions = [(rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0))
                     for _ in range(14)]
        sim, topology, channel = _saturated_channel(
            positions, range_ft=22.0, frames_per_node=6)
        steps = 0
        while sim.pending:
            if sim.run(max_events=1) == 0:
                break
            steps += 1
            for node_id in topology.node_ids():
                assert (channel._carrier[node_id] > 0
                        or channel._radios[node_id].transmitting) == \
                    _carrier_busy_bruteforce(channel, node_id), \
                    f"divergence at node {node_id}, t={sim.now}"
        assert steps > 300  # the run actually exercised the channel
        assert channel.collisions > 0  # ... under real contention

    def test_counters_drain_to_zero(self):
        """Every audible-carrier increment is matched by a decrement."""
        sim, topology, channel = _saturated_channel(
            [(x * 9.0, 0.0) for x in range(8)],
            range_ft=20.0, frames_per_node=5)
        sim.run()
        assert not channel._active
        assert all(count == 0 for count in channel._carrier.values())


class TestGridIndexDifferential:
    RADII = (4.0, 13.0, 25.0, 47.0, 200.0)

    def test_random_topologies_match_linear(self):
        """Bucket index returns the same ids in the same order as the
        linear scan, for random placements and a spread of radii."""
        for trial in range(4):
            rng = random.Random(trial)
            positions = [(rng.uniform(0.0, 120.0), rng.uniform(0.0, 120.0))
                         for _ in range(45)]
            topo = Topology(positions)
            for radius in self.RADII:
                index = topo.grid_index(radius)
                for node in topo.node_ids():
                    assert index.nodes_within(node, radius) == \
                        topo.nodes_within_linear(node, radius)

    def test_grid_topology_matches_linear(self):
        topo = Topology.grid(9, 9, 10.0)
        for radius in self.RADII:
            index = topo.grid_index(radius)
            for node in topo.node_ids():
                assert index.nodes_within(node, radius) == \
                    topo.nodes_within_linear(node, radius)

    def test_query_radius_may_be_smaller_than_cell(self):
        """One index instance serves any radius <= its cell size."""
        topo = Topology.grid(6, 6, 10.0)
        index = topo.grid_index(50.0)
        for radius in (3.0, 10.0, 25.0, 50.0):
            for node in topo.node_ids():
                assert index.nodes_within(node, radius) == \
                    topo.nodes_within_linear(node, radius)

    def test_nonpositive_radius_falls_back(self):
        topo = Topology.grid(3, 3, 10.0)
        assert topo.nodes_within(4, 0.0) == topo.nodes_within_linear(4, 0.0)

    def test_radius_classes_are_shared(self):
        topo = Topology.grid(8, 8, 10.0)
        # A power sweep's worth of distinct radii...
        radii = [13.0, 16.0, 21.0, 25.0, 30.0, 31.9, 60.0]
        for radius in radii:
            for node in (0, 27, 63):
                assert topo.nodes_within(node, radius) == \
                    topo.nodes_within_linear(node, radius)
        # ...lands on a logarithmic number of shared index classes.
        assert set(topo._grid_indices) == {16.0, 32.0, 64.0}

    def test_radius_class_quantization(self):
        assert Topology.radius_class(13.0) == 16.0
        assert Topology.radius_class(16.0) == 16.0
        assert Topology.radius_class(16.1) == 32.0
        assert Topology.radius_class(0.4) == 0.5

    def test_random_topologies_via_classes(self):
        """``Topology.nodes_within`` -- served from the shared radius-class
        indices -- matches the linear scan on random placements."""
        for trial in range(3):
            rng = random.Random(100 + trial)
            topo = Topology(
                [(rng.uniform(0, 150.0), rng.uniform(0, 150.0))
                 for _ in range(40)]
            )
            for radius in (7.3, 19.0, 33.3, 90.0):
                for node in topo.node_ids():
                    assert topo.nodes_within(node, radius) == \
                        topo.nodes_within_linear(node, radius)


class TestLinkCacheDeterminism:
    def test_cached_run_bit_identical_to_uncached(self, monkeypatch):
        """The fixed-seed MNP metric summary is byte-identical with the
        link cache enabled and with the loss model marked time-varying
        (the uncached path) -- caching must never change a single RNG
        draw or float."""
        from repro.runner import RunSpec, execute_spec

        spec = RunSpec("grid", protocol="mnp", scale="smoke", seed=3,
                       rows=5, cols=5, n_segments=1, segment_packets=8)
        cached = execute_spec(spec)
        monkeypatch.setattr(EmpiricalLossModel, "is_time_varying", True)
        uncached = execute_spec(spec)
        assert cached == uncached

    def test_cache_actually_engages(self):
        sim, topology, channel = _saturated_channel(
            [(x * 9.0, 0.0) for x in range(6)],
            range_ft=20.0, frames_per_node=4)
        sim.run()
        assert channel.link_cache_enabled
        assert channel.link_cache_hits > 0
        # One miss per (src, dst, range, frame size) at most.
        assert channel.link_cache_misses <= len(topology) ** 2

    def test_time_varying_flag_bypasses_cache(self, monkeypatch):
        monkeypatch.setattr(EmpiricalLossModel, "is_time_varying", True)
        sim, topology, channel = _saturated_channel(
            [(x * 9.0, 0.0) for x in range(6)],
            range_ft=20.0, frames_per_node=4)
        sim.run()
        assert not channel.link_cache_enabled
        assert channel.link_cache_hits == 0
        assert channel.link_cache_misses == 0

    def test_time_varying_model_disables_cache(self):
        from repro.net.loss_models import DegradedLossModel

        sim = Simulator(seed=0)
        topology = Topology.grid(2, 2, 10.0)
        model = DegradedLossModel(sim, EmpiricalLossModel(seed=0),
                                  [(0.0, 1000.0)], ber_floor=0.5)
        channel = Channel(sim, topology, model,
                          PropagationModel(25.0, 3.0), seed=0)
        assert not channel.link_cache_enabled


class TestRunUntilDeadAir:
    def test_loop_iterations_scale_with_events_not_time(self):
        """An hour of dead air between two events must cost O(1) loop
        iterations (the fold), not one predicate poll per second."""
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(0.5 * SECOND, lambda: fired.append(1))
        sim.schedule(60.0 * MINUTE, lambda: fired.append(2))
        polls = [0]

        def predicate():
            polls[0] += 1
            return len(fired) == 2

        assert sim.run_until(predicate, check_every=SECOND,
                             deadline=120.0 * MINUTE)
        assert len(fired) == 2
        assert polls[0] < 20, f"{polls[0]} predicate polls for 2 events"

    def test_stop_time_matches_stepping_semantics(self):
        """The folded horizon must equal the horizon the pre-overhaul
        1-slice-per-iteration stepping loop would have reached."""
        sim = Simulator(seed=0)
        fired = []
        event_t = 37.0 * MINUTE + 123.456
        sim.schedule(event_t, lambda: fired.append(1))
        sim.run_until(lambda: bool(fired), check_every=SECOND,
                      deadline=120.0 * MINUTE)
        horizon = 0.0
        while horizon < event_t:  # replay the old float additions
            horizon = horizon + SECOND
        assert sim.now == horizon

    def test_deadline_still_exact(self):
        sim = Simulator(seed=0)
        deadline = 10.0 * SECOND + 0.125
        sim.schedule(60.0 * MINUTE, lambda: None)  # beyond the deadline
        assert not sim.run_until(lambda: False, check_every=SECOND,
                                 deadline=deadline)
        assert sim.now == deadline

    def test_empty_queue_returns_predicate(self):
        sim = Simulator(seed=0)
        assert not sim.run_until(lambda: False, check_every=SECOND,
                                 deadline=SECOND)


class _DriftingPropagation:
    """Misbehaving model: a different range on every consultation."""

    def __init__(self, start_ft=25.0):
        self.calls = 0
        self.start_ft = start_ft

    def range_ft(self, power_level):
        self.calls += 1
        return self.start_ft + 40.0 * (self.calls - 1)


class TestFrozenRanges:
    def _channel(self):
        sim = Simulator(seed=0)
        topology = Topology([(0.0, 0.0), (20.0, 0.0), (60.0, 0.0)])
        prop = _DriftingPropagation()
        channel = Channel(sim, topology, EmpiricalLossModel(seed=0),
                          prop, seed=0)
        return sim, channel, prop

    def test_range_frozen_at_first_use(self):
        sim, channel, prop = self._channel()
        first = channel.neighbors(0, 255)
        assert prop.calls == 1
        # The model now reports 65 ft; the frozen 25 ft answer persists.
        assert channel.neighbors(0, 255) == first == [1]
        assert prop.calls == 1
        assert channel._range_for(255) == 25.0

    def test_invalidate_consults_propagation_again(self):
        sim, channel, prop = self._channel()
        assert channel.neighbors(0, 255) == [1]  # frozen at 25 ft
        channel.invalidate_neighbors()
        assert channel.neighbors(0, 255) == [1, 2]  # refrozen at 65 ft
        assert prop.calls == 2

    def test_invalidate_mid_transmission_raises(self):
        sim, channel, prop = self._channel()
        radio = Radio(sim, 0)
        channel.attach(radio)
        radio.turn_on()
        channel.transmit(radio, Frame(0, object(), 36))
        assert channel._active
        with pytest.raises(RuntimeError):
            channel.invalidate_neighbors()
        sim.run()
        channel.invalidate_neighbors()  # fine once the air is clear
