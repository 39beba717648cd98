"""Shared fixtures and helpers for the test suite."""

from contextlib import contextmanager

import pytest

from repro.core.segments import CodeImage
from repro.hardware.mote import Mote, MoteConfig
from repro.net.loss_models import PerfectLossModel
from repro.net.topology import Topology
from repro.radio.channel import Channel
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import Simulator
from repro.sim.tracing import pop_tap, push_tap


class World:
    """A tiny assembled simulation world for protocol-level tests."""

    def __init__(self, positions, seed=0, loss_model=None, propagation=None,
                 mote_config=None):
        self.sim = Simulator(seed=seed)
        self.topology = Topology(positions)
        self.propagation = propagation or PropagationModel.outdoor(60.0)
        self.loss_model = loss_model or PerfectLossModel()
        self.channel = Channel(
            self.sim, self.topology, self.loss_model, self.propagation,
            seed=seed,
        )
        self.motes = [
            Mote(self.sim, self.channel, i, config=mote_config or MoteConfig(),
                 seed=seed)
            for i in self.topology.node_ids()
        ]


@pytest.fixture
def world2():
    """Two motes 10 ft apart on a perfect channel."""
    return World([(0.0, 0.0), (10.0, 0.0)])


@pytest.fixture
def world3_line():
    """Three motes in a line, 10 ft spacing, perfect channel."""
    return World([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)])


@pytest.fixture
def small_image():
    """A 2-segment image with 8 packets per segment (fast to disseminate)."""
    return CodeImage.random(program_id=1, n_segments=2, segment_packets=8,
                            seed=7)


def make_world(positions, **kwargs):
    return World(positions, **kwargs)


@contextmanager
def tapped(*categories):
    """Collect the records of ``categories`` that every simulator built
    inside the block emits (a thread-local tracer tap), in order."""
    records = []
    tap = push_tap(records.append, categories=categories)
    try:
        yield records
    finally:
        pop_tap(tap)
