"""Tests for the Fig. 4 state machine table."""

import pytest

from repro.baselines.deluge import DelugeNode
from repro.baselines.moap import MoapNode
from repro.baselines.xnp import XnpNode
from repro.core.config import MNPConfig
from repro.core.mnp import MNPNode, TransitionError
from repro.core.states import (
    ALLOWED_TRANSITIONS,
    EDGES,
    MNPState,
    is_allowed,
    iter_edges,
    register_edges,
)
from tests.conftest import make_world


def test_all_states_enumerated():
    assert set(MNPState.ALL) == {
        "idle", "download", "advertise", "forward", "sleep", "fail",
        "query", "update",
    }
    assert set(MNPState.BASIC) == set(MNPState.ALL) - {"query", "update"}


def test_fig4_core_edges_present():
    # The edges spelled out in the figure's caption text.
    assert is_allowed(MNPState.IDLE, MNPState.DOWNLOAD)
    assert is_allowed(MNPState.DOWNLOAD, MNPState.ADVERTISE)
    assert is_allowed(MNPState.DOWNLOAD, MNPState.FAIL)
    assert is_allowed(MNPState.ADVERTISE, MNPState.FORWARD)
    assert is_allowed(MNPState.ADVERTISE, MNPState.SLEEP)
    assert is_allowed(MNPState.FORWARD, MNPState.SLEEP)
    assert is_allowed(MNPState.SLEEP, MNPState.ADVERTISE)
    assert is_allowed(MNPState.FAIL, MNPState.IDLE)


def test_query_update_extension_edges():
    assert is_allowed(MNPState.FORWARD, MNPState.QUERY)
    assert is_allowed(MNPState.QUERY, MNPState.SLEEP)
    assert is_allowed(MNPState.DOWNLOAD, MNPState.UPDATE)
    assert is_allowed(MNPState.UPDATE, MNPState.ADVERTISE)
    assert is_allowed(MNPState.UPDATE, MNPState.FAIL)


def test_forbidden_edges():
    assert not is_allowed(MNPState.IDLE, MNPState.FORWARD)
    assert not is_allowed(MNPState.SLEEP, MNPState.DOWNLOAD)
    assert not is_allowed(MNPState.FAIL, MNPState.ADVERTISE)
    assert not is_allowed(MNPState.FORWARD, MNPState.DOWNLOAD)
    assert not is_allowed(MNPState.QUERY, MNPState.DOWNLOAD)
    assert not is_allowed(MNPState.UPDATE, MNPState.DOWNLOAD)


def test_fail_is_transient_with_single_exit():
    assert ALLOWED_TRANSITIONS[MNPState.FAIL] == {MNPState.IDLE}


def test_every_state_is_reachable_and_leavable():
    reachable = {t for targets in ALLOWED_TRANSITIONS.values()
                 for t in targets}
    # idle is the initial state, so it need not be a target of the figure,
    # but our table includes sleep->idle and fail->idle.
    assert set(MNPState.ALL) - reachable == set()
    for state in MNPState.ALL:
        assert ALLOWED_TRANSITIONS.get(state), f"{state} is a dead end"


def test_unknown_state_has_no_transitions():
    assert not is_allowed("bogus", MNPState.IDLE)


def test_iter_edges_matches_the_table_and_is_deterministic():
    edges = list(iter_edges())
    assert edges == list(iter_edges())
    assert len(edges) == len(set(edges))
    assert set(edges) == {
        (frm, to) for frm, targets in ALLOWED_TRANSITIONS.items()
        for to in targets
    }
    assert [e for e in edges if e[0] == MNPState.FAIL] == [
        (MNPState.FAIL, MNPState.IDLE)
    ]


# ----------------------------------------------------------------------
# One edge lookup for every protocol with roles
# ----------------------------------------------------------------------
def test_every_protocol_table_is_in_the_one_lookup():
    for cls in (MNPNode, DelugeNode, MoapNode, XnpNode):
        for frm, targets in cls.TRANSITIONS.items():
            assert EDGES[frm] is targets  # shared, not copied
            for to in targets:
                assert is_allowed(frm, to)
    assert MNPNode.TRANSITIONS is ALLOWED_TRANSITIONS
    assert not is_allowed(DelugeNode.TX, DelugeNode.RX)
    assert not is_allowed(MoapNode.LISTEN, MNPState.IDLE)


def test_a_state_name_belongs_to_one_protocol():
    with pytest.raises(ValueError):
        register_edges({MoapNode.LISTEN: {MoapNode.PUBLISH}})
    assert EDGES[MoapNode.LISTEN] is MoapNode.TRANSITIONS[MoapNode.LISTEN]


# ----------------------------------------------------------------------
# Every edge through the real protocol engine, both Fig. 4 variants
# ----------------------------------------------------------------------
@pytest.fixture(params=[False, True], ids=["basic", "query_update"])
def engine(request):
    world = make_world([(0.0, 0.0)])
    return MNPNode(world.motes[0],
                   config=MNPConfig(query_update=request.param))


def test_engine_accepts_every_fig4_edge(engine):
    for frm, to in iter_edges():
        engine.state = frm
        engine._set_state(to)
        assert engine.state == to
        assert engine.state_changes[-1][1:] == (frm, to)


def test_engine_rejects_every_non_edge(engine):
    allowed = set(iter_edges())
    rejected = 0
    for frm in MNPState.ALL:
        for to in MNPState.ALL:
            if frm == to or (frm, to) in allowed:
                continue
            engine.state = frm
            with pytest.raises(TransitionError):
                engine._set_state(to)
            rejected += 1
    assert rejected == len(MNPState.ALL) * (len(MNPState.ALL) - 1) \
        - len(allowed)


def test_fail_helper_always_drains_to_idle(engine):
    # FAIL is reachable from DOWNLOAD and UPDATE; the _fail helper must
    # take either straight through FAIL back to IDLE in one step.
    for frm in (MNPState.DOWNLOAD, MNPState.UPDATE):
        engine.state = frm
        fails_before = engine.fails
        engine._fail("test")
        assert engine.state == MNPState.IDLE
        assert engine.fails == fails_before + 1
        assert engine.state_changes[-2][1:] == (frm, MNPState.FAIL)
        assert engine.state_changes[-1][1:] == (MNPState.FAIL,
                                                MNPState.IDLE)
