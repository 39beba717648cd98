"""Differential test: the milestones a node keeps against its trace.

Every protocol stamps its run milestones on the node as it emits their
records: its first turn as sender (``mnp.sender``), the parent its last
parent record names (``mnp.parent``), its radio-on time when it heard its
first advertisement (``mnp.first_adv``, the MNP family only) and the time
it got the code (``mnp.got_code``).  :class:`MilestoneRecorder` rebuilds
the run's views from those records alone, the way the metrics collector
once did, and the node-derived views must equal it for all seven
protocols, on a clean grid and under crash faults.
"""

import pytest

from repro.experiments.chaos import run_chaos, standard_plan
from repro.experiments.common import MNP_FAMILY, grid_deployment

from tests.conftest import tapped

PROTOCOLS = ("mnp", "coded_mnp", "deluge", "coded_deluge", "moap", "xnp",
             "flood")

ROWS = COLS = 5
SEED = 2


class MilestoneRecorder:
    """Milestones rebuilt from the records, one view per category."""

    CATEGORIES = ("mnp.sender", "mnp.parent", "mnp.first_adv",
                  "mnp.got_code")

    def __init__(self, records):
        self.sender_events = []  # (time, node, seg, req_ctr)
        self.parents = {}  # node -> parent of its last parent record
        self.first_adv = {}  # node -> (time, radio_on_ms)
        self.got_code = {}  # node -> time of its first got-code record
        for rec in records:
            node = rec.node
            if rec.category == "mnp.sender":
                self.sender_events.append(
                    (rec.time, node, rec.seg, rec.req_ctr))
            elif rec.category == "mnp.parent":
                self.parents[node] = rec.parent
            elif rec.category == "mnp.first_adv":
                self.first_adv[node] = (rec.time, rec.radio_on_ms)
            else:
                self.got_code.setdefault(node, rec.time)

    def sender_order(self):
        order = []
        for _, node, _, _ in sorted(self.sender_events):
            if node not in order:
                order.append(node)
        return order


def clean(protocol):
    return grid_deployment(ROWS, COLS, protocol, 1, 16,
                           SEED).run_to_completion()


def crashed(protocol):
    return run_chaos(standard_plan("crash", 0.7, ROWS, COLS), rows=ROWS,
                     cols=COLS, protocol=protocol, n_segments=1,
                     segment_packets=16, seed=SEED)


@pytest.mark.parametrize("scenario", [clean, crashed],
                         ids=["clean", "crash"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_node_milestones_equal_trace(protocol, scenario):
    with tapped(*MilestoneRecorder.CATEGORIES) as records:
        run = scenario(protocol)
    oracle = MilestoneRecorder(records)
    assert oracle.sender_events and oracle.parents
    assert run.sender_order() == oracle.sender_order()
    assert run.parent_map() == oracle.parents
    assert {n: node.first_adv for n, node in run.nodes.items()
            if node.first_adv is not None} == oracle.first_adv
    assert bool(oracle.first_adv) == (protocol in MNP_FAMILY)
    got_code = run.got_code_times_ms()
    assert got_code.pop(run.deployment.base_id) == 0.0
    assert got_code == oracle.got_code
