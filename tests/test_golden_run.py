"""Golden-run regression pin.

The simulator is fully deterministic, so one fixed-seed run can be pinned
exactly: any unintentional change to protocol logic, timer math, channel
resolution order, or RNG stream derivation shows up here immediately.

If you change the protocol *on purpose*, re-record the constants below
(they are printed by running this file's ``record()``) and mention the
behavioural change in your commit.
"""

from repro.core.segments import CodeImage
from repro.experiments.common import Deployment
from repro.net.loss_models import EmpiricalLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE

import pytest

# Full grid/chaos simulations: deselected by `make test-fast`.
pytestmark = pytest.mark.slow

GOLDEN_SEED = 42
GOLDEN_COMPLETION_MS = 30681.958991649193
GOLDEN_MESSAGES = 416
GOLDEN_COLLISIONS = 89
GOLDEN_SENDER_ORDER = [0, 1, 4, 5, 7, 3, 8]


def golden_run():
    image = CodeImage.random(1, n_segments=2, segment_packets=16,
                             seed=GOLDEN_SEED)
    dep = Deployment(
        Topology.grid(3, 3, 15), image=image, protocol="mnp",
        seed=GOLDEN_SEED,
        loss_model=EmpiricalLossModel(seed=GOLDEN_SEED),
        propagation=PropagationModel.outdoor(25.0),
    )
    res = dep.run_to_completion(deadline_ms=60 * MINUTE)
    return dep, res


def record():  # pragma: no cover - developer tool
    dep, res = golden_run()
    print("GOLDEN_COMPLETION_MS =", repr(res.completion_time_ms))
    print("GOLDEN_MESSAGES =", sum(res.messages_sent().values()))
    print("GOLDEN_COLLISIONS =", res.collisions)
    print("GOLDEN_SENDER_ORDER =", res.sender_order())


def test_golden_run_matches_recorded_values():
    dep, res = golden_run()
    assert res.all_complete
    assert res.completion_time_ms == GOLDEN_COMPLETION_MS
    assert sum(res.messages_sent().values()) == GOLDEN_MESSAGES
    assert res.collisions == GOLDEN_COLLISIONS
    assert res.sender_order() == GOLDEN_SENDER_ORDER


if __name__ == "__main__":  # pragma: no cover
    record()
