"""Golden-run regression pins for the coded protocol family.

``test_golden_run.py`` pins stock MNP; these pin one secured
``coded_mnp`` run and one ``coded_deluge`` run the same way.  A coded
run's outcome depends on every coefficient draw and on exact GF(2^8)
arithmetic in the encoder and decoder, so a change to the coding layer
that is meant to be a pure speed-up must leave these constants alone.

If you change coded behaviour *on purpose*, re-record the constants
below (they are printed by running this file's ``record()``) and mention
the behavioural change in your commit.
"""

from repro.core.auth import SecurityConfig
from repro.core.segments import CodeImage
from repro.experiments.common import Deployment
from repro.net.loss_models import EmpiricalLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE

import pytest

# Full grid simulations: deselected by `make test-fast`.
pytestmark = pytest.mark.slow

GOLDEN_SEED = 42

#: protocol -> (completion ms, messages sent, collisions)
GOLDEN = {
    "coded_mnp": (25912.935593188784, 326, 131),
    "coded_deluge": (22748.300252892015, 236, 80),
}

SECURED = {"coded_mnp": True, "coded_deluge": False}


def golden_run(protocol):
    image = CodeImage.random(1, n_segments=2, segment_packets=16,
                             seed=GOLDEN_SEED)
    dep = Deployment(
        Topology.grid(3, 3, 15), image=image, protocol=protocol,
        seed=GOLDEN_SEED,
        loss_model=EmpiricalLossModel(seed=GOLDEN_SEED),
        propagation=PropagationModel.outdoor(25.0),
        security=SecurityConfig(enabled=True) if SECURED[protocol]
        else None,
    )
    res = dep.run_to_completion(deadline_ms=60 * MINUTE)
    return image, res


def record():  # pragma: no cover - developer tool
    for protocol in GOLDEN:
        image, res = golden_run(protocol)
        print(f"{protocol!r}: ({res.completion_time_ms!r}, "
              f"{sum(res.messages_sent().values())}, "
              f"{res.collector.collisions}),  "
              f"intact={res.images_intact(image)}")


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_coded_golden_run_matches_recorded_values(protocol):
    image, res = golden_run(protocol)
    completion_ms, messages, collisions = GOLDEN[protocol]
    assert res.all_complete
    assert res.images_intact(image)
    assert res.completion_time_ms == completion_ms
    assert sum(res.messages_sent().values()) == messages
    assert res.collector.collisions == collisions


if __name__ == "__main__":  # pragma: no cover
    record()
