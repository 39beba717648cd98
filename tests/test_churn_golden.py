"""Golden pins for churn runs (:func:`repro.experiments.robustness.run_churn`).

Each pin holds one churn run whose kill lands before the survivors
finish, so the run's whole timeline is fixed: every node's
``got_code_time`` (as a SHA-256 of its repr, in node order), the
channel's transmissions and collisions, and the instant the run stopped.

The pins read the :class:`~repro.experiments.common.Deployment` the run
builds (captured at ``start()``), not the object ``run_churn`` returns,
so they hold across changes to what a churn run reports.  If you change
churn behaviour *on purpose*, re-record the constants (run this file's
``record()``) and mention the change in your commit.
"""

import hashlib

import pytest

from repro.experiments.common import Deployment
from repro.experiments.robustness import run_churn

#: (rows, cols, kill_fraction, seed, n_segments) -> (got_code_time
#: digest, transmissions, collisions, stop ms).
PINS = {
    (5, 5, 0.15, 2, 1): (
        "a1ea7615872ec5a4fecd91071efe268f95d214d36dfec509e8f48dd8a1a63a4b",
        578, 273, 26000.0),
    (5, 5, 0.3, 3, 1): (
        "30bfc44e58eec8b03399e441c103fe1ebffb081278a7b7206b944c3555364297",
        569, 739, 22000.0),
    # The churn benchmark's run (benchmarks/test_robustness_churn.py).
    (6, 6, 0.15, 1, 2): (
        "24ad46912ad1c4d6250df5876ba849339bff71851968b561072bdb7a78a6ad9b",
        2075, 1631, 71000.0),
    (6, 6, 0.25, 4, 2): (
        "f7eef8df2f95620f57b2ff494dd53fe539c6f427ee5263d8faa56ca49e3a86a9",
        1989, 1278, 64000.0),
}


def churn_deployment(rows, cols, kill_fraction, seed, n_segments):
    """Run one churn run; return the deployment it built."""
    built = []
    start = Deployment.start

    def recording_start(self):
        built.append(self)
        start(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Deployment, "start", recording_start)
        run_churn(rows=rows, cols=cols, kill_fraction=kill_fraction,
                  seed=seed, n_segments=n_segments)
    (dep,) = built
    return dep


def pin_of(dep):
    times = [dep.nodes[n].got_code_time for n in sorted(dep.nodes)]
    return (hashlib.sha256(repr(times).encode()).hexdigest(),
            dep.channel.transmissions, dep.channel.collisions,
            dep.sim.now)


def record():  # pragma: no cover - developer tool
    for case in PINS:
        print(f"    {case}: {pin_of(churn_deployment(*case))!r},")


@pytest.mark.parametrize(
    "case", list(PINS), ids=lambda c: "{}x{}-kill{}-seed{}-seg{}".format(*c))
def test_churn_run_matches_pin(case):
    assert pin_of(churn_deployment(*case)) == PINS[case]


if __name__ == "__main__":  # pragma: no cover
    record()
