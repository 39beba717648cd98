"""Robustness: dissemination under node churn and for late joiners.

The paper's fail-state/timeout machinery (§3.4) exists so no node waits
forever on a dead parent.  This bench kills 15% of the nodes
mid-dissemination (chosen so the survivors stay connected, per the §2
precondition) and separately powers one node up only after the network
has gone quiescent.

Shape claims: surviving nodes always reach 100% coverage with intact
images; a late joiner catches up from the backed-off advertisement
stream in bounded time.
"""

from repro.experiments.robustness import run_churn, run_late_joiner

from conftest import save_report
from repro.metrics.reports import format_table


def test_robustness_churn(benchmark):
    outcome = benchmark.pedantic(
        run_churn,
        kwargs={"rows": 6, "cols": 6, "kill_fraction": 0.15, "seed": 1,
                "n_segments": 2},
        rounds=1, iterations=1,
    )
    join_time, catch_up, dep = run_late_joiner(rows=4, cols=4, seed=1)

    rows = [
        ["15% churn mid-update",
         f"{outcome.survivor_coverage:.0%} of {len(outcome.alive)} "
         "survivors",
         f"{outcome.completion_s:.0f}",
         str(outcome.corrupt_images == 0)],
        ["late joiner (quiescent net)",
         "caught up" if catch_up is not None else "stranded",
         f"{(catch_up or 0) / 1000:.0f}",
         "True"],
    ]
    save_report("robustness_churn", format_table(
        ["scenario", "outcome", "time(s)", "images intact"],
        rows, title="Robustness: churn and late arrival",
    ))

    assert outcome.survivor_coverage == 1.0
    assert outcome.corrupt_images == 0
    assert len(outcome.controller.crashed_nodes) >= 4
    assert catch_up is not None
