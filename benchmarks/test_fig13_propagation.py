"""Fig. 13: code-propagation wavefront for a single segment, and the
anti-Deluge dynamic-behaviour claim.

Shape claims: the wavefront expands monotonically from the base corner at
a fairly constant rate; and unlike Deluge, MNP shows no slow-diagonal
dynamic (the diagonal/edge arrival-time ratio stays near 1, and does not
exceed Deluge's by the hidden-terminal margin).
"""

from repro.experiments.propagation import (
    arrival_vs_distance,
    diagonal_edge_ratio,
    fig13_report,
    snapshot,
)

from conftest import save_report


def test_fig13_propagation(benchmark, propagation_runs):
    run = propagation_runs["mnp"]
    report = benchmark.pedantic(
        fig13_report, args=(run,),
        kwargs={"deluge": propagation_runs["deluge"]},
        rounds=1, iterations=1)
    save_report("fig13_propagation", report)
    ratio_mnp = diagonal_edge_ratio(run)

    assert run.all_complete
    # Monotone wavefront: the held-set only grows.
    held_30 = {n for n, v in snapshot(run, 0.3).items() if v}
    held_60 = {n for n, v in snapshot(run, 0.6).items() if v}
    held_90 = {n for n, v in snapshot(run, 0.9).items() if v}
    assert held_30 <= held_60 <= held_90
    assert len(held_30) < len(held_90)
    # Roughly constant propagation rate: mean arrival time increases
    # strictly across distance quartiles (robust to the timing noise
    # inside one distance ring).
    pairs = arrival_vs_distance(run)
    n = len(pairs)
    quartiles = [pairs[i * n // 4:(i + 1) * n // 4] for i in range(4)]
    means = [sum(t for _, t in q) / len(q) for q in quartiles if q]
    assert means == sorted(means)
    assert means[-1] > means[0]
    # No slow diagonal in MNP.
    assert ratio_mnp is not None
    assert ratio_mnp < 1.35
