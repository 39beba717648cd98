"""Tests for the per-figure experiment modules (run at smoke scale)."""

import pytest

from repro.experiments.scale import current_scale


@pytest.fixture(autouse=True)
def smoke(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")


def test_scale_selection(monkeypatch):
    assert current_scale().name == "smoke"
    monkeypatch.setenv("REPRO_SCALE", "paper")
    assert current_scale().grid == (20, 20)
    monkeypatch.setenv("REPRO_SCALE", "default")
    assert current_scale().grid == (10, 10)
    monkeypatch.delenv("REPRO_SCALE")
    assert current_scale().name == "default"
    monkeypatch.setenv("REPRO_SCALE", "bogus")
    with pytest.raises(ValueError):
        current_scale()


def test_run_simulation_grid_uses_scale():
    from repro.experiments.active_radio import run_simulation_grid

    run = run_simulation_grid(seed=5)
    assert len(run.deployment.topology) == 25  # smoke: 5x5
    assert run.all_complete


def test_fig8_and_fig9_reports_render():
    from repro.experiments.active_radio import (
        center_vs_edge_art, fig8_report, fig9_report, run_simulation_grid,
        spread,
    )

    run = run_simulation_grid(seed=5)
    assert "Fig. 8" in fig8_report(run)
    assert "Fig. 9" in fig9_report(run)
    center, edge = center_vs_edge_art(run)
    assert center > 0 and edge > 0
    assert spread([1.0, 1.0, 1.0]) == 1.0
    assert spread([1.0, 3.0]) == 1.5


def test_fig11_fig12_reports_render():
    from repro.experiments.active_radio import (
        fig11_report, fig12_report, fig12_series, run_simulation_grid,
    )

    run = run_simulation_grid(seed=5)
    assert "Fig. 11a" in fig11_report(run)
    series = fig12_series(run)
    assert set(series) == {"Advertisement", "DownloadRequest", "DataPacket"}
    assert "window(min)" in fig12_report(run)


def test_size_sweep_and_linearity():
    from repro.experiments.size_sweep import (
        fig10_report, linearity_r2, run_sweep,
    )

    points = run_sweep(sizes=(1, 2), seed=5)
    assert len(points) == 2
    assert points[0].size_kb < points[1].size_kb
    assert all(p.art_fraction is not None for p in points)
    assert "Fig. 10" in fig10_report(points)
    # perfect line -> r2 == 1
    class P:
        def __init__(self, n, c):
            self.n_segments, self.completion_s = n, c
    assert linearity_r2([P(1, 10.0), P(2, 20.0), P(3, 30.0)]) == \
        pytest.approx(1.0)
    assert linearity_r2([P(1, 10.0)]) == 1.0


def test_propagation_helpers():
    from repro.experiments.propagation import (
        arrival_vs_distance, diagonal_edge_ratio, fig13_report,
        run_propagation, snapshot,
    )

    run = run_propagation(seed=5)
    held_early = snapshot(run, 0.2)
    held_late = snapshot(run, 1.0)
    assert sum(held_early.values()) <= sum(held_late.values())
    assert sum(held_late.values()) == len(run.deployment.topology)
    pairs = arrival_vs_distance(run)
    assert len(pairs) == len(run.deployment.topology) - 1
    assert all(d >= 0 for d, _ in pairs)
    ratio = diagonal_edge_ratio(run)
    assert ratio is None or ratio > 0
    assert "Fig. 13" in fig13_report(run)


def test_comparison_module():
    from repro.experiments.comparison import (
        comparison_report, run_comparison,
    )

    runs = run_comparison(("mnp", "xnp"), seed=5, rows=3, cols=3,
                          n_segments=1, segment_packets=8)
    assert list(runs) == ["mnp", "xnp"]
    assert runs["mnp"].coverage == 1.0
    text = comparison_report(runs)
    assert "mnp" in text and "xnp" in text


def test_ablation_module():
    from repro.experiments.ablations import (
        ABLATIONS, ablation_report, run_ablation,
    )

    assert "baseline" in ABLATIONS and "no-sleep" in ABLATIONS
    outcome = run_ablation("baseline", seed=5, rows=3, cols=3,
                           n_segments=1, segment_packets=8)
    assert outcome.coverage == 1.0
    assert "baseline" in ablation_report({"baseline": outcome})
    with pytest.raises(ValueError):
        run_ablation("no-such-ablation")


def test_mote_grid_result_accessors():
    from repro.experiments.mote_grids import run_mote_grid

    res = run_mote_grid(3, 3, power_level=255, environment="outdoor",
                        spacing_ft=4.0, program_packets=32, seed=5)
    assert res.run.all_complete
    assert res.completion_min > 0
    hist = res.hops_histogram()
    assert sum(hist.values()) == len(res.parent_map())
    assert "power level 255" in res.render()
    with pytest.raises(ValueError):
        run_mote_grid(2, 2, 255, environment="underwater")


def test_energy_table_module():
    from repro.experiments.energy_table import (
        breakdown_report, measured_breakdown, table1_report,
    )

    assert "83.333" in table1_report()
    breakdown = measured_breakdown(seed=5)
    assert set(breakdown) == {0, 1}
    text = breakdown_report(breakdown)
    assert "idle share" in text
