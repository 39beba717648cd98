"""Tests for the density sweep experiment and ASCII chart helpers."""

from repro.experiments.density import (
    density_report,
    run_density_sweep,
)
from repro.metrics.reports import sparkline


def test_density_sweep_two_points():
    points = run_density_sweep(spacings=(8.0, 16.0), rows=4, cols=4,
                               n_segments=1, seed=2)
    assert len(points) == 2
    dense, sparse = points
    assert dense.mean_neighbors > sparse.mean_neighbors
    assert dense.max_hops <= sparse.max_hops
    assert dense.coverage == 1.0 and sparse.coverage == 1.0
    text = density_report(points)
    assert "spacing(ft)" in text


def test_sparkline_shape():
    line = sparkline([1, 2, 3, 4])
    assert len(line) == 4
    assert line[0] == "▁" and line[-1] == "█"
    assert sparkline([]) == ""
    assert sparkline([5, 5, 5]) == "▁▁▁"  # flat series maps to the floor
