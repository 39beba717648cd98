"""Tests for multi-seed replication machinery."""

import pytest

from repro.experiments.replication import (
    MetricStats,
    paired_protocol_wins,
    replicate_specs,
    replication_specs,
    statistics_report,
)


def test_metric_stats_basic():
    stats = MetricStats("x", [1.0, 2.0, 3.0])
    assert stats.mean == 2.0
    assert stats.min == 1.0 and stats.max == 3.0
    assert stats.stdev == pytest.approx(1.0)
    assert stats.n == 3


def test_metric_stats_filters_none():
    stats = MetricStats("x", [1.0, None, 3.0])
    assert stats.n == 2
    assert stats.mean == 2.0


def test_metric_stats_empty_and_single():
    assert MetricStats("x", [None]).mean is None
    single = MetricStats("x", [5.0])
    assert single.stdev == 0.0
    assert "no data" in repr(MetricStats("x", []))


def test_paired_wins():
    a = MetricStats("a", [1.0, 2.0, 3.0])
    b = MetricStats("b", [2.0, 1.0, 4.0])
    assert paired_protocol_wins(a, b) == pytest.approx(2 / 3)
    assert paired_protocol_wins(MetricStats("a", []),
                                MetricStats("b", [])) is None


def test_mnp_run_metrics_experiment():
    stats = replicate_specs(replication_specs(
        [1, 2], rows=3, cols=3, n_segments=1, segment_packets=8))
    assert stats["coverage"].mean == 1.0
    assert stats["completion_s"].n == 2
    text = statistics_report({"mnp": stats})
    assert "completion_s" in text and "mnp" in text
