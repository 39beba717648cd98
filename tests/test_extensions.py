"""Tests for the extension experiments (delta updates, initial-sleep
schedule)."""

from repro.experiments.extensions import (
    delta_vs_full,
    initial_sleep_schedule,
    update_report,
)


def test_delta_vs_full_small_network():
    full, patch, verified = delta_vs_full(rows=4, cols=4, n_segments=1,
                                          change_bytes=16, seed=2)
    assert verified
    assert full.coverage == 1.0
    assert patch.coverage == 1.0
    assert patch.deployment.image.size_bytes < \
        full.deployment.image.size_bytes
    assert patch.data_tx < full.data_tx


def test_update_report_renders():
    full, patch, _ = delta_vs_full(rows=3, cols=3, n_segments=1,
                                   change_bytes=8, seed=3)
    text = update_report([full, patch])
    assert "full image" in text
    assert "delta script" in text


def test_initial_sleep_schedule_preserves_coverage():
    baseline, scheduled = initial_sleep_schedule(rows=5, cols=5,
                                                 n_segments=1, seed=4)
    assert baseline.coverage == 1.0
    assert scheduled.coverage == 1.0
    # The schedule can only cut radio-on time for wave-waiting nodes.
    assert scheduled.average_active_radio_s() <= \
        baseline.average_active_radio_s() * 1.05
