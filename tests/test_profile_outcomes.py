"""The profiling workloads' outcomes, pinned exactly.

``python -m repro profile`` reports events/sec for ``saturation`` and
``dissemination``.  Wall time varies with the host, but each workload's
event count, simulated clock and channel totals are bit-stable per seed,
so a change to the kernel, channel, MAC or MNP that moves any of them
fails here.
"""

import pytest

from repro.profiling import profile_dissemination, profile_saturation

# Each run takes a few seconds: deselected by `make test-fast`.
pytestmark = pytest.mark.slow


def test_saturation_outcomes():
    phase = profile_saturation(rows=20, cols=20, range_ft=13.0,
                               frames_per_node=96, seed=0)
    assert phase["events"] == 143368
    assert phase["sim_ms"] == 6697.449092113176
    assert phase["checks"] == {
        "frames_sent": 38400,
        "sim_ms": 6697.449092113176,
        "collisions": 141541,
    }


def test_dissemination_outcomes():
    phase = profile_dissemination(rows=20, cols=20, range_ft=13.0,
                                  n_segments=2, segment_packets=32, seed=0)
    assert phase["events"] == 220302
    assert phase["sim_ms"] == 548000.0
    assert phase["checks"] == {
        "coverage": 1.0,
        "completion_ms": 547639.251793378,
        "messages_sent": 62124,
        "collisions": 6796,
    }
