"""Section 5: MNP vs Deluge (and the other baselines) on identical
channels.

Shape claims from the paper's comparison:

* Deluge's radio is always on, so its active radio time *is* its
  completion time;
* MNP's average active radio time is a fraction of Deluge's -- the
  energy argument that motivates the whole protocol;
* MNP pays for that with somewhat longer completion time;
* XNP cannot cover a multihop network at all.
"""

import pytest

from repro.experiments.comparison import (
    COMPARISON_DIMS,
    SECTION5_PROTOCOLS,
    comparison_report,
    run_comparison,
)

from conftest import save_report


@pytest.fixture(scope="module")
def runs():
    return run_comparison(SECTION5_PROTOCOLS, seed=1, **COMPARISON_DIMS)


def test_sec5_deluge_comparison(benchmark, runs):
    # Benchmark a small head-to-head so the timing numbers are real but
    # cheap; the full comparison comes from the module fixture.
    benchmark.pedantic(
        run_comparison,
        kwargs={"protocols": ("mnp", "deluge"), "seed": 3, "rows": 5,
                "cols": 5, "n_segments": 1, "segment_packets": 16},
        rounds=1, iterations=1,
    )
    save_report("sec5_protocol_comparison", comparison_report(runs))

    mnp, deluge = runs["mnp"], runs["deluge"]

    # Reliability: both real dissemination protocols reach everyone.
    assert mnp.coverage == 1.0
    assert deluge.coverage == 1.0
    # Deluge idles at full burn: ART == completion time.
    assert deluge.average_active_radio_s() == pytest.approx(
        deluge.completion_s, rel=0.02)
    # The headline claim: MNP's radio-on time is well below Deluge's.
    assert mnp.average_active_radio_s() < \
        0.8 * deluge.average_active_radio_s()
    # ...bought with a completion-time premium (MNP is the slower one).
    assert mnp.completion_s > deluge.completion_s * 0.8
    # XNP cannot reprogram a multihop network.
    assert runs["xnp"].coverage < 1.0
    # MOAP (hop-by-hop, whole image) is slower end-to-end than pipelined
    # MNP on a multihop grid.
    moap = runs["moap"]
    if moap.coverage == 1.0:
        assert moap.completion_s > mnp.completion_s * 0.8
