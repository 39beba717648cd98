"""Extension (§5/§6): MNP over a TDMA MAC.

The paper weighs TDMA-based reprogramming: collisions vanish because a
node transmits only in its assigned slots, but the approach needs time
synchronization and a known topology, and slot waiting adds latency.
This bench runs MNP over an SS-TDMA style distance-2 slot schedule and
over the stock CSMA MAC on identical networks.

Shape claims: zero collisions under TDMA; full coverage both ways; CSMA
completes faster (slots serialize everything).
"""

from repro.experiments.extensions import mnp_over_tdma

from conftest import save_report
from repro.metrics.reports import format_table


def test_ext_tdma(benchmark):
    csma_run, tdma_run, schedule = benchmark.pedantic(
        mnp_over_tdma, kwargs={"rows": 8, "cols": 8, "n_segments": 2,
                               "seed": 1},
        rounds=1, iterations=1,
    )

    def row(label, run):
        return [label, f"{run.coverage:.0%}",
                f"{run.completion_time_ms / 1000:.0f}",
                f"{run.average_active_radio_s():.0f}",
                run.collisions]

    save_report("ext_tdma", format_table(
        ["MAC", "coverage", "completion(s)", "avg ART(s)", "collisions"],
        [row("CSMA", csma_run), row("TDMA", tdma_run)],
        title=f"MNP over TDMA ({schedule.n_slots}-slot distance-2 "
              "schedule) vs CSMA",
    ))

    assert csma_run.coverage == 1.0
    assert tdma_run.coverage == 1.0
    # The §5 claim: slotted transmission eliminates collisions entirely.
    assert tdma_run.collisions == 0
    assert csma_run.collisions > 0
    # The §5 cost: slot waiting slows dissemination.
    assert tdma_run.completion_time_ms > csma_run.completion_time_ms
