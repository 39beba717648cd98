"""Protocol comparison: the Section 5 MNP-vs-Deluge energy argument, plus
the other baselines.

The paper compares MNP's *active radio time* against Deluge's *completion
time*, because Deluge (like XNP and MOAP) keeps the radio on throughout
reprogramming, so for those protocols idle-listening time equals
completion time.  We run every protocol on the byte-identical channel
(same seed, same per-edge loss factors) and report completion time,
average active radio time, messages, collisions and energy.
"""

from repro.experiments.active_radio import run_simulation_grid
from repro.metrics.reports import format_table


def run_comparison(protocols=("mnp", "deluge"), seed=0, n_segments=None,
                   rows=None, cols=None, segment_packets=None):
    """Run each protocol on the same network and image; returns
    ``{protocol: RunResult}`` in ``protocols`` order."""
    return {
        protocol: run_simulation_grid(
            rows=rows, cols=cols, n_segments=n_segments,
            segment_packets=segment_packets, seed=seed, protocol=protocol,
        )
        for protocol in protocols
    }


def comparison_report(runs):
    """``runs`` is :func:`run_comparison`'s ``{protocol: RunResult}``."""
    rows = []
    for protocol, run in runs.items():
        art_s = run.average_active_radio_s()
        completion_s = run.completion_s
        rows.append([
            protocol,
            f"{run.coverage:.0%}",
            f"{completion_s:.0f}" if completion_s else "-",
            f"{art_s:.0f}",
            f"{art_s / completion_s:.0%}" if completion_s else "-",
            run.messages,
            run.collector.collisions,
            f"{run.mean_energy_nah / 1000:.0f}",
        ])
    return format_table(
        ["protocol", "coverage", "completion(s)", "avg ART(s)",
         "ART/completion", "messages", "collisions", "energy(uAh)"],
        rows,
        title="Section 5 -- protocol comparison on identical channels",
    )
