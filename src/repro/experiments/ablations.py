"""Ablations of MNP's design pillars.

DESIGN.md calls out the protocol's load-bearing choices; each ablation
switches one off and measures the cost on the standard grid workload:

* ``no-sender-selection`` -- sources never concede: concurrent senders
  collide (the problem §3.1 exists to solve);
* ``no-sleep`` -- losers keep listening: active radio time balloons
  toward the completion time;
* ``no-forward-vector`` -- senders stream whole segments instead of just
  the requested packets: more data transmissions;
* ``no-pipelining`` -- hop-by-hop whole-image transfer: slower end-to-end
  on multihop networks;
* ``query-update`` -- the optional repair phase of Fig. 4 switched on;
* ``battery-aware`` -- the §6 extension: advertisement power scaled by
  remaining battery.
"""

from repro.core.config import MNPConfig
from repro.experiments.active_radio import run_simulation_grid
from repro.metrics.reports import format_table

ABLATIONS = {
    "baseline": {},
    "no-sender-selection": {"sender_selection": False},
    "no-sleep": {"sleep_on_loss": False, "idle_sleep": False},
    "no-forward-vector": {"forward_vector": False},
    "no-pipelining": {"pipelining": False},
    "query-update": {"query_update": True},
    "battery-aware": {"battery_aware_power": True},
}


def run_ablation(name, seed=0, **grid_kwargs):
    """Run one named ablation from :data:`ABLATIONS`; returns its
    :class:`~repro.experiments.common.RunResult`."""
    try:
        overrides = ABLATIONS[name]
    except KeyError:
        raise ValueError(f"unknown ablation {name!r}; "
                         f"known: {sorted(ABLATIONS)}") from None
    config = MNPConfig().replace(**overrides)
    return run_simulation_grid(seed=seed, config=config, **grid_kwargs)


def run_all(names=None, seed=0, **grid_kwargs):
    """``{name: RunResult}`` for ``names`` (default: every ablation)."""
    return {name: run_ablation(name, seed=seed, **grid_kwargs)
            for name in names or ABLATIONS}


def ablation_report(runs):
    """``runs`` is ``{ablation name: RunResult}``, as :func:`run_all`
    returns."""
    rows = [
        [name, f"{run.coverage:.0%}",
         f"{run.completion_s:.0f}" if run.completion_s else "-",
         f"{run.average_active_radio_s():.0f}", run.collector.collisions,
         run.data_tx]
        for name, run in runs.items()
    ]
    return format_table(
        ["ablation", "coverage", "completion(s)", "avg ART(s)",
         "collisions", "data tx"],
        rows,
        title="MNP design-choice ablations",
    )
