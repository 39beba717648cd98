"""Measurement infrastructure.

The collector reads what the run's objects keep and subscribes to
nothing.  From the channel and its radios: message transmissions and
receptions by type and location, and collision counts.  From the nodes'
milestones: parent-child relationships, the order in which nodes become
senders, and first advertisements.  Active radio time and get-code
times come straight from the radios and nodes
(:class:`repro.experiments.common.RunResult`).  The reports module
renders them as the tables and grid-heatmap figures of the paper; the
export module writes a run's trace records to a file.
"""

from repro.metrics.collector import MetricsCollector
from repro.metrics.export import TraceWriter, export_run, read_trace
from repro.metrics.reports import (
    format_grid,
    format_table,
    format_timeline,
    summarize,
)

__all__ = [
    "MetricsCollector",
    "TraceWriter",
    "export_run",
    "read_trace",
    "format_grid",
    "format_table",
    "format_timeline",
    "summarize",
]
