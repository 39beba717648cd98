"""Rendering and export of a run's measurements.

The measurements themselves are read by
:class:`repro.experiments.common.RunResult` from what the run's objects
keep, with nothing subscribed: message transmissions, receptions and
collisions from the channel and its radios; parents, sender order, first
advertisements and get-code times from the nodes' milestones; active
radio time from the radios.  The reports module renders them as the
tables and grid-heatmap figures of the paper; the export module writes a
run's trace records to a file.
"""

from repro.metrics.export import TraceWriter, export_run, read_trace
from repro.metrics.reports import (
    format_grid,
    format_table,
    format_timeline,
    summarize,
)

__all__ = [
    "TraceWriter",
    "export_run",
    "read_trace",
    "format_grid",
    "format_table",
    "format_timeline",
    "summarize",
]
