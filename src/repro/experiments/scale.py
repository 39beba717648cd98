"""Experiment scaling.

The paper's TOSSIM experiments run on a 20x20 grid with 128-packet
segments; that is a few minutes of wall-clock per run in this simulator.
So every experiment has two parameterizations:

* ``default`` -- reduced size (10x10 grid, 64-packet segments) that keeps
  the full benchmark suite in the minutes range while preserving every
  qualitative shape;
* ``paper`` -- the full 20x20 / 128-packet configuration.

Select with the ``REPRO_SCALE`` environment variable (``default`` or
``paper``).
"""

import os


class Scale:
    """Resolved experiment dimensions."""

    def __init__(self, name, grid, segment_packets, n_segments,
                 sweep_segments):
        self.name = name
        self.grid = grid  # (rows, cols)
        self.segment_packets = segment_packets
        self.n_segments = n_segments  # for the Fig. 8/9/11/12 run
        self.sweep_segments = sweep_segments  # for Fig. 10


_SCALES = {
    "smoke": Scale("smoke", (5, 5), 16, 2, (1, 2)),
    "default": Scale("default", (10, 10), 64, 4, (1, 2, 3, 4, 5)),
    "paper": Scale("paper", (20, 20), 128, 4,
                   (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
}


def get_scale(name):
    """Resolve a scale by name ('smoke', 'default', 'paper')."""
    try:
        return _SCALES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; choose from {sorted(_SCALES)}"
        ) from None


def current_scale():
    """The scale selected by REPRO_SCALE (default: 'default')."""
    return get_scale(os.environ.get("REPRO_SCALE", "default"))
