"""Plain-text rendering of the paper's tables and figures.

Benchmarks print through these helpers so every table/figure of the paper
has a recognizable textual counterpart: aligned tables (Table 1, Fig. 10),
grid heatmaps over the deployment area (Figs. 8, 11, 13), and per-window
timelines (Fig. 12).
"""


def format_table(headers, rows, title=None):
    """A fixed-width aligned table; every cell is str()-ed."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "  "
    lines.append(sep.join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep.join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append(sep.join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_grid(values_by_node, topology, fmt="{:6.0f}", missing="     .",
                title=None):
    """Render per-node values laid out by physical position (row-major).

    Works for any grid-like topology: nodes are grouped by their y
    coordinate and ordered by x within a row, which reproduces the spatial
    heatmap figures (active radio time by location, tx/rx distribution,
    propagation wavefronts).
    """
    rows = {}
    for node in topology.node_ids():
        x, y = topology.positions[node]
        rows.setdefault(round(y, 3), []).append((x, node))
    lines = []
    if title:
        lines.append(title)
    for y in sorted(rows):
        cells = []
        for _, node in sorted(rows[y]):
            value = values_by_node.get(node)
            cells.append(missing if value is None else fmt.format(value))
        lines.append(" ".join(cells))
    return "\n".join(lines)


def format_timeline(series, window_ms, title=None):
    """Render ``{kind: [count per window]}`` (Fig. 12) as a table."""
    kinds = sorted(series)
    n = max((len(v) for v in series.values()), default=0)
    headers = ["window(min)"] + kinds
    rows = []
    for i in range(n):
        minute = i * window_ms / 60000.0
        rows.append([f"{minute:.0f}"] + [series[k][i] if i < len(series[k])
                                         else 0 for k in kinds])
    return format_table(headers, rows, title=title)


_ARROWS = {
    (1, 0): "→", (-1, 0): "←", (0, 1): "↑", (0, -1): "↓",
    (1, 1): "↗", (-1, 1): "↖", (1, -1): "↘", (-1, -1): "↙",
}


def format_parent_arrows(parent_map, topology, base_id, title=None):
    """Render the parent-child relationship the way the paper's Figs. 5-7
    draw it: each node shows an arrow pointing toward its parent (the
    node it downloaded from); the base station is ``◎`` and nodes with no
    recorded parent are ``·``.

    Note: figure y grows upward here (larger y printed first), matching
    the paper's plots.
    """
    def sign(v):
        return (v > 0) - (v < 0)

    rows = {}
    for node in topology.node_ids():
        x, y = topology.positions[node]
        rows.setdefault(round(y, 3), []).append((x, node))
    lines = [title] if title else []
    for y in sorted(rows, reverse=True):
        cells = []
        for x, node in sorted(rows[y]):
            if node == base_id:
                cells.append("◎")
                continue
            parent = parent_map.get(node)
            if parent is None:
                cells.append("·")
                continue
            px, py = topology.positions[parent]
            cells.append(_ARROWS.get((sign(px - x), sign(py - y)), "·"))
        lines.append(" ".join(cells))
    return "\n".join(lines)


_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(series):
    """A one-line unicode sparkline of a numeric series."""
    values = list(series)
    if not values:
        return ""
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    return "".join(
        _SPARK_BLOCKS[int((v - low) / span * (len(_SPARK_BLOCKS) - 1))]
        for v in values
    )


def summarize(values):
    """Min/mean/max of an iterable of numbers (empty-safe)."""
    values = list(values)
    if not values:
        return {"min": None, "mean": None, "max": None, "n": 0}
    return {
        "min": min(values),
        "mean": sum(values) / len(values),
        "max": max(values),
        "n": len(values),
    }
