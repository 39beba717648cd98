"""Metrics collection for one run.

A :class:`MetricsCollector` is attached to a simulator *before* the run.
Protocol milestones (senders, parents, segments, completions, first
advertisements, fails) come from trace records; per-frame counts
(transmissions, decoded frames, collisions) are read from the channel
and its radios, which count every frame themselves -- the same way
energy comes from the radios' time integrals.  At the end of the run the
experiment harness combines both into the paper's metrics.  Collection
is entirely passive -- protocols are unaware of it.
"""

from collections import Counter, defaultdict


class MetricsCollector:
    """Protocol milestones from trace records, per-frame counts from
    ``channel``."""

    CATEGORIES = (
        "mnp.sender",
        "mnp.parent",
        "mnp.got_segment",
        "mnp.got_code",
        "mnp.first_adv",
        "mnp.fail",
        "proto.sender",
        "proto.parent",
        "proto.got_code",
    )

    def __init__(self, sim, channel):
        self.sim = sim
        self.channel = channel
        # Protocol progress
        self.got_code = {}  # node -> time
        self.got_segment = defaultdict(dict)  # node -> seg -> (time, parent)
        self.parents = {}  # node -> last parent used
        self.sender_events = []  # (time, node, seg, req_ctr)
        self.first_adv = {}  # node -> (time, radio_on_ms at that instant)
        self.fails = Counter()
        sim.tracer.subscribe(self._on_record, categories=self.CATEGORIES)

    # ------------------------------------------------------------------
    # Per-frame views over the channel's own counts (read-only)
    # ------------------------------------------------------------------
    @property
    def tx_log(self):
        """``(time, node, kind)`` per transmission started, aborted ones
        included."""
        return self.channel.tx_log

    @property
    def tx_by_node(self):
        """node -> transmissions started, in first-transmission order."""
        return Counter(node for _, node, _ in self.channel.tx_log)

    @property
    def tx_by_node_kind(self):
        """node -> payload kind -> transmissions started."""
        counts = defaultdict(Counter)
        for _, node, kind in self.channel.tx_log:
            counts[node][kind] += 1
        return counts

    @property
    def rx_by_node(self):
        """node -> frames decoded, for nodes that decoded at least one."""
        return Counter({
            node: radio.frames_received
            for node, radio in self.channel.radios.items()
            if radio.frames_received
        })

    @property
    def collisions(self):
        """Receptions corrupted by an overlapping transmission."""
        return self.channel.collisions

    # ------------------------------------------------------------------
    def _on_record(self, rec):
        fields = rec.fields
        category = rec.category
        if category in ("mnp.sender", "proto.sender"):
            self.sender_events.append(
                (rec.time, fields["node"], fields.get("seg"),
                 fields.get("req_ctr"))
            )
        elif category in ("mnp.parent", "proto.parent"):
            self.parents[fields["node"]] = fields["parent"]
        elif category == "mnp.got_segment":
            self.got_segment[fields["node"]][fields["seg"]] = (
                rec.time, fields["parent"],
            )
        elif category in ("mnp.got_code", "proto.got_code"):
            self.got_code.setdefault(fields["node"], rec.time)
        elif category == "mnp.first_adv":
            self.first_adv[fields["node"]] = (rec.time, fields["radio_on_ms"])
        elif category == "mnp.fail":
            self.fails[fields["node"]] += 1

    # ------------------------------------------------------------------
    # Derived series
    # ------------------------------------------------------------------
    def sender_order(self):
        """Nodes in the order they first became senders (Figs. 5-7)."""
        seen = []
        for _, node, _, _ in sorted(self.sender_events):
            if node not in seen:
                seen.append(node)
        return seen

    def tx_per_window(self, window_ms, kinds=None, until=None):
        """Message transmissions bucketed into fixed windows (Fig. 12).

        Returns ``{kind: [count per window]}`` with all lists equally long.
        """
        if until is None:
            until = max((t for t, _, _ in self.tx_log), default=0.0)
        n_windows = int(until // window_ms) + 1 if until else 1
        if kinds is None:
            kinds = sorted({kind for _, _, kind in self.tx_log})
        series = {kind: [0] * n_windows for kind in kinds}
        for time, _, kind in self.tx_log:
            if kind in series and time <= until:
                series[kind][int(time // window_ms)] += 1
        return series

    def completion_time(self, n_nodes):
        """Time the last of ``n_nodes`` nodes got the full image, or None."""
        if len(self.got_code) < n_nodes:
            return None
        return max(self.got_code.values())
