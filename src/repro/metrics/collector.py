"""Metrics collection for one run.

A :class:`MetricsCollector` reads what the run's objects keep; it
subscribes to nothing.  Run milestones (sender order, parents, first
advertisements) are stamped on the nodes by the calls that trace them;
per-frame counts (transmissions, decoded frames, collisions) are read
from the channel and its radios, which count every frame themselves --
the same way energy comes from the radios' time integrals.  At the end
of the run the experiment harness combines both into the paper's
metrics.  Protocols are unaware of it.
"""

from collections import Counter


class MetricsCollector:
    """Milestones read from ``nodes``, per-frame counts from ``channel``."""

    def __init__(self, channel, nodes):
        self.channel = channel
        self.nodes = nodes  # node id -> ImageNode

    # ------------------------------------------------------------------
    # Milestones the nodes keep (read-only)
    # ------------------------------------------------------------------
    @property
    def parents(self):
        """node -> the parent its last parent record named."""
        return {
            node_id: node.reported_parent
            for node_id, node in self.nodes.items()
            if node.reported_parent is not None
        }

    @property
    def first_adv(self):
        """node -> ``(time, radio_on_ms)`` when its first advertisement
        arrived (the MNP family only)."""
        return {
            node_id: node.first_adv
            for node_id, node in self.nodes.items()
            if node.first_adv is not None
        }

    def sender_order(self):
        """Nodes in the order they first became senders (Figs. 5-7),
        ties broken by node id."""
        return [node_id for _, node_id in sorted(
            (node.became_sender_at, node_id)
            for node_id, node in self.nodes.items()
            if node.became_sender_at is not None
        )]

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
