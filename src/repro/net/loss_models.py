"""Per-link bit-error models.

TOSSIM (the paper's simulator) models the network as a directed graph where
each edge carries an independent bit-error probability sampled from
empirical loss-vs-distance data gathered from real Mica hardware; because
each direction is sampled independently, asymmetric links arise naturally.
:class:`EmpiricalLossModel` reproduces that structure: a mean BER curve that
rises steeply near the edge of the communication range, with per-edge
log-normal variation.

A model maps ``(src, dst, distance, range)`` to a *bit error rate*; the
channel converts BER to packet reception probability as
``(1 - ber) ** (8 * frame_bytes)``.

Every model declares ``is_time_varying``: False means ``ber`` is a pure
function of ``(src, dst, distance, range)`` for the lifetime of a run, so
the channel may cache per-edge link budgets (see
:class:`repro.radio.channel.Channel`); True (e.g.
:class:`DegradedLossModel`, whose answer depends on the simulation
clock) forces re-evaluation on every frame.  New models without the
attribute are conservatively treated as time-varying.
"""

import math

from repro.sim.rng import derive_rng


class PerfectLossModel:
    """Zero bit errors inside the communication range (collisions still
    destroy packets).  Useful for unit tests and protocol debugging."""

    is_time_varying = False

    def ber(self, src, dst, distance_ft, range_ft):
        return 0.0


class UniformLossModel:
    """A constant BER on every edge regardless of distance."""

    is_time_varying = False

    def __init__(self, ber):
        if not 0.0 <= ber < 1.0:
            raise ValueError(f"ber must be in [0,1), got {ber}")
        self._ber = ber

    def ber(self, src, dst, distance_ft, range_ft):
        return self._ber


#: Packet-reception-ratio vs distance (feet) in the style of the
#: classic Mica empirical measurements (Woo/Culler, Zhao/Govindan) that
#: TOSSIM's lossy builder was derived from: near-perfect close in, a wide
#: "grey region", and a long unreliable tail.
MICA2_PRR_TABLE = (
    (5.0, 0.99),
    (10.0, 0.97),
    (15.0, 0.95),
    (20.0, 0.90),
    (25.0, 0.78),
    (30.0, 0.55),
    (35.0, 0.30),
    (40.0, 0.12),
    (50.0, 0.02),
)


class TabulatedLossModel:
    """Per-link BER interpolated from a measured PRR-vs-distance table.

    This is the shape empirical radio data actually arrives in: packet
    reception ratios at sampled distances for a reference frame size.
    Each PRR is inverted to a BER (``1 - prr ** (1 / bits)``), log-BER is
    interpolated linearly in distance, and an optional log-normal
    per-edge factor adds TOSSIM-style link individuality.

    Distances are absolute (the table encodes the radio's real reach), so
    the nominal power-level range only gates *audibility*; link quality
    follows the table.
    """

    is_time_varying = False

    def __init__(self, table=MICA2_PRR_TABLE, reference_frame_bytes=45,
                 seed=0, sigma=0.0):
        if len(table) < 2:
            raise ValueError("need at least two table points")
        points = sorted(table)
        if any(b[0] <= a[0] for a, b in zip(points, points[1:])):
            raise ValueError("distances must be strictly increasing")
        bits = 8 * reference_frame_bytes
        self._points = []
        for distance, prr in points:
            if not 0.0 < prr <= 1.0:
                raise ValueError(f"PRR must be in (0,1], got {prr}")
            prr = min(prr, 1.0 - 1e-12)
            ber = 1.0 - prr ** (1.0 / bits)
            self._points.append((distance, math.log(max(ber, 1e-12))))
        self.sigma = sigma
        self._rng_seed = seed
        self._edge_factor = {}

    def _factor(self, src, dst):
        if not self.sigma:
            return 1.0
        key = (src, dst)
        factor = self._edge_factor.get(key)
        if factor is None:
            rng = derive_rng(self._rng_seed, "tabulated-edge", src, dst)
            factor = math.exp(rng.gauss(0.0, self.sigma))
            self._edge_factor[key] = factor
        return factor

    def mean_ber(self, distance_ft):
        points = self._points
        if distance_ft <= points[0][0]:
            return math.exp(points[0][1])
        if distance_ft >= points[-1][0]:
            return min(0.5, math.exp(points[-1][1]))
        for (d0, l0), (d1, l1) in zip(points, points[1:]):
            if d0 <= distance_ft <= d1:
                t = (distance_ft - d0) / (d1 - d0)
                return math.exp(l0 + t * (l1 - l0))
        raise AssertionError("unreachable")

    def ber(self, src, dst, distance_ft, range_ft):
        return min(0.5, self.mean_ber(distance_ft) * self._factor(src, dst))


def _in_windows(windows, now):
    return any(start <= now < end for start, end in windows)


def _check_windows(windows):
    windows = sorted(tuple(w) for w in windows)
    for start, end in windows:
        if end <= start:
            raise ValueError(f"empty window ({start}, {end})")
    return windows


class DegradedLossModel:
    """Wrap a base loss model with windows of degraded link quality.

    Inside a window every affected link's BER is multiplied by
    ``ber_factor`` and floored at ``ber_floor`` (capped at 0.5), modeling
    rain fade, co-channel interference, or antenna damage; a floor of 0.5
    is a total blackout (nothing decodes).
    ``nodes`` (optional) restricts the effect to links whose source or
    destination is in the set.  Built for the fault-injection subsystem
    (:mod:`repro.faults`); deterministic given the simulation clock.
    """

    is_time_varying = True  # BER depends on the simulation clock

    def __init__(self, sim, base_model, windows, ber_factor=1.0,
                 ber_floor=0.0, nodes=None):
        if ber_factor < 1.0:
            raise ValueError("ber_factor must be >= 1")
        if not 0.0 <= ber_floor <= 0.5:
            raise ValueError("ber_floor must be in [0, 0.5]")
        self.sim = sim
        self.base = base_model
        self.windows = _check_windows(windows)
        self.ber_factor = ber_factor
        self.ber_floor = ber_floor
        self.nodes = frozenset(nodes) if nodes is not None else None
        self.degraded_packets = 0

    def ber(self, src, dst, distance_ft, range_ft):
        ber = self.base.ber(src, dst, distance_ft, range_ft)
        if self.nodes is not None and not ({src, dst} & self.nodes):
            return ber
        if _in_windows(self.windows, self.sim.now):
            self.degraded_packets += 1
            return min(0.5, max(ber * self.ber_factor, self.ber_floor))
        return ber


class PartitionLossModel:
    """Wrap a base loss model with scheduled network partitions.

    During a window, links whose endpoints fall in *different* groups
    saturate at BER 0.5 (nothing decodes across the cut); links inside a
    group, or touching a node in no group, pass through unchanged.
    Models a physical split -- a vehicle parked across the deployment, a
    collapsed relay row -- without changing audibility, so carrier sense
    and collisions still couple the halves (as they would in reality).
    """

    is_time_varying = True  # BER depends on the simulation clock

    def __init__(self, sim, base_model, windows, groups):
        self.sim = sim
        self.base = base_model
        self.windows = _check_windows(windows)
        self.groups = [frozenset(g) for g in groups]
        if sum(1 for g in self.groups if g) < 2:
            raise ValueError("a partition needs at least two groups")
        self._side = {}
        for index, group in enumerate(self.groups):
            for node in group:
                if node in self._side:
                    raise ValueError(f"node {node} is in two groups")
                self._side[node] = index
        self.cut_packets = 0

    def severed(self, src, dst):
        """True if the (src, dst) link is across the cut right now."""
        src_side = self._side.get(src)
        dst_side = self._side.get(dst)
        if src_side is None or dst_side is None or src_side == dst_side:
            return False
        return _in_windows(self.windows, self.sim.now)

    def ber(self, src, dst, distance_ft, range_ft):
        if self.severed(src, dst):
            self.cut_packets += 1
            return 0.5
        return self.base.ber(src, dst, distance_ft, range_ft)


class EmpiricalLossModel:
    """Distance-dependent, per-edge-randomised BER (TOSSIM-style).

    The mean BER follows a smooth curve from ``near_ber`` at distance 0 to
    ``far_ber`` at the communication range, with the steep rise concentrated
    in the outer part of the range (the well-known "grey region" of mica
    radios).  Each directed edge multiplies the mean by a log-normal factor
    drawn once and cached, so a given edge is consistently good or bad for a
    whole run and links are asymmetric.

    Parameters
    ----------
    seed:
        Seeds the per-edge random factors.
    near_ber / far_ber:
        BER at zero distance and at the nominal range edge.
    grey_start:
        Fraction of the range where the grey region begins (mean BER starts
        rising steeply).
    sigma:
        Log-normal sigma of the per-edge factor (0 disables variation).
    """

    is_time_varying = False

    def __init__(self, seed=0, near_ber=1e-5, far_ber=5e-3, grey_start=0.6, sigma=0.6):
        if not 0 <= grey_start < 1:
            raise ValueError("grey_start must be in [0,1)")
        self.near_ber = near_ber
        self.far_ber = far_ber
        self.grey_start = grey_start
        self.sigma = sigma
        self._rng_seed = seed
        self._edge_factor = {}

    def _factor(self, src, dst):
        key = (src, dst)
        factor = self._edge_factor.get(key)
        if factor is None:
            rng = derive_rng(self._rng_seed, "edge", src, dst)
            factor = math.exp(rng.gauss(0.0, self.sigma)) if self.sigma else 1.0
            self._edge_factor[key] = factor
        return factor

    def mean_ber(self, distance_ft, range_ft):
        """Mean BER at the given distance (before per-edge variation)."""
        if range_ft <= 0:
            return 1.0
        x = distance_ft / range_ft
        if x <= self.grey_start:
            # interpolate gently in log space across the "good" region
            t = x / self.grey_start if self.grey_start else 0.0
            frac = 0.3 * t
        else:
            # steep rise across the grey region
            t = min(1.0, (x - self.grey_start) / (1.0 - self.grey_start))
            frac = 0.3 + 0.7 * t
        log_ber = (
            math.log(self.near_ber)
            + frac * (math.log(self.far_ber) - math.log(self.near_ber))
        )
        return math.exp(log_ber)

    def ber(self, src, dst, distance_ft, range_ft):
        ber = self.mean_ber(distance_ft, range_ft) * self._factor(src, dst)
        return min(ber, 0.5)
