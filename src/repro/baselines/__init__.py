"""Baseline dissemination protocols the paper positions MNP against.

* :mod:`repro.baselines.deluge` -- Deluge (Hui & Culler, SenSys'04): page
  pipelining with Trickle-suppressed advertisements and an always-on radio.
  The paper's Section 5 comparison and the "slow diagonal" dynamic behavior
  discussion both target Deluge.
* :mod:`repro.baselines.coded_deluge` -- Deluge's control plane over a
  network-coded data plane (rank requests, random linear combinations);
  the baseline counterpart of ``coded_mnp``.
* :mod:`repro.baselines.moap` -- MOAP (Stathopoulos et al.): hop-by-hop
  whole-image transfer with publish/subscribe sender suppression and
  NAK-based repair.
* :mod:`repro.baselines.xnp` -- TinyOS XNP: the single-hop reprogrammer MNP
  replaces; it cannot cover a multihop network.
* :mod:`repro.baselines.flood` -- naive packet flooding, the broadcast-storm
  reference point.
* :mod:`repro.baselines.trickle` -- the Trickle suppression timer used by
  Deluge (also usable standalone).

Importing this package registers each protocol with
:data:`repro.experiments.common.PROTOCOLS`.  The baselines are fixed
comparators: each one's parameters are constants on its node class, and
a node handed a protocol config raises :class:`TypeError`.
"""

from repro.baselines.trickle import TrickleTimer
from repro.baselines.deluge import DelugeNode
from repro.baselines.coded_deluge import CodedDelugeNode
from repro.baselines.moap import MoapNode
from repro.baselines.xnp import XnpNode
from repro.baselines.flood import FloodNode

__all__ = [
    "TrickleTimer",
    "DelugeNode",
    "CodedDelugeNode",
    "MoapNode",
    "XnpNode",
    "FloodNode",
]
