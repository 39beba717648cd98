"""Wireless substrate: frames, propagation, radio device, channel, CSMA MAC.

The model reproduces the features of the Mica-2 CC1000 radio and the TinyOS
CSMA stack that the paper's results depend on:

* a shared broadcast medium with per-link bit errors (lossy, asymmetric);
* collisions whenever two audible transmissions overlap at a listening
  receiver -- carrier sense happens at the *sender*, so hidden terminals
  corrupt packets exactly as in the motivation of the paper;
* selectable transmission power (TinyOS power levels 1..255) that changes
  the communication range and therefore neighborhood size;
* an explicit radio power state (off / idle-listening / rx / tx) so that
  MNP's sleep behaviour translates into measured active-radio-time savings.
"""

from repro.radio.packet import BROADCAST, Frame
from repro.radio.propagation import PropagationModel
from repro.radio.radio import Radio, RadioState
from repro.radio.channel import Channel
from repro.radio.mac import CsmaMac
from repro.radio.tdma import TdmaMac, TdmaSchedule, build_tdma_schedule

__all__ = [
    "BROADCAST",
    "Frame",
    "PropagationModel",
    "Radio",
    "RadioState",
    "Channel",
    "CsmaMac",
    "TdmaMac",
    "TdmaSchedule",
    "build_tdma_schedule",
]
