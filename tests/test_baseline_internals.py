"""Unit-level tests of baseline protocol internals (handlers driven
directly, without full dissemination runs)."""

import random

import pytest

from repro.baselines.coded_deluge import CodedDelugeNode
from repro.baselines.deluge import DelugeNode, PageRequest, Summary
from repro.baselines.flood import FloodAdv, FloodNode
from repro.baselines.moap import (
    EndOfImage,
    MoapNode,
    Nak,
    Publish,
    Subscribe,
)
from repro.baselines.xnp import XnpAdv, XnpNak, XnpNode, XnpQuery
from repro.core.auth import ImageManifest, SecurityConfig
from repro.core.bitvector import BitVector
from repro.core.coding import GenerationEncoder
from repro.core.image_node import TransitionError
from repro.core.messages import CodedDataPacket, DataPacket
from repro.core.segments import CodeImage
from repro.radio.packet import Frame
from tests.conftest import make_world


def pair(cls, image=None, **kwargs):
    world = make_world([(0.0, 0.0), (10.0, 0.0)])
    base = cls(world.motes[0], image=image, **kwargs)
    node = cls(world.motes[1], **kwargs)
    return world, base, node


def image2():
    return CodeImage.random(1, n_segments=2, segment_packets=4, seed=41)


# ----------------------------------------------------------------------
# Deluge
# ----------------------------------------------------------------------
def summary(src, gamma, program=1):
    return Summary(src, program, 2, 4, 4, gamma)


def test_deluge_summary_teaches_program():
    world, base, node = pair(DelugeNode, image=image2())
    node.start()
    node._handle_summary(summary(0, gamma=2))
    assert node.program is not None
    assert node.program.n_segments == 2


def test_deluge_consistent_summary_feeds_trickle():
    world, base, node = pair(DelugeNode, image=image2())
    node.start()
    node._handle_summary(summary(0, gamma=0))
    heard_before = node.trickle.heard
    node._handle_summary(summary(5, gamma=0))  # same gamma as ours (0)
    assert node.trickle.heard == heard_before + 1


def test_deluge_ahead_summary_schedules_request():
    world, base, node = pair(DelugeNode, image=image2())
    node.start()
    node._handle_summary(summary(0, gamma=2))
    assert node._request_timer.running
    assert node._request_dest == 0


def test_deluge_request_for_held_page_starts_tx():
    world, base, node = pair(DelugeNode, image=image2())
    base.start()
    req = PageRequest(1, 0, 1, BitVector.all_set(4))
    base._handle_request(req)
    assert base.state == DelugeNode.TX
    assert base._tx_page == 1


def test_deluge_request_for_missing_page_ignored():
    world, base, node = pair(DelugeNode, image=image2())
    node.start()
    node._handle_summary(summary(0, gamma=2))  # node has gamma 0
    node._handle_request(PageRequest(5, 1, 1, BitVector.all_set(4)))
    assert node.state != DelugeNode.TX


def test_deluge_overheard_request_suppresses_own():
    world, base, node = pair(DelugeNode, image=image2())
    node.start()
    node._handle_summary(summary(0, gamma=2))
    assert node._request_timer.running
    # someone else asks for the same page we need
    node._handle_request(PageRequest(7, 0, 1, BitVector.all_set(4)))
    assert not node._request_timer.running
    assert node.state == DelugeNode.RX


def test_deluge_sender_keeps_its_page_when_overhearing_a_request():
    # A node in MAINTAIN arms its request timer for the next page, then
    # becomes a sender for the page it holds.  Overhearing someone
    # else's request for that next page used to switch it to RX mid-
    # stream: Deluge prioritizes transmit over receive.
    world, base, node = pair(DelugeNode, image=image2())
    node.start()
    node._handle_summary(summary(0, gamma=2))
    img = image2()
    for i in range(4):
        node._handle_data(DataPacket(0, 1, i, img.segment(1).packet(i)))
    assert node.rvd_seg == 1
    assert node._request_timer.running  # will ask for page 2
    node._handle_request(PageRequest(5, 1, 1, BitVector.all_set(4)))
    assert node.state == DelugeNode.TX
    node._handle_request(PageRequest(7, 0, 2, BitVector.all_set(4)))
    assert node.state == DelugeNode.TX
    assert node._tx_page == 1
    world.sim.run(until=world.sim.now + 5_000)
    assert node.state == DelugeNode.MAINTAIN  # the page went out whole
    assert [kind for _, src, kind in world.channel.tx_log
            if src == 1].count("DataPacket") == 4


def test_deluge_data_completion_resets_trickle():
    world, base, node = pair(DelugeNode, image=image2())
    node.start()
    node._handle_summary(summary(0, gamma=2))
    node.trickle.tau = node.trickle.tau_high_ms
    img = image2()
    for i in range(4):
        node._handle_data(DataPacket(0, 1, i, img.segment(1).packet(i)))
    assert node.rvd_seg == 1
    assert node.trickle.tau == node.trickle.tau_low_ms


def test_deluge_adopting_newer_version_stops_streaming():
    world, base, node = pair(DelugeNode, image=image2())
    base.start()
    base._handle_request(PageRequest(1, 0, 1, BitVector.all_set(4)))
    assert base.state == DelugeNode.TX
    # An unsigned (here: forged) summary of a newer version: the node
    # adopts it mid-stream, and has no flash for the new version's page.
    base._handle_summary(summary(1, gamma=0, program=2))
    world.sim.run(until=world.sim.now + 5_000)  # pending send completes
    assert base.program.program_id == 2
    assert base.state == DelugeNode.MAINTAIN
    assert not base._tx_timer.running


def test_deluge_illegal_edge_raises_transition_error():
    world, base, node = pair(DelugeNode, image=image2())
    base.start()
    base._handle_request(PageRequest(1, 0, 1, BitVector.all_set(4)))
    assert base.state == DelugeNode.TX
    with pytest.raises(TransitionError):
        base._set_state(DelugeNode.RX)  # a sender finishes its page first
    assert base.state == DelugeNode.TX
    assert base.state_changes[-1][1:] == (DelugeNode.MAINTAIN, DelugeNode.TX)


def test_out_of_band_reset_is_logged_but_not_traced():
    # Adopting a newer version is outside the protocol's edges: the
    # jump joins the node's history, but no state record is emitted.
    world, base, node = pair(DelugeNode, image=image2())
    records = []
    world.sim.tracer.subscribe(records.append, categories=("mnp.state",))
    base.start()
    base._handle_request(PageRequest(1, 0, 1, BitVector.all_set(4)))
    base._handle_summary(summary(1, gamma=0, program=2))
    assert [change[1:] for change in base.state_changes] == [
        (DelugeNode.MAINTAIN, DelugeNode.TX),
        (DelugeNode.TX, DelugeNode.MAINTAIN),
    ]
    assert [(rec.frm, rec.to) for rec in records] == [
        (DelugeNode.MAINTAIN, DelugeNode.TX),
    ]


def test_deluge_power_cycle_returns_to_maintain():
    # A crash kills the node's timers with its MCU.  Deluge asks for
    # pages only from MAINTAIN, so a node restarted in RX used to stay
    # there, timerless, and never asked again.
    world, base, node = pair(DelugeNode, image=image2())
    node.start()
    node._handle_summary(summary(0, gamma=2))
    world.sim.run(until=world.sim.now + DelugeNode.REQUEST_BACKOFF_MS)
    assert node.state == DelugeNode.RX  # requested page 1 from node 0
    node.mote.kill()
    world.sim.run(until=world.sim.now + 60_000)  # its RX timer dies
    node.mote.revive()
    node.power_cycle()
    assert node.state == DelugeNode.MAINTAIN
    assert not node._rx_timer.running
    assert node.mote.radio.is_on
    node._handle_summary(summary(0, gamma=2))
    assert node._request_timer.running  # it asks again


def test_coded_deluge_power_cycle_keeps_only_flushed_rows():
    # The decoder matrices live in RAM and die in a crash; a flushed
    # page survives in flash, as unit-vector rows.
    world, base, node = pair(CodedDelugeNode, image=image2())
    node.start()
    node._handle_summary(summary(0, gamma=2))
    for page, rows in ((1, 4), (2, 2)):
        encoder = GenerationEncoder(image2().segment(page).packets,
                                    random.Random(page))
        for _ in range(rows):
            coeffs, payload = encoder.next_coded()
            node._handle_data(CodedDataPacket(
                0, page, coeffs, payload, tail_len=encoder.tail_len))
    assert node.rvd_seg == 1
    assert [node._seg_missing[page].rank for page in (1, 2)] == [4, 2]
    node.mote.kill()
    node.mote.revive()
    node.power_cycle()
    assert [node._seg_missing[page].rank for page in (1, 2)] == [4, 0]
    assert node._seg_missing[1].is_empty()


def _teach_deluge(node, program_id):
    node._handle_summary(summary(0, gamma=0, program=program_id))


# ----------------------------------------------------------------------
# MOAP
# ----------------------------------------------------------------------
def test_moap_publish_provokes_subscription():
    world, base, node = pair(MoapNode, image=image2())
    node.start()
    node._handle_publish(Publish(0, 1, 2, 4, 4))
    assert node.parent == 0
    assert node._subscribe_timer.running


def test_moap_subscribers_accumulate():
    world, base, node = pair(MoapNode, image=image2())
    base.start()
    base._handle_subscribe(Subscribe(5, 0))
    base._handle_subscribe(Subscribe(6, 0))
    base._handle_subscribe(Subscribe(6, 0))
    assert base._subscribers == {5, 6}


def test_moap_subscribe_to_other_ignored():
    world, base, node = pair(MoapNode, image=image2())
    base.start()
    base._handle_subscribe(Subscribe(5, 99))
    assert base._subscribers == set()


def test_moap_competing_publisher_defers():
    world, base, node = pair(MoapNode, image=image2())
    base.start()
    expiry_before = base._publish_timer.expiry
    base._handle_publish(Publish(77, 1, 2, 4, 4))
    # deferral re-arms the publish timer with the longer defer window
    assert base._publish_timer.running
    assert base._publish_timer.expiry is not None


def test_moap_nak_queues_retransmissions():
    world, base, node = pair(MoapNode, image=image2())
    base.start()
    base.state = MoapNode.REPAIR
    missing = BitVector(4, 0b0101)
    base._handle_nak(Nak(5, 0, 1, missing))
    assert (1, 0) in base._repair_queue or base._repair_queue
    queued = set(base._repair_queue)
    assert (1, 2) in queued or base._repair_queue  # bits 0 and 2


def test_moap_end_of_image_triggers_nak_when_missing():
    world, base, node = pair(MoapNode, image=image2())
    node.start()
    node._handle_publish(Publish(0, 1, 2, 4, 4))
    img = image2()
    node._handle_data(DataPacket(0, 1, 0, img.segment(1).packet(0)))
    node._handle_end_of_image(EndOfImage(0))
    world.sim.run(until=world.sim.now + 5_000.0)
    # a NAK went out (first incomplete segment is 1)
    assert node._nak_rounds_left <= MoapNode.NAK_ROUNDS


def test_moap_adopting_newer_version_stops_streaming():
    world, base, node = pair(MoapNode, image=image2())
    base.start()
    base._handle_subscribe(Subscribe(1, 0))
    base._begin_stream()
    assert base.state == MoapNode.STREAM
    # An unsigned (here: forged) publish of a newer version: the
    # publisher adopts it mid-stream, and has no flash for it.
    base._handle_publish(Publish(1, 2, 2, 4, 4))
    world.sim.run(until=world.sim.now + 5_000)  # pending send completes
    assert base.program.program_id == 2
    assert base.state == MoapNode.LISTEN
    assert not base._stream_timer.running
    assert not base._publish_timer.running


@pytest.mark.parametrize("stop_in", [MoapNode.STREAM, MoapNode.REPAIR])
def test_moap_power_cycle_returns_a_sender_to_publish(stop_in):
    # A crash kills the node's timers, subscribers and repair queue with
    # its MCU.  A sender restarted in STREAM or REPAIR used to stay
    # there, timerless, for good.
    world, base, node = pair(MoapNode, image=image2())
    base.start()
    base._handle_subscribe(Subscribe(1, 0))
    base._begin_stream()
    if stop_in == MoapNode.REPAIR:
        base._stream_seg = base.program.n_segments + 1
        base._send_next_data()  # EndOfImage: the repair window opens
        base._repair_queue.append((1, 0))
    assert base.state == stop_in
    base.mote.kill()
    world.sim.run(until=world.sim.now + 60_000)  # its timers die
    base.mote.revive()
    base.power_cycle()
    assert base.state == MoapNode.PUBLISH
    assert base.state_changes[-1][1:] == (stop_in, MoapNode.PUBLISH)
    assert base._subscribers == set() and base._repair_queue == []
    assert base._publishes_sent == 0
    assert base._publish_timer.running
    assert not base._stream_timer.running
    assert not base._repair_timer.running


def test_moap_power_cycle_keeps_a_receiver_listening():
    world, base, node = pair(MoapNode, image=image2())
    node.start()
    node._handle_publish(Publish(0, 1, 2, 4, 4))
    assert node._subscribe_timer.running
    node.mote.kill()
    node.mote.revive()
    node.power_cycle()
    assert node.state == MoapNode.LISTEN
    assert node.state_changes == []
    assert not node._subscribe_timer.running
    assert not node._publish_timer.running


# ----------------------------------------------------------------------
# Flooding
# ----------------------------------------------------------------------
def test_flood_adopting_newer_version_drops_outbox():
    world, base, node = pair(FloodNode, image=image2())
    base.start()
    world.sim.run(until=950)  # announcements done, data queued
    assert base._outbox
    adv = FloodAdv(1, 2, 2, 4, 4)
    base._on_frame(Frame(1, adv, adv.wire_bytes()))
    world.sim.run(until=world.sim.now + 5_000)  # pending send completes
    assert base.program.program_id == 2
    assert base._outbox == []


# ----------------------------------------------------------------------
# XNP
# ----------------------------------------------------------------------
def test_xnp_adv_only_from_base_teaches_program():
    world, base, node = pair(XnpNode, image=image2())
    node.start()
    node._handle_adv(XnpAdv(0, 1, 2, 4, 4))
    assert node.program is not None
    assert node.parent == 0


def test_xnp_query_provokes_nak_for_missing_segments():
    world, base, node = pair(XnpNode, image=image2())
    node.start()
    node._handle_adv(XnpAdv(0, 1, 2, 4, 4))
    img = image2()
    for i in range(4):
        node._handle_data(DataPacket(0, 1, i, img.segment(1).packet(i)))
    node._handle_query(XnpQuery(0))
    assert node._nak_queue == [2]  # only segment 2 incomplete


def test_xnp_complete_node_stays_quiet_on_query():
    world, base, node = pair(XnpNode, image=image2())
    node.start()
    node._handle_adv(XnpAdv(0, 1, 2, 4, 4))
    img = image2()
    for seg in (1, 2):
        for i in range(4):
            node._handle_data(DataPacket(0, seg, i,
                                         img.segment(seg).packet(i)))
    assert node.has_full_image
    node._handle_query(XnpQuery(0))
    assert node._nak_queue == []


def test_xnp_base_collects_naks_into_stream():
    world, base, node = pair(XnpNode, image=image2())
    base.start()
    base.state = XnpNode.COLLECT
    base._handle_nak(XnpNak(1, 2, BitVector(4, 0b0011)))
    assert (2, 0) in base._stream and (2, 1) in base._stream
    # duplicates are not re-queued
    base._handle_nak(XnpNak(1, 2, BitVector(4, 0b0011)))
    assert base._stream.count((2, 0)) == 1


def test_xnp_nak_ignored_outside_collection_phases():
    world, base, node = pair(XnpNode, image=image2())
    base.start()
    base.state = XnpNode.ANNOUNCE
    base._handle_nak(XnpNak(1, 1, BitVector.all_set(4)))
    assert base._stream == []


def test_xnp_power_cycle_returns_the_base_to_announce():
    # A crash in BROADCAST kills the pacing timer with the MCU; the
    # base used to come back in BROADCAST, where no timer moves it on.
    world, base, node = pair(XnpNode, image=image2())
    base.start()
    world.sim.run(until=XnpNode.ADV_GAP_MS
                  * (XnpNode.ADV_REPEATS + 1) + 1.0)
    assert base.state == XnpNode.BROADCAST and base._stream
    base.mote.kill()
    world.sim.run(until=world.sim.now + 60_000)  # its timers die
    base.mote.revive()
    base.power_cycle()
    assert base.state == XnpNode.ANNOUNCE
    assert base.state_changes[-1][1:] == (XnpNode.BROADCAST,
                                          XnpNode.ANNOUNCE)
    assert base._stream == [] and base._nak_queue == []
    assert base._adv_left == XnpNode.ADV_REPEATS
    assert base._query_rounds_left == XnpNode.QUERY_ROUNDS
    assert base._timer.running


def test_xnp_power_cycle_drops_a_receivers_naks():
    world, base, node = pair(XnpNode, image=image2())
    node.start()
    node._handle_adv(XnpAdv(0, 1, 2, 4, 4))
    node._handle_query(XnpQuery(0))
    assert node._nak_queue == [1, 2] and node._nak_timer.running
    node.mote.kill()
    node.mote.revive()
    node.power_cycle()
    assert node.state == XnpNode.RECEIVE
    assert node._nak_queue == []
    assert not node._nak_timer.running and not node._timer.running


# ----------------------------------------------------------------------
# Secured version admission, shared by every baseline
# ----------------------------------------------------------------------
KEY = b"test-network-key"


def _teach_moap(node, program_id):
    node._handle_publish(Publish(0, program_id, 2, 4, 4))


def _teach_flood(node, program_id):
    adv = FloodAdv(0, program_id, 2, 4, 4)
    node._on_frame(Frame(0, adv, adv.wire_bytes()))


def _teach_xnp(node, program_id):
    node._handle_adv(XnpAdv(0, program_id, 2, 4, 4))


@pytest.mark.parametrize("cls,teach", [
    (MoapNode, _teach_moap),
    (FloodNode, _teach_flood),
    (XnpNode, _teach_xnp),
], ids=["moap", "flood", "xnp"])
def test_secured_baseline_refuses_forged_newer_version(cls, teach):
    world, base, node = pair(cls, image=image2())
    node.configure_security(SecurityConfig(enabled=True, key=KEY),
                            manifest=ImageManifest.of_image(image2(), KEY))
    node.start()
    teach(node, 1)  # the provisioned version is adopted
    assert node.program.program_id == 1
    assert node.auth_rejects == 0
    teach(node, 2)  # a forged "newer" version is refused
    assert node.program.program_id == 1
    assert node.auth_rejects == 1


@pytest.mark.parametrize("cls,teach", [
    (DelugeNode, _teach_deluge),
    (MoapNode, _teach_moap),
    (FloodNode, _teach_flood),
    (XnpNode, _teach_xnp),
], ids=["deluge", "moap", "flood", "xnp"])
def test_baseline_adopting_newer_version_resets_got_code_time(cls, teach):
    # A node that completed version 1 has not completed version 2; it
    # used to keep its version-1 time, so a run reported completion
    # before its nodes held the version they settled on.
    world, base, node = pair(cls, image=image2())
    node.start()
    node._hold_image(image2(), 1_000.0)
    assert node.got_code_time == 1_000.0
    teach(node, 2)
    assert node.program.program_id == 2
    assert node.rvd_seg == 0
    assert node.got_code_time is None


@pytest.mark.parametrize("protocol", ["deluge", "coded_deluge", "moap",
                                      "xnp", "flood"])
def test_baseline_refuses_a_protocol_config(protocol):
    # Baselines have no knobs: a config handed to one would be ignored
    # without a word.
    from repro.core.config import MNPConfig
    from repro.experiments.common import Deployment
    from repro.net.topology import Topology

    with pytest.raises(TypeError, match="takes no protocol config"):
        Deployment(Topology.line(2, 10), protocol=protocol,
                   protocol_config=MNPConfig())
