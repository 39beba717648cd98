"""Unit-level tests of the MNP protocol engine: individual handlers and
state transitions, driven on tiny deterministic worlds."""

import pytest

from repro.core.bitvector import BitVector
from repro.core.config import MNPConfig
from repro.core.messages import (
    Advertisement,
    DataPacket,
    DownloadRequest,
    EndDownload,
    Query,
    StartDownload,
)
from repro.core.mnp import MNPNode, ProgramInfo, TransitionError
from repro.core.segments import CodeImage
from repro.core.states import MNPState
from tests.conftest import make_world


def build_pair(config=None, image=None, n_segments=2, segment_packets=4):
    world = make_world([(0.0, 0.0), (10.0, 0.0)])
    image = image or CodeImage.random(1, n_segments=n_segments,
                                      segment_packets=segment_packets, seed=3)
    base = MNPNode(world.motes[0], config=config, image=image)
    node = MNPNode(world.motes[1], config=config)
    return world, base, node, image


def adv_from(node_id, req_ctr=0, high=2, offer=2, n_segments=2,
             segment_packets=4):
    return Advertisement(
        source_id=node_id, program_id=1, n_segments=n_segments,
        high_seg_id=high, offer_seg_id=offer, req_ctr=req_ctr,
        segment_packets=segment_packets, last_seg_packets=segment_packets,
    )


# ----------------------------------------------------------------------
# Startup
# ----------------------------------------------------------------------
def test_base_starts_advertising_others_idle():
    world, base, node, _ = build_pair()
    base.start()
    node.start()
    assert base.state == MNPState.ADVERTISE
    assert node.state == MNPState.IDLE
    assert base.mote.radio.is_on and node.mote.radio.is_on


def test_base_has_image_preloaded_without_write_costs():
    _, base, _, image = build_pair()
    assert base.has_full_image
    assert base.got_code_time == 0.0
    assert base.mote.eeprom.write_ops == 0
    assert base.assemble_image() == image.to_bytes()


def test_program_info_n_packets():
    info = ProgramInfo(1, 3, 128, 40)
    assert info.n_packets(1) == 128
    assert info.n_packets(3) == 40
    with pytest.raises(KeyError):
        info.n_packets(4)
    with pytest.raises(KeyError):
        info.n_packets(0)


# ----------------------------------------------------------------------
# Requester tasks (Fig. 3)
# ----------------------------------------------------------------------
def test_advertisement_provokes_download_request():
    world, base, node, _ = build_pair()
    node.start()
    requests = []
    world.sim.tracer.subscribe(
        lambda r: requests.append(r), categories=("radio.tx",)
    )
    node._handle_advertisement(adv_from(0, req_ctr=2))
    world.sim.run(until=100.0)
    assert node.program is not None
    assert node.first_adv is not None
    sent = [r for r in requests if r.kind == "DownloadRequest"]
    assert len(sent) == 1
    # inspect the actual queued message
    assert node.rvd_seg == 0


def test_download_request_echoes_advertised_reqctr():
    world, base, node, _ = build_pair()
    node.start()
    captured = []
    node.mote.mac.send = lambda payload, nbytes, dst=-1: captured.append(payload)
    node._handle_advertisement(adv_from(0, req_ctr=7))
    world.sim.run(until=500.0)  # let the jittered request timer fire
    req = captured[0]
    assert isinstance(req, DownloadRequest)
    assert req.dest_id == 0
    assert req.echo_req_ctr == 7
    assert req.seg_id == 1
    assert req.missing.count() == 4  # everything missing


def test_uninteresting_advertisement_ignored():
    world, base, node, _ = build_pair()
    node.start()
    node._handle_advertisement(adv_from(0, high=2))
    node.rvd_seg = 2  # now fully up to date
    captured = []
    node.mote.mac.send = lambda payload, nbytes, dst=-1: captured.append(payload)
    node._handle_advertisement(adv_from(5, high=2))
    assert captured == []


# ----------------------------------------------------------------------
# Source tasks (Fig. 2)
# ----------------------------------------------------------------------
def test_source_counts_distinct_requesters_only():
    world, base, node, _ = build_pair()
    base.start()
    missing = BitVector.all_set(4)
    req = DownloadRequest(9, 0, 2, 0, missing)
    base._handle_download_request(req)
    base._handle_download_request(req)  # duplicate requester
    assert base.req_ctr == 1
    base._handle_download_request(DownloadRequest(8, 0, 2, 0, missing))
    assert base.req_ctr == 2


def test_source_merges_missing_into_forward_vector():
    world, base, node, _ = build_pair()
    base.start()
    v1 = BitVector(4, 0b0011)
    v2 = BitVector(4, 0b1000)
    base._handle_download_request(DownloadRequest(9, 0, 2, 0, v1))
    base._handle_download_request(DownloadRequest(8, 0, 2, 0, v2))
    assert base.forward_vector == BitVector(4, 0b1011)


def test_source_loses_to_stronger_advertisement():
    world, base, node, _ = build_pair()
    base.start()
    base.req_ctr = 1
    base._handle_advertisement(adv_from(5, req_ctr=3))
    assert base.state == MNPState.SLEEP
    assert not base.mote.radio.is_on
    assert base.req_ctr == 0


def test_source_survives_weaker_advertisement():
    world, base, node, _ = build_pair()
    base.start()
    base.req_ctr = 3
    base._handle_advertisement(adv_from(5, req_ctr=1))
    assert base.state == MNPState.ADVERTISE


def test_hidden_terminal_request_to_other_causes_sleep():
    """A request destined to an unseen competitor carries that
    competitor's ReqCtr; a weaker source must yield (§3.1.1)."""
    world, base, node, _ = build_pair()
    base.start()
    base.req_ctr = 1
    req = DownloadRequest(9, dest_id=77, seg_id=1, echo_req_ctr=4,
                          missing=BitVector.all_set(4))
    base._handle_download_request(req)
    assert base.state == MNPState.SLEEP


def test_tie_breaks_by_node_id():
    world, base, node, _ = build_pair()
    base.start()
    base.req_ctr = 2
    # equal count, higher id wins
    base._handle_advertisement(adv_from(99, req_ctr=2))
    assert base.state == MNPState.SLEEP


def test_start_download_from_competitor_sends_source_to_sleep():
    world, base, node, _ = build_pair()
    base.start()
    base._handle_start_download(StartDownload(5, 2, 4))
    assert base.state == MNPState.SLEEP


def test_sender_selection_ablation_never_sleeps():
    cfg = MNPConfig(sender_selection=False)
    world, base, node, _ = build_pair(config=cfg)
    base.start()
    base.req_ctr = 0
    base._handle_advertisement(adv_from(5, req_ctr=9))
    assert base.state == MNPState.ADVERTISE


def test_sleep_on_loss_ablation_keeps_radio_on():
    cfg = MNPConfig(sleep_on_loss=False)
    world, base, node, _ = build_pair(config=cfg)
    base.start()
    base._handle_advertisement(adv_from(5, req_ctr=9))
    assert base.state == MNPState.SLEEP
    assert base.mote.radio.is_on  # conceded but still listening


# ----------------------------------------------------------------------
# Pipelining rules (§3.1.2)
# ----------------------------------------------------------------------
def test_request_for_lower_segment_switches_offer():
    world, base, node, _ = build_pair()
    base.start()
    assert base.offer_seg == 2
    base._handle_download_request(
        DownloadRequest(9, 0, 1, 0, BitVector.all_set(4))
    )
    assert base.offer_seg == 1
    assert base.req_ctr == 1  # the switching requester is counted


def test_lower_segment_request_to_other_also_switches():
    world, base, node, _ = build_pair()
    base.start()
    base._handle_download_request(
        DownloadRequest(9, 77, 1, 0, BitVector.all_set(4))
    )
    assert base.offer_seg == 1
    assert base.req_ctr == 0  # not our requester


def test_lower_segment_advertiser_with_demand_preempts():
    world, base, node, _ = build_pair()
    base.start()
    base.req_ctr = 5
    base._handle_advertisement(adv_from(5, req_ctr=1, high=1, offer=1))
    assert base.state == MNPState.SLEEP


def test_request_for_segment_we_lack_is_ignored():
    world, base, node, _ = build_pair()
    base.start()
    base.rvd_seg = 2
    base._handle_download_request(
        DownloadRequest(9, 0, 3, 0, BitVector.all_set(4))
    )
    assert base.req_ctr == 0


# ----------------------------------------------------------------------
# Download state
# ----------------------------------------------------------------------
def test_start_download_enters_download_and_sets_parent():
    world, base, node, _ = build_pair()
    node.start()
    node._learn_program(adv_from(0))
    node._handle_start_download(StartDownload(0, 1, 4))
    assert node.state == MNPState.DOWNLOAD
    assert node.parent == 0
    assert node.download_seg == 1


def test_out_of_order_segment_puts_idle_node_to_sleep():
    world, base, node, _ = build_pair()
    node.start()
    node._learn_program(adv_from(0))
    node._handle_start_download(StartDownload(0, 2, 4))
    assert node.state == MNPState.SLEEP


def test_data_packet_stored_once_and_bit_cleared():
    world, base, node, image = build_pair()
    node.start()
    node._learn_program(adv_from(0))
    node._handle_start_download(StartDownload(0, 1, 4))
    payload = image.segment(1).packet(0)
    node._handle_data(DataPacket(0, 1, 0, payload))
    node._handle_data(DataPacket(0, 1, 0, payload))  # duplicate
    assert node.mote.eeprom.write_counts[(1, 1, 0)] == 1
    assert not node._missing_for(1).test(0)


def test_complete_segment_on_end_download():
    world, base, node, image = build_pair()
    node.start()
    node._learn_program(adv_from(0))
    node._handle_start_download(StartDownload(0, 1, 4))
    for i in range(4):
        node._handle_data(DataPacket(0, 1, i, image.segment(1).packet(i)))
    node._handle_end_download(EndDownload(0, 1))
    assert node.rvd_seg == 1
    assert node.state == MNPState.ADVERTISE  # pipelining: can serve seg 1


def test_incomplete_segment_at_end_download_fails_to_idle():
    world, base, node, image = build_pair()
    node.start()
    node._learn_program(adv_from(0))
    node._handle_start_download(StartDownload(0, 1, 4))
    node._handle_data(DataPacket(0, 1, 0, image.segment(1).packet(0)))
    node._handle_end_download(EndDownload(0, 1))
    assert node.state == MNPState.IDLE
    assert node.fails == 1
    # Partial progress survives the failure (write-once guarantee).
    assert node._missing_for(1).count() == 3


def test_end_download_from_non_parent_ignored():
    world, base, node, image = build_pair()
    node.start()
    node._learn_program(adv_from(0))
    node._handle_start_download(StartDownload(0, 1, 4))
    node._handle_end_download(EndDownload(42, 1))
    assert node.state == MNPState.DOWNLOAD


def test_data_from_any_sender_accepted_if_segment_matches():
    world, base, node, image = build_pair()
    node.start()
    node._learn_program(adv_from(0))
    node._handle_start_download(StartDownload(0, 1, 4))
    node._handle_data(DataPacket(42, 1, 1, image.segment(1).packet(1)))
    assert not node._missing_for(1).test(1)


def test_idle_node_joins_stream_on_matching_data():
    world, base, node, image = build_pair()
    node.start()
    node._learn_program(adv_from(0))
    node._handle_data(DataPacket(0, 1, 2, image.segment(1).packet(2)))
    assert node.state == MNPState.DOWNLOAD
    assert node.parent == 0


def test_non_pipelining_node_idles_between_segments():
    cfg = MNPConfig(pipelining=False)
    world, base, node, image = build_pair(config=cfg)
    node.start()
    node._learn_program(adv_from(0))
    node._handle_start_download(StartDownload(0, 1, 4))
    for i in range(4):
        node._handle_data(DataPacket(0, 1, i, image.segment(1).packet(i)))
    node._handle_end_download(EndDownload(0, 1))
    assert node.rvd_seg == 1
    assert node.state == MNPState.IDLE  # cannot advertise a partial image


# ----------------------------------------------------------------------
# Query/update phase (§3.3)
# ----------------------------------------------------------------------
def test_query_with_missing_enters_update_and_requests_repair():
    cfg = MNPConfig(query_update=True)
    world, base, node, image = build_pair(config=cfg)
    node.start()
    node._learn_program(adv_from(0))
    node._handle_start_download(StartDownload(0, 1, 4))
    node._handle_data(DataPacket(0, 1, 0, image.segment(1).packet(0)))
    captured = []
    node.mote.mac.send = lambda p, n, dst=-1: captured.append(p)
    node._handle_query(Query(0, 1))
    assert node.state == MNPState.UPDATE
    world.sim.run(until=world.sim.now + 500.0)  # jittered repair request
    assert captured and captured[0].missing.count() == 3


def test_query_with_nothing_missing_completes():
    cfg = MNPConfig(query_update=True)
    world, base, node, image = build_pair(config=cfg)
    node.start()
    node._learn_program(adv_from(0))
    node._handle_start_download(StartDownload(0, 1, 4))
    for i in range(4):
        node._handle_data(DataPacket(0, 1, i, image.segment(1).packet(i)))
    node._handle_query(Query(0, 1))
    assert node.rvd_seg == 1


def test_update_completes_after_repair_packets():
    cfg = MNPConfig(query_update=True)
    world, base, node, image = build_pair(config=cfg)
    node.start()
    node._learn_program(adv_from(0))
    node._handle_start_download(StartDownload(0, 1, 4))
    for i in (0, 1, 2):
        node._handle_data(DataPacket(0, 1, i, image.segment(1).packet(i)))
    node._handle_query(Query(0, 1))
    assert node.state == MNPState.UPDATE
    node._handle_data(DataPacket(0, 1, 3, image.segment(1).packet(3)))
    assert node.rvd_seg == 1
    assert node.state == MNPState.ADVERTISE


# ----------------------------------------------------------------------
# Misc
# ----------------------------------------------------------------------
def test_illegal_transition_raises():
    world, base, node, _ = build_pair()
    node.start()
    with pytest.raises(TransitionError):
        node._set_state(MNPState.FORWARD)  # idle -> forward is not in Fig. 4


def test_install_signal_only_when_complete():
    world, base, node, _ = build_pair()
    assert base.install_signal()
    assert base.mote.rebooted_at is not None
    assert not node.install_signal()
    assert node.mote.rebooted_at is None


def test_battery_power_level_scales_with_remaining_charge():
    world, base, node, _ = build_pair(
        config=MNPConfig(battery_aware_power=True)
    )
    base.start()
    assert base._battery_power_level() == 255
    base.mote.battery.remaining_nah = base.mote.battery.capacity_nah * 0.5
    level = base._battery_power_level()
    assert 120 <= level <= 135


def test_battery_fraction_accounts_for_consumed_energy():
    world, base, node, _ = build_pair()
    base.start()
    world.sim.run(until=10_000.0)  # burn idle-listening charge
    assert base.battery_fraction() < 1.0


def test_wakeup_returns_to_idle_without_code():
    world, base, node, _ = build_pair()
    node.start()
    node._learn_program(adv_from(0))
    node._handle_start_download(StartDownload(0, 2, 4))  # not of interest
    assert node.state == MNPState.SLEEP
    node._on_wakeup()
    assert node.state == MNPState.IDLE
    assert node.mote.radio.is_on


def test_wakeup_with_code_advertises():
    world, base, node, image = build_pair()
    node.start()
    node._learn_program(adv_from(0))
    node._handle_start_download(StartDownload(0, 1, 4))
    for i in range(4):
        node._handle_data(DataPacket(0, 1, i, image.segment(1).packet(i)))
    node._handle_end_download(EndDownload(0, 1))
    node._enter_sleep("test")
    node._on_wakeup()
    assert node.state == MNPState.ADVERTISE
