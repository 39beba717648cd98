"""The MNP protocol engine.

One :class:`MNPNode` runs on one :class:`repro.hardware.mote.Mote` and
implements the full protocol of Section 3:

* the sender-selection competition of §3.1 (both the basic hop-by-hop
  variant and the pipelined variant with segment priorities);
* the sender/receiver download handshake of §3.2
  (StartDownload / DataPacket / EndDownload, parent-child relationship);
* loss detection and recovery of §3.3 (MissingVector / ForwardVector,
  optional query/update phase);
* the state machine of §3.4 / Fig. 4 (every transition goes through
  :meth:`ImageNode._set_state`, which validates it against
  :data:`repro.core.states.ALLOWED_TRANSITIONS`);
* the reboot policy of §3.5 (external start signal by default, local
  estimation opt-in via ``auto_reboot``);
* the battery-aware power extension sketched in §6.

Interpretation notes (where the paper under-specifies):

* A sender decides "become sender vs. back off" one advertisement interval
  *after* its K-th advertisement, so requests provoked by the last
  advertisement are counted.
* The query/update phase is triggered by the sender's ``Query`` message;
  ``EndDownload`` always terminates the segment (a receiver still missing
  packets at EndDownload fails and retries through the next advertisement
  round, carrying its partial MissingVector so packets are never
  re-requested or re-written).
* An idle node that overhears a data packet for exactly the segment it
  expects joins the download with the packet's sender as parent, even if
  it missed the StartDownload; the paper allows receiving "packets in any
  order and from any node" within the expected segment.
"""

from repro.core.bitvector import BitVector
from repro.core.config import MNPConfig
from repro.core.image_node import ImageNode, ProgramInfo
from repro.core.image_node import TransitionError  # noqa: F401  (re-export)
from repro.core.loss_log import EepromMissingLog
from repro.core.messages import (
    Advertisement,
    DataPacket,
    DownloadRequest,
    EndDownload,
    LossSummary,
    Query,
    RepairRequest,
    SignedAdvertisement,
    StartDownload,
)
from repro.core.sender_selection import loses_to, preempted_by_lower_segment
from repro.core.states import ALLOWED_TRANSITIONS, MNPState
from repro.hardware.eeprom import EepromError
from repro.radio.propagation import FULL_POWER, MIN_POWER
from repro.sim.timers import Timer


class MNPNode(ImageNode):
    """MNP running on one mote.

    Parameters
    ----------
    mote:
        The hardware bundle (radio/MAC/EEPROM/battery).
    config:
        Protocol parameters; defaults to :class:`MNPConfig()`.
    image:
        The full :class:`repro.core.segments.CodeImage` if this node is a
        base station (initial holder of the new program); None otherwise.

    The program ledger, flash layout, install path and secure-OTA checks
    are :class:`~repro.core.image_node.ImageNode`'s; this class is the
    Fig. 4 machine that moves the packets.
    """

    TRANSITIONS = ALLOWED_TRANSITIONS

    def __init__(self, mote, config=None, image=None):
        super().__init__(mote, image=image, state=MNPState.IDLE)
        self.config = config or MNPConfig()
        # §6 multi-subset extension: this node's group memberships.
        # Objects tagged group 0 are for everyone.
        self.groups = frozenset()
        # True once we have overheard an advertisement for an object
        # targeted at a group we are not part of (lets us sleep through
        # that transfer instead of idle-listening).
        self._foreign_object = False

        # Advertise-state variables (Fig. 2).
        self.req_ctr = 0
        self._requesters = set()
        self.offer_seg = 0
        self.forward_vector = None
        self._adverts_sent = 0
        self._adv_interval = self.config.adv_interval_ms
        self._adv_timer = mote.new_timer(self._on_adv_timer, "adv")

        # Requester-side variables.
        self._request_timer = mote.new_timer(self._send_download_request,
                                             "req")
        self._request_dest = None
        self._request_echo = 0

        # Download-state variables.
        self.download_seg = 0
        # The download timer's delay, fixed for a download: its program
        # cannot change before the download ends.
        self._download_timeout = None
        self._download_timer = mote.new_timer(self._on_download_timeout, "dl")

        # Forward / query-state variables.
        self._fwd_packets = []
        self._fwd_index = 0
        self._fwd_timer = mote.new_timer(self._send_next_data, "fwd")
        self._repair_vector = None
        self._query_timer = mote.new_timer(self._on_query_quiet, "query")

        # Update-state variables.
        self._repair_rounds_left = 0
        self._update_phase = "request"  # "request" (jitter) or "wait"
        self._update_timer = mote.new_timer(self._on_update_timeout, "upd")

        # Sleep.
        self._sleep_timer = mote.new_timer(self._on_wakeup, "sleep")
        # Nap between no-demand advertisements (radio off, state stays
        # ADVERTISE; see MNPConfig.idle_sleep).
        self._nap_timer = mote.new_timer(self._on_nap_over, "nap")
        self._napping = False
        # Short post-advertisement listen window before deciding to nap.
        self._listen_timer = mote.new_timer(self._maybe_nap_until_next_adv,
                                            "listen")
        self._timers = (self._adv_timer, self._download_timer,
                        self._fwd_timer, self._query_timer,
                        self._update_timer, self._sleep_timer,
                        self._nap_timer, self._request_timer,
                        self._listen_timer)

        # Signed advertisements (security on; see _authenticate_adv).
        self._adv_nonce = 0  # our own monotonic advertisement nonce
        self._nonce_seen = {}  # source id -> highest authenticated nonce

        # Statistics.
        self.sender_rounds = 0
        self.fails = 0
        self.heard_first_adv = False
        # Consecutive FAIL -> IDLE cycles since the last completed
        # segment; drives the request backoff (MNPConfig.fail_backoff_*).
        self._fail_streak = 0
        # Advertisements heard before this time are not answered (the
        # fail backoff).  The backoff must gate *which* advertisement is
        # answered rather than delay the answer itself: an idle-sleeping
        # source only listens for request_delay_ms + 150 ms after each
        # advertisement, so a reply pushed past that window would be lost
        # against a sleeping radio on every round, forever.
        self._backoff_until = 0.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def start(self):
        """Power the node up: base stations begin advertising, everyone
        else idles with the radio on, listening for advertisements."""
        self.mote.wake_radio()
        if self._can_advertise():
            self._enter_advertise()

    def load_image(self, image):
        """Out-of-band image injection: the operator hands this node (a
        gateway, typically) a complete new image.  Resets dissemination
        state and begins advertising the new version.

        This models plugging the next firmware into the base station for
        a subsequent reprogramming round; it is an operator action, not a
        protocol transition, so the state jump bypasses Fig. 4.
        """
        if self.program is not None \
                and image.program_id <= self.program.program_id:
            raise ValueError(
                f"image v{image.program_id} is not newer than "
                f"v{self.program.program_id}"
            )
        self._reset_to_idle()
        self._hold_image(image, self.sim.now)
        self.mote.wake_radio()
        self._adv_interval = self.config.adv_interval_ms
        self._enter_advertise()

    def power_cycle(self):
        """Restart after a crash (fault layer): cold-boot the protocol.

        Volatile state -- timers, parent, requester bookkeeping -- is
        lost; the received-segment ledger (``rvd_seg``/``_seg_missing``)
        survives, because on real hardware it is recoverable from EEPROM
        (§3.3 large-segment mode literally keeps the missing bitmap in
        flash).  Like :meth:`load_image`, this is an out-of-band reset,
        not a Fig. 4 transition.
        """
        self._reset_to_idle()
        self.parent = None
        self._request_dest = None
        self.req_ctr = 0
        self._requesters.clear()
        self._fail_streak = 0
        self._backoff_until = 0.0
        self._adv_interval = self.config.adv_interval_ms
        super().power_cycle()

    @property
    def data_gap_ms(self):
        """Pause between the data frames of a stream (ms): MNP's is a
        config field, which the conformance generator varies."""
        return self.config.data_gap_ms

    def battery_fraction(self):
        """Remaining battery as a fraction of capacity."""
        battery = self.mote.battery
        remaining = battery.remaining_nah - self.energy_nah()
        return max(0.0, min(1.0, remaining / battery.capacity_nah))

    def ram_footprint_bytes(self):
        """Estimated RAM the protocol state would occupy on the mote.

        §2 makes low memory usage a hard requirement (4 KB of RAM on a
        Mica-2, shared with the application).  The accounting mirrors the
        TinyOS implementation's data layout: fixed scalars, plus one
        bitmap per in-RAM loss tracker and the sender's ForwardVector.
        EEPROM-backed trackers (§3.3 large segments) charge only their
        one-line cache.
        """
        fixed = 64  # scalars: ids, counters, timers' state, parent, segs
        total = fixed
        for missing in self._seg_missing.values():
            if isinstance(missing, EepromMissingLog):
                total += 16 + 8  # cached line + bookkeeping
            else:
                total += missing.wire_bytes()
        if self.forward_vector is not None:
            total += self.forward_vector.wire_bytes()
        if self._repair_vector is not None:
            total += self._repair_vector.wire_bytes()
        total += len(self._requesters) * 2  # 2-byte ids
        return total

    # ------------------------------------------------------------------
    # State machine plumbing
    # ------------------------------------------------------------------
    def _reset_to_idle(self):
        """Out-of-band return to IDLE (:meth:`_reset_state`), timers off."""
        self._stop_all_timers()
        self._reset_state(MNPState.IDLE)

    def _stop_all_timers(self):
        Timer.stop_all(self._timers)
        self._napping = False

    def _can_advertise(self):
        if self.program is None or self.rvd_seg < 1:
            return False
        if self.config.pipelining:
            return True
        return self.rvd_seg == self.program.n_segments

    # ------------------------------------------------------------------
    # Advertise state (source tasks, Fig. 2)
    # ------------------------------------------------------------------
    def _enter_advertise(self, reset_interval=False):
        self._stop_all_timers()
        self._set_state(MNPState.ADVERTISE)
        self.req_ctr = 0
        self._requesters.clear()
        self.offer_seg = self.rvd_seg
        self.forward_vector = self._new_forward_vector(
            self.program.n_packets(self.offer_seg)
        )
        self._adverts_sent = 0
        if reset_interval:
            self._adv_interval = self.config.adv_interval_ms
        self._schedule_adv()

    def _battery_power_level(self):
        level = int(round(FULL_POWER * self.battery_fraction()))
        return max(MIN_POWER, min(FULL_POWER, level))

    def _schedule_adv(self):
        # The hot draws spell out uniform(a, b)'s own expression,
        # ``a + (b - a) * random()``, as the MAC's backoffs do: the same
        # float from the same draw, without the call.
        jitter = 0.5 + (1.5 - 0.5) * self.mote.rng.random()
        self._adv_timer.start(self._adv_interval * jitter)

    def _on_adv_timer(self):
        if self.state != MNPState.ADVERTISE or self._napping:
            return
        if not self.mote.radio.is_on:
            # A fault (brownout) took the radio down outside our own nap
            # accounting; skip this beat and try again next interval.
            self._schedule_adv()
            return
        if self._adverts_sent >= self.config.advertise_count:
            # End of an advertising round: become a sender, or slow down.
            if self.req_ctr > 0:
                self._enter_forward()
                return
            self._adv_interval = min(
                self._adv_interval * self.config.adv_backoff_factor,
                self.config.adv_interval_max_ms,
            )
            self._adverts_sent = 0
            if self.config.idle_sleep and self.config.sleep_on_loss:
                # No demand this round: nap through the backed-off
                # interval instead of idle listening.
                self._napping = True
                self.mote.sleep_radio()
                # Sleep quanta are "approximately the expected code
                # transmission time" (§3.1.1); the backed-off interval
                # takes over once it grows past one segment time.
                nap = max(self._adv_interval, self._segment_time_ms())
                self._nap_timer.start(
                    nap * (0.8 + (1.2 - 0.8) * self.mote.rng.random()))
                return
        if self.config.battery_aware_power:
            # §6 extension: low-battery nodes advertise at reduced power,
            # reach fewer requesters, and so lose the sender selection.
            self.mote.radio.power_level = self._battery_power_level()
        adv = self._make_advertisement()
        self.mote.mac.send(adv, adv.wire_bytes())
        self._adverts_sent += 1
        tracer = self.sim.tracer
        if tracer.watches("mnp.adv"):
            tracer.emit(
                "mnp.adv", node=self.node_id, seg=self.offer_seg,
                req_ctr=self.req_ctr,
            )
        self._schedule_adv()

    def _make_advertisement(self):
        """Build this beat's advertisement: plain, or (security on, with
        a manifest in hand) signed with a fresh monotonic nonce."""
        fields = dict(
            source_id=self.node_id,
            program_id=self.program.program_id,
            n_segments=self.program.n_segments,
            high_seg_id=self.rvd_seg,
            offer_seg_id=self.offer_seg,
            req_ctr=self.req_ctr,
            segment_packets=self.program.segment_packets,
            last_seg_packets=self.program.last_seg_packets,
            image_crc=self.program.image_crc,
            group_id=self.program.group_id,
        )
        if self.security is not None and self.manifest is not None:
            self._adv_nonce += 1
            adv = SignedAdvertisement(
                nonce=self._adv_nonce, manifest=self.manifest, **fields
            )
            return adv.sign(self.security.key)
        return Advertisement(**fields)

    def _maybe_nap_until_next_adv(self):
        """The post-advertisement listen window expired with no demand:
        nap (radio off) until the next scheduled advertisement instead of
        idle-listening through the backed-off interval.  This is what
        collapses the steady-state duty cycle once a neighborhood is
        fully updated (§3.1.1 "saves energy when the network is
        stable")."""
        if self.state != MNPState.ADVERTISE or self._napping:
            return
        if self.req_ctr > 0 or not self._adv_timer.running \
                or not self.has_full_image:
            return
        remaining = self._adv_timer.expiry - self.sim.now
        if remaining < 500.0:
            return  # active phase: intervals are short, stay awake
        self._adv_timer.stop()
        self._napping = True
        self.mote.sleep_radio()
        self._nap_timer.start(remaining)

    def _on_nap_over(self):
        if self.state != MNPState.ADVERTISE or not self._napping:
            return
        self._napping = False
        self.mote.wake_radio()
        # Advertise promptly after waking; the round counter was reset.
        self._adv_timer.start(1.0 + (50.0 - 1.0) * self.mote.rng.random())

    def _switch_offer(self, seg_id):
        """Start advertising (collecting requests for) a different
        segment: lower on overheard demand (§3.1.2 rule 3), or higher
        when the offered segment has no requesters but a later one we
        hold does."""
        self.offer_seg = seg_id
        self.req_ctr = 0
        self._requesters.clear()
        self.forward_vector = self._new_forward_vector(
            self.program.n_packets(seg_id))

    def _new_forward_vector(self, n_packets):
        """Fresh per-segment demand accumulator for the sender side.

        Stock MNP tracks the union of requesters' MissingVectors; the
        coded variant overrides this with a rank-deficit counter."""
        return BitVector.none_set(n_packets)

    def _new_repair_vector(self, n_packets):
        """Fresh demand accumulator for the query/update phase."""
        return BitVector.none_set(n_packets)

    # ------------------------------------------------------------------
    # Forward + query states (sender side of a download, §3.2/§3.3)
    # ------------------------------------------------------------------
    def _enter_forward(self):
        self._stop_all_timers()
        self._set_state(MNPState.FORWARD)
        self.sender_rounds += 1
        if self.config.battery_aware_power:
            # Data is streamed at full power; only advertisements scale.
            self.mote.radio.power_level = self.mote.config.power_level
        n_packets = self.program.n_packets(self.offer_seg)
        packets = self._plan_round(n_packets, self.config.forward_vector)
        self.sim.tracer.emit(
            "mnp.sender", node=self.node_id, seg=self.offer_seg,
            req_ctr=self.req_ctr, packets=packets,
        )
        start = StartDownload(self.node_id, self.offer_seg, n_packets)
        self.mote.mac.send(start, start.wire_bytes())
        # Data packets flow from _on_send_done pacing.

    def _plan_round(self, n_packets, on_demand):
        """Plan a sender's round over ``offer_seg`` and return how many
        data packets it sends: the ForwardVector's packets when
        ``on_demand``, else the whole segment."""
        if on_demand:
            self._fwd_packets = self.forward_vector.iter_set()
        else:
            self._fwd_packets = list(range(n_packets))
        self._fwd_index = 0
        return len(self._fwd_packets)

    def _next_data_packet(self):
        """The round's next data packet, or None once it is done."""
        if self._fwd_index >= len(self._fwd_packets):
            return None
        packet_id = self._fwd_packets[self._fwd_index]
        self._fwd_index += 1
        return DataPacket(
            self.node_id, self.offer_seg, packet_id,
            self._packet_payload(self.offer_seg, packet_id),
        )

    def _send_next_data(self):
        if self.state not in (MNPState.FORWARD, MNPState.QUERY):
            return
        if not self.mote.radio.is_on:
            # Brownout mid-stream: keep the pacing timer alive so the
            # stream resumes where it left off once the radio returns.
            self._fwd_timer.start(self.config.data_gap_ms)
            return
        if self.state == MNPState.QUERY:
            self._send_next_repair()
            return
        packet = self._next_data_packet()
        if packet is None:
            self._finish_forward()
            return
        self.mote.mac.send(packet, packet.wire_bytes())

    def _segment_finished(self):
        """The current segment has been fully served (data plus optional
        query/update).  In the pipelined protocol the sender now sleeps;
        in the basic protocol (§3.1.1) a single sender transfers the whole
        program, so it rolls straight into the next segment."""
        if not self.config.pipelining and self.offer_seg < self.rvd_seg:
            next_seg = self.offer_seg + 1
            self._set_state(MNPState.FORWARD)
            self.offer_seg = next_seg
            n_packets = self.program.n_packets(next_seg)
            # Receivers' per-segment losses beyond the requested segment
            # are unknown, so the whole segment is streamed.
            self._plan_round(n_packets, on_demand=False)
            self.forward_vector = self._new_forward_vector(n_packets)
            start = StartDownload(self.node_id, next_seg, n_packets)
            self.mote.mac.send(start, start.wire_bytes())
        else:
            self._enter_sleep("finished forwarding")

    def _finish_forward(self):
        if self.config.query_update:
            query = Query(self.node_id, self.offer_seg)
            self.mote.mac.send(query, query.wire_bytes())
            self._set_state(MNPState.QUERY)
            self._repair_vector = self._new_repair_vector(
                self.program.n_packets(self.offer_seg)
            )
            self._query_timer.start(self._query_quiet_ms())
        else:
            done = EndDownload(self.node_id, self.offer_seg)
            self.mote.mac.send(done, done.wire_bytes())
            # Sleep is entered when the EndDownload leaves the air
            # (_on_send_done), so the frame is not aborted by radio-off.

    def _query_quiet_ms(self):
        """How long a querying sender waits for further repair requests.

        Must exceed a child's silence timeout plus its request jitter
        (:meth:`_update_wait_ms`), or the sender abandons the query phase
        before slow children can ask for a second repair round.
        """
        return 2 * self._update_wait_ms() + 2 * self.config.request_delay_ms

    def _update_wait_ms(self):
        """How long a repairing child waits through parent silence before
        re-requesting."""
        return max(500.0, 15 * self._per_packet_ms())

    def _next_repair_packet(self):
        """The next packet the repair requests ask for, or None."""
        packet_id = self._repair_vector.first_set()
        if packet_id is None:
            return None
        self._repair_vector.clear(packet_id)
        return DataPacket(
            self.node_id, self.offer_seg, packet_id,
            self._packet_payload(self.offer_seg, packet_id),
        )

    def _send_next_repair(self):
        packet = self._next_repair_packet()
        if packet is None:
            self._query_timer.start(self._query_quiet_ms())
            return
        self.mote.mac.send(packet, packet.wire_bytes())

    def _on_query_quiet(self):
        if self.state != MNPState.QUERY:
            return
        if not self.mote.radio.is_on:
            # Cannot close the segment while browned out; children would
            # never hear the EndDownload.  Try again after another quiet
            # period.
            self._query_timer.start(self._query_quiet_ms())
            return
        done = EndDownload(self.node_id, self.offer_seg)
        self.mote.mac.send(done, done.wire_bytes())

    # ------------------------------------------------------------------
    # Sleep state
    # ------------------------------------------------------------------
    def _enter_sleep(self, reason):
        self._stop_all_timers()
        self.req_ctr = 0
        self._set_state(MNPState.SLEEP)
        tracer = self.sim.tracer
        if tracer.watches("mnp.sleep"):
            tracer.emit("mnp.sleep", node=self.node_id, reason=reason)
        duration = (
            self.config.sleep_factor
            * self._segment_time_ms()
            * (0.8 + (1.2 - 0.8) * self.mote.rng.random())
        )
        if self.config.sleep_on_loss:
            self.mote.sleep_radio()
        else:
            # Ablation: concede the competition but keep listening.
            self.mote.mac.reset()
        self._sleep_timer.start(duration)

    def _on_wakeup(self):
        if self.state != MNPState.SLEEP:
            return
        self.mote.wake_radio()
        if self._can_advertise():
            self._enter_advertise()
        else:
            self._set_state(MNPState.IDLE)

    # ------------------------------------------------------------------
    # Download + update states (receiver side, §3.2/§3.3)
    # ------------------------------------------------------------------
    def _new_loss_tracker(self, seg_id):
        """With ``large_segments`` the tracker is the EEPROM-backed
        bitmap of §3.3 instead of the in-RAM MissingVector."""
        if self.config.large_segments:
            return EepromMissingLog(
                self.mote.eeprom, (self.program.program_id, seg_id),
                self.program.n_packets(seg_id),
            )
        return super()._new_loss_tracker(seg_id)

    def _loss_payload(self, seg_id):
        """What a request carries: the bitmap when it fits a radio packet,
        the (count, first-missing) summary otherwise (§3.3)."""
        missing = self._missing_for(seg_id)
        if isinstance(missing, EepromMissingLog):
            count, first = missing.summary()
            return LossSummary(missing.n, count, first)
        return missing.copy()

    @staticmethod
    def _merge_loss(forward_vector, loss):
        """Union a request's loss report into a ForwardVector."""
        if isinstance(loss, LossSummary):
            if loss.first_missing is not None \
                    and loss.n == forward_vector.n:
                for packet_id in range(loss.first_missing, loss.n):
                    forward_vector.set(packet_id)
        elif loss.n == forward_vector.n:
            forward_vector.union(loss)

    def _enter_download(self, parent, seg_id):
        self._stop_all_timers()
        self._set_state(MNPState.DOWNLOAD)
        self.parent = parent
        self.download_seg = seg_id
        self.sim.tracer.emit(
            "mnp.parent", node=self.node_id, parent=parent, seg=seg_id
        )
        self._download_timeout = self._download_timeout_ms()
        self._download_timer.start(self._download_timeout)

    def _download_timeout_ms(self):
        return self.config.download_timeout_factor * self._segment_time_ms()

    def _on_download_timeout(self):
        if self.state != MNPState.DOWNLOAD:
            return
        if self._missing_for(self.download_seg).is_empty():
            self._complete_segment()
        else:
            self._fail("download timeout")

    def _store_packet(self, msg):
        """Store a data packet for the segment being downloaded; returns
        True if it was new.

        Defensive against the fault layer: an out-of-range packet id (a
        corrupted header that survived the link CRC) is dropped, and a
        flash write failure fails the download (§3.4) instead of crashing
        the node -- the packet stays marked missing, so the retry
        re-requests and re-writes it.
        """
        # _missing_for's lookup without the call: this runs per data packet.
        missing = self._seg_missing.get(msg.seg_id)
        if missing is None:
            missing = self._missing_for(msg.seg_id)
        if not 0 <= msg.packet_id < missing.n:
            return False
        if not missing.test(msg.packet_id):
            return False
        try:
            self.mote.eeprom.write(
                self._flash_key(msg.seg_id, msg.packet_id), msg.payload
            )
        except EepromError:
            self._fail("eeprom write")
            return False
        missing.clear(msg.packet_id)
        return True

    def _complete_segment(self):
        seg_id = self.download_seg
        if not self._verify_segment(seg_id):
            self._fail("segment digest mismatch")
            return
        self.rvd_seg = seg_id
        self._fail_streak = 0
        self.sim.tracer.emit(
            "mnp.got_segment", node=self.node_id, seg=seg_id,
            parent=self.parent,
        )
        if self.has_full_image and self.got_code_time is None:
            self.got_code_time = self.sim.now
            self.sim.tracer.emit(
                "mnp.got_code", node=self.node_id, parent=self.parent
            )
            if self.config.auto_reboot:
                self.mote.reboot()
        self._stop_all_timers()
        if self._can_advertise():
            self._adv_interval = self.config.adv_interval_ms
            self._enter_advertise()
        else:
            self._set_state(MNPState.IDLE)

    def _fail(self, reason):
        """Fail state (§3.4): transient -- release resources and go idle.

        The partial MissingVector survives, so the next attempt requests
        only what is still missing.
        """
        self.fails += 1
        self._fail_streak += 1
        backoff = self._fail_backoff_ms()
        if backoff:
            self._backoff_until = (
                self.sim.now + backoff * self.mote.rng.uniform(0.5, 1.5)
            )
        self._stop_all_timers()
        self._set_state(MNPState.FAIL)
        self.sim.tracer.emit(
            "mnp.fail", node=self.node_id, seg=self.download_seg,
            reason=reason,
        )
        self.parent = None
        self._set_state(MNPState.IDLE)

    def _fail_backoff_ms(self):
        """Advertisement-suppression window after consecutive fails (0
        when disabled or when the last attempt succeeded); bounded
        exponential."""
        base = self.config.fail_backoff_base_ms
        if not base or not self._fail_streak:
            return 0.0
        return min(
            base * self.config.fail_backoff_factor ** (self._fail_streak - 1),
            self.config.fail_backoff_max_ms,
        )

    def _enter_update(self):
        self._set_state(MNPState.UPDATE)
        self._repair_rounds_left = self.config.repair_rounds
        self._schedule_repair_request()

    def _schedule_repair_request(self):
        """Jitter the repair request: a parent's Query reaches all of its
        children simultaneously, and un-jittered responses would collide
        on every round (same deferred-feedback reasoning as download
        requests)."""
        self._update_timer.start(
            self.mote.rng.uniform(1.0, self.config.request_delay_ms)
        )
        self._update_phase = "request"

    def _send_repair_request(self):
        if not self.mote.radio.is_on:
            # Browned out: count this as a missed round (arm the silence
            # timeout) so repeated outages drain repair_rounds_left and
            # the node fails over to a fresh advertisement round instead
            # of stalling in UPDATE forever.
            self._update_timer.start(self._update_wait_ms())
            self._update_phase = "wait"
            return
        request = RepairRequest(
            self.node_id, self.parent, self.download_seg,
            self._loss_payload(self.download_seg),
        )
        self.mote.mac.send(request, request.wire_bytes())
        self._update_timer.start(self._update_wait_ms())
        self._update_phase = "wait"

    def _on_update_timeout(self):
        if self.state != MNPState.UPDATE:
            return
        if self._missing_for(self.download_seg).is_empty():
            self._complete_segment()
            return
        if self._update_phase == "request":
            self._send_repair_request()
            return
        self._repair_rounds_left -= 1
        if self._repair_rounds_left > 0:
            self._schedule_repair_request()
        else:
            self._fail("update timeout")

    # ------------------------------------------------------------------
    # Receive dispatch
    # ------------------------------------------------------------------
    def _on_frame(self, frame):
        msg = frame.payload
        handler = self._HANDLERS.get(type(msg))
        if handler is not None:
            handler(self, msg)

    def is_member(self, group_id):
        """True if this node should receive objects of ``group_id``."""
        return group_id == 0 or group_id in self.groups

    def _learn_program(self, adv):
        if not self.is_member(adv.group_id):
            self._foreign_object = True
            return
        if self.program is None or adv.program_id > self.program.program_id:
            upgrading = self.program is not None
            self._reset_ledger(ProgramInfo(
                adv.program_id, adv.n_segments, adv.segment_packets,
                adv.last_seg_packets, image_crc=adv.image_crc,
                group_id=adv.group_id,
            ))
            if self.security is not None:
                # Authenticated in _authenticate_adv before we got here;
                # the manifest is what segment and install checks verify
                # against (and what we re-advertise downstream).
                self.manifest = adv.manifest
            if upgrading and self.state == MNPState.ADVERTISE:
                # A newer version obsoletes what we were offering; fall
                # back to listening.  (Version changes are outside Fig. 4,
                # which assumes a single version per §2.)
                self._reset_to_idle()
                self.mote.wake_radio()
        if not self.heard_first_adv:
            self.heard_first_adv = True
            self.sim.tracer.emit(
                "mnp.first_adv",
                node=self.node_id,
                radio_on_ms=self.mote.radio.on_time_ms(),
            )

    def _needs_code_from(self, adv):
        return (
            self.program is not None
            and adv.program_id == self.program.program_id
            and adv.high_seg_id > self.rvd_seg
        )

    def _authenticate_adv(self, adv):
        """Security-on advertisement admission (called only while armed):
        drop unsigned frames, bad signatures/tags, replayed nonces, and
        version rollbacks (any version at or below what the bootloader is
        running).  Returns True when the advertisement may be processed."""
        if not isinstance(adv, SignedAdvertisement):
            reason = "unsigned"
        elif not adv.verify(self.security.key):
            reason = "bad-signature"
        elif adv.nonce <= self._nonce_seen.get(adv.source_id, 0):
            reason = "replay"
        elif adv.program_id <= self.mote.bootloader.running_program_id:
            reason = "rollback"
        else:
            self._nonce_seen[adv.source_id] = adv.nonce
            return True
        return self._reject_version(adv.source_id, adv.program_id, reason)

    def _handle_advertisement(self, adv):
        if self.security is not None and not self._authenticate_adv(adv):
            return
        if self.state in (MNPState.DOWNLOAD, MNPState.UPDATE,
                          MNPState.FORWARD, MNPState.QUERY):
            return
        self._learn_program(adv)
        # Requester tasks (Fig. 3): ask for the next segment we need,
        # after a random delay so that requesters hidden from one another
        # do not collide at the source on every round.
        if self._needs_code_from(adv) and not self._request_timer.running \
                and self.sim.now >= self._backoff_until:
            self._request_dest = adv.source_id
            self._request_echo = adv.req_ctr
            # uniform(0, d): ``0 + (d - 0) * random()`` is ``d * random()``.
            delay = self.config.request_delay_ms * self.mote.rng.random()
            self._request_timer.start(delay)
        # Source competition (Fig. 2(b)).
        if self.state == MNPState.ADVERTISE and self.config.sender_selection:
            if loses_to(self.req_ctr, self.node_id, adv.req_ctr,
                        adv.source_id):
                self._concede_advertisement(adv)
            elif self.config.pipelining and preempted_by_lower_segment(
                self.offer_seg, adv.offer_seg_id, adv.req_ctr,
                self.config.lower_seg_min_requests,
            ):
                self._enter_sleep("lower segment has demand")

    def _concede_advertisement(self, adv):
        """Lost Fig. 2(b) sender selection to ``adv``: concede and sleep."""
        self._enter_sleep("lost to advertisement")

    def _send_download_request(self):
        """Fire the jittered download request (requester task of Fig. 3)."""
        if self.state not in (MNPState.IDLE, MNPState.ADVERTISE):
            return
        if not self.mote.radio.is_on:
            return  # napping between advertising rounds
        if self.program is None or self.rvd_seg >= self.program.n_segments:
            return
        want = self.rvd_seg + 1
        request = DownloadRequest(
            requester_id=self.node_id,
            dest_id=self._request_dest,
            seg_id=want,
            echo_req_ctr=self._request_echo,
            missing=self._loss_payload(want),
        )
        self.mote.mac.send(request, request.wire_bytes())
        tracer = self.sim.tracer
        if tracer.watches("mnp.request"):
            tracer.emit(
                "mnp.request", node=self.node_id, dest=self._request_dest,
                seg=want,
            )

    def _handle_download_request(self, req):
        if self.state != MNPState.ADVERTISE:
            return
        if req.seg_id < 1:
            return  # corrupted header that survived the link CRC
        if req.dest_id == self.node_id:
            if req.seg_id > self.rvd_seg:
                return  # we cannot serve a segment we do not have
            if req.seg_id < self.offer_seg:
                self._switch_offer(req.seg_id)
            elif req.seg_id > self.offer_seg and self.req_ctr == 0:
                # The offer was pulled down (overheard demand for a lower
                # segment) but that demand is gone and this requester
                # needs a later segment we hold.  Without re-aiming, the
                # node would advertise the low segment forever and drop
                # every request for the one actually needed.
                self._switch_offer(req.seg_id)
            if req.seg_id == self.offer_seg:
                if req.requester_id not in self._requesters:
                    self._requesters.add(req.requester_id)
                    self.req_ctr += 1
                    # Fresh demand: advertise at the base rate again.
                    self._adv_interval = self.config.adv_interval_ms
                self._merge_loss(self.forward_vector, req.missing)
            return
        # Request destined to a competitor: it may beat us (hidden
        # terminal fix -- we may never hear the competitor itself).
        if self.config.pipelining and req.seg_id < self.offer_seg \
                and req.seg_id <= self.rvd_seg:
            self._switch_offer(req.seg_id)
        if self.config.sender_selection and loses_to(
            self.req_ctr, self.node_id, req.echo_req_ctr, req.dest_id
        ):
            self._enter_sleep("lost to competitor's requester")

    def _handle_start_download(self, msg):
        if self.program is None:
            if self._foreign_object and self.config.sleep_on_loss \
                    and self.state == MNPState.IDLE:
                self._enter_sleep("foreign-group transfer in progress")
            return
        # The bound keeps a corrupted seg id (one that survived the link
        # CRC) from opening a download on a segment that does not exist.
        wanted = (msg.seg_id == self.rvd_seg + 1
                  and msg.seg_id <= self.program.n_segments)
        if self.state == MNPState.IDLE:
            if wanted:
                self._enter_download(msg.source_id, msg.seg_id)
            elif self.config.sleep_on_loss and msg.seg_id <= self.rvd_seg:
                self._enter_sleep("neighbor streams a segment we have")
            elif self.config.sleep_on_loss:
                self._enter_sleep("neighbor streams a segment we cannot use")
        elif self.state == MNPState.ADVERTISE:
            if wanted:
                self._enter_download(msg.source_id, msg.seg_id)
            else:
                # Fig. 2(c): someone else won this round.
                self._enter_sleep("another sender started")

    def _handle_data(self, msg):
        if self.program is None:
            if self._foreign_object and self.config.sleep_on_loss \
                    and self.state == MNPState.IDLE:
                self._enter_sleep("foreign-group transfer in progress")
            return
        if self.state == MNPState.DOWNLOAD:
            if msg.seg_id == self.download_seg:
                if self._store_packet(msg):
                    self._download_timer.start(self._download_timeout)
            return
        if self.state == MNPState.UPDATE:
            if msg.seg_id == self.download_seg and msg.source_id == self.parent:
                self._store_packet(msg)
                if self.state != MNPState.UPDATE:
                    return  # the store failed the download (EEPROM fault)
                self._update_timer.start(self._update_wait_ms())
                self._update_phase = "wait"
                if self._missing_for(self.download_seg).is_empty():
                    self._complete_segment()
            return
        wanted = (msg.seg_id == self.rvd_seg + 1
                  and msg.seg_id <= self.program.n_segments)
        if self.state == MNPState.IDLE:
            if wanted:
                self._enter_download(msg.source_id, msg.seg_id)
                self._store_packet(msg)
            elif self.config.sleep_on_loss:
                self._enter_sleep("overheard data not of interest")
        elif self.state == MNPState.ADVERTISE:
            if wanted:
                self._enter_download(msg.source_id, msg.seg_id)
                self._store_packet(msg)
            else:
                self._enter_sleep("another sender is streaming")

    def _handle_end_download(self, msg):
        if self.state == MNPState.DOWNLOAD:
            if msg.seg_id != self.download_seg or msg.source_id != self.parent:
                return
            if self._missing_for(self.download_seg).is_empty():
                self._complete_segment()
            else:
                self._fail("segment incomplete at EndDownload")
        elif self.state == MNPState.UPDATE:
            if msg.seg_id != self.download_seg or msg.source_id != self.parent:
                return
            if self._missing_for(self.download_seg).is_empty():
                self._complete_segment()
            else:
                self._fail("parent finished with packets still missing")

    def _handle_query(self, msg):
        if self.state != MNPState.DOWNLOAD:
            return
        if msg.seg_id != self.download_seg or msg.source_id != self.parent:
            return
        if self._missing_for(self.download_seg).is_empty():
            self._complete_segment()
        else:
            self._enter_update()

    def _handle_repair_request(self, req):
        if self.state != MNPState.QUERY:
            return
        if req.dest_id != self.node_id or req.seg_id != self.offer_seg:
            return
        idle = self._repair_vector.is_empty()
        self._merge_loss(self._repair_vector, req.missing)
        self._query_timer.stop()
        if idle and not self._repair_vector.is_empty():
            self._send_next_repair()

    _HANDLERS = {
        Advertisement: _handle_advertisement,
        SignedAdvertisement: _handle_advertisement,
        DownloadRequest: _handle_download_request,
        StartDownload: _handle_start_download,
        DataPacket: _handle_data,
        EndDownload: _handle_end_download,
        Query: _handle_query,
        RepairRequest: _handle_repair_request,
    }

    # ------------------------------------------------------------------
    # Send-completion dispatch (paces the data stream)
    # ------------------------------------------------------------------
    def _on_send_done(self, payload):
        if isinstance(payload, Advertisement):
            if self.config.battery_aware_power:
                # Everything except advertisements goes out at full power.
                self.mote.radio.power_level = self.mote.config.power_level
            if (self.config.idle_sleep and self.config.sleep_on_loss
                    and self.state == MNPState.ADVERTISE
                    and self.req_ctr == 0 and not self._napping
                    and self.has_full_image):
                # A fully-updated source with no demand: give requesters
                # one jitter window to answer, then nap through the rest
                # of the interval.  (Nodes still missing segments keep
                # listening -- they need to hear advertisements.)
                self._listen_timer.start(
                    self.config.request_delay_ms + 150.0
                )
        elif isinstance(payload, StartDownload) and self.state == MNPState.FORWARD:
            self._fwd_timer.start(self.config.data_gap_ms)
        elif isinstance(payload, DataPacket):
            if self.state == MNPState.FORWARD:
                self._fwd_timer.start(self.config.data_gap_ms)
            elif self.state == MNPState.QUERY:
                self._fwd_timer.start(self.config.data_gap_ms)
        elif isinstance(payload, EndDownload):
            if self.state in (MNPState.FORWARD, MNPState.QUERY):
                tracer = self.sim.tracer
                if tracer.watches("mnp.sender_done"):
                    tracer.emit("mnp.sender_done", node=self.node_id,
                                seg=self.offer_seg)
                self._segment_finished()
