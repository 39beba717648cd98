"""What every dissemination node holds: the image it stages.

The paper's accuracy and write-once requirements (§2, §3.3) and its
external start signal (§3.5) concern the image a node stages in flash,
whichever protocol moves the packets.  :class:`ImageNode` owns it for
MNP (:class:`repro.core.mnp.MNPNode`) and for every baseline
(:class:`repro.baselines.base.BaselineNode`): the program ledger, the
version-qualified flash keys, reassembly, data-packet airtime, and the
node side of the secure OTA pipeline (:mod:`repro.core.auth`): segment
digest checks, quarantine and the install through the bootloader.  It
also keeps the node's role: each protocol declares its states and edges
(:attr:`ImageNode.TRANSITIONS`), and every change of role goes through
one checked, traced and logged funnel.  And it keeps the run milestones
the paper's figures read back from each node -- its first turn as
sender, its parent, its got-code time, its first advertisement -- each
stamped by the one call that traces it, under one ``mnp.*`` name for
every protocol.  Subclasses only move packets.
:class:`CodedImage` swaps the data plane under either family for random
linear network coding.
"""

from repro.core.bitvector import BitVector
from repro.core.coding import CodedSegmentTracker, GenerationEncoder
from repro.core.crc import crc16_incremental
from repro.core.messages import CodedDataPacket, DataPacket
from repro.core.states import register_edges
from repro.hardware.bootloader import InstallResult
from repro.hardware.eeprom import EepromError
from repro.hardware.energy import EnergyModel
from repro.radio.packet import Frame
from repro.sim.rng import derive_rng

#: Extra coded packets a round streams beyond the largest reported rank
#: deficit, to ride out losses and the (tiny) chance of a non-innovative
#: draw.
CODED_OVERHEAD = 2


class ProgramInfo:
    """What a node knows about the program being disseminated.

    ``image_crc`` (CRC-16 of the full image) rides in advertisements so a
    receiver can verify the staged image before handing it to the
    bootloader; None means the source did not advertise one.
    """

    __slots__ = ("program_id", "n_segments", "segment_packets",
                 "last_seg_packets", "image_crc", "group_id")

    def __init__(self, program_id, n_segments, segment_packets,
                 last_seg_packets, image_crc=None, group_id=0):
        self.program_id = program_id
        self.n_segments = n_segments
        self.segment_packets = segment_packets
        self.last_seg_packets = last_seg_packets
        self.image_crc = image_crc
        self.group_id = group_id

    @classmethod
    def of_image(cls, image):
        return cls(
            image.program_id,
            image.n_segments,
            image.segment(1).n_packets,
            image.segment(image.n_segments).n_packets,
            image_crc=image.crc16,
            group_id=getattr(image, "group_id", 0),
        )

    def n_packets(self, seg_id):
        """Packet count of segment ``seg_id``."""
        if not 1 <= seg_id <= self.n_segments:
            raise KeyError(f"segment {seg_id} out of 1..{self.n_segments}")
        if seg_id == self.n_segments:
            return self.last_seg_packets
        return self.segment_packets


class TransitionError(RuntimeError):
    """An attempted state change not in the protocol's edge table."""


class ImageNode:
    """The staged image on one mote (see module docstring).

    Parameters
    ----------
    mote:
        The hardware bundle (radio/MAC/EEPROM/battery).
    image:
        The full :class:`repro.core.segments.CodeImage` if this node is a
        base station (initial holder of the program); None otherwise.
    state:
        The protocol's initial role; None for a protocol with one role.

    Every node class declares, in ``__slots__``, the attributes its own
    methods set, so no node carries an instance dict.  An MNP node holds
    over 50 attributes, past the point where CPython keeps them inline,
    and with a dict every ``self.x`` in the protocol would be a hinted
    dict lookup.  An undeclared attribute fails at once with
    AttributeError.
    """

    __slots__ = (
        "mote", "sim", "node_id", "_energy_model", "state", "state_changes",
        "program", "rvd_seg", "_seg_missing", "got_code_time", "parent",
        "became_sender_at", "reported_parent", "first_adv", "_base_image",
        "_per_packet", "security", "manifest", "auth_rejects", "quarantines",
    )

    #: This protocol's roles, ``state -> states it may move to``, declared
    #: beside each node class (Fig. 4 for MNP) and merged into
    #: :data:`repro.core.states.EDGES` for the watchdog.
    TRANSITIONS = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        register_edges(cls.TRANSITIONS)

    def __init__(self, mote, image=None, state=None):
        self.mote = mote
        self.sim = mote.sim
        self.node_id = mote.node_id
        self._energy_model = EnergyModel()
        self.state = state
        self.state_changes = []  # (time, from, to) history

        # Program ledger.
        self.program = None  # ProgramInfo, from the image or the air
        self.rvd_seg = 0  # highest segment complete, in order (RvdSegID)
        self._seg_missing = {}  # seg id -> loss tracker (persists)
        self.got_code_time = None
        self.parent = None  # the node we download (or last downloaded) from

        # Run milestones (Figs. 5-7, 9), each stamped by the call that
        # traces it: the first turn as sender (never reset), the parent
        # of the last parent record, and (time, radio-on ms) when the
        # first advertisement arrived (the MNP family only).
        self.became_sender_at = None
        self.reported_parent = None
        self.first_adv = None
        self._base_image = None  # the image this node was handed whole
        self._per_packet = None  # _per_packet_ms for this program

        # Secure OTA pipeline (repro.core.auth), default off: with no
        # SecurityConfig nothing here draws randomness or changes a byte.
        self.security = None  # SecurityConfig once configure_security()
        self.manifest = None  # signed ImageManifest for self.program
        self.auth_rejects = 0  # version announcements refused
        self.quarantines = 0  # segments or images discarded on a mismatch

        mote.mac.on_receive = self._on_frame
        mote.mac.on_send_done = self._on_send_done
        if image is not None:
            self._hold_image(image, 0.0)

    def _hold_image(self, image, now):
        """Become a holder of the whole ``image`` (out of band): preload
        it into flash and mark every segment received at ``now``."""
        self._base_image = image
        self.program = ProgramInfo.of_image(image)
        self._per_packet = None
        if self.security is not None:
            from repro.core.auth import ImageManifest

            self.manifest = ImageManifest.of_image(image, self.security.key)
        self.rvd_seg = image.n_segments
        self._seg_missing.clear()
        for segment in image.segments:
            for pkt_id, payload in enumerate(segment.packets):
                self.mote.eeprom.preload(
                    self._flash_key(segment.seg_id, pkt_id), payload
                )
        self.got_code_time = now

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def start(self):
        """Power the node up and begin the protocol."""
        raise NotImplementedError

    def _on_frame(self, frame):
        raise NotImplementedError

    def _on_send_done(self, payload):
        """Send-completion hook; only protocols that pace a stream
        need it."""

    def power_cycle(self):
        """Restart after a crash (fault layer): the radio comes back and
        the protocol starts over.  The staged image and its ledger
        survive, as flash does; subclasses first drop what lived in
        RAM.  Like an operator's image load, this is an out-of-band
        reset, not a protocol transition."""
        self.mote.wake_radio()
        self.start()

    # ------------------------------------------------------------------
    # The role funnel
    # ------------------------------------------------------------------
    def _set_state(self, new_state):
        """Move to ``new_state`` along an edge of :attr:`TRANSITIONS`:
        traced as ``mnp.state`` and logged in ``state_changes``.  An edge
        not in the table raises :class:`TransitionError`."""
        if new_state == self.state:
            return
        if new_state not in self.TRANSITIONS.get(self.state, ()):
            raise TransitionError(
                f"node {self.node_id}: illegal transition "
                f"{self.state} -> {new_state}"
            )
        tracer = self.sim.tracer
        if tracer.watches("mnp.state"):
            tracer.emit(
                "mnp.state", node=self.node_id, frm=self.state, to=new_state
            )
        self.state_changes.append((self.sim.now, self.state, new_state))
        self.state = new_state

    def _reset_state(self, state):
        """Out-of-band jump to ``state`` (an image load, a crash restart,
        a newer version): not checked or traced, but logged like an edge,
        so ``state_changes`` stays one unbroken chain."""
        if state != self.state:
            self.state_changes.append((self.sim.now, self.state, state))
            self.state = state

    # ------------------------------------------------------------------
    # Run milestones: each report stamps the node and traces one record
    # ------------------------------------------------------------------
    def _report_sender(self, seg, req_ctr, **fields):
        """A turn as sender of ``seg`` (``mnp.sender``); the first one
        stamps ``became_sender_at``."""
        if self.became_sender_at is None:
            self.became_sender_at = self.sim.now
        self.sim.tracer.emit("mnp.sender", node=self.node_id, seg=seg,
                             req_ctr=req_ctr, **fields)

    def _report_parent(self, **fields):
        """Name ``parent`` as the node we download from (``mnp.parent``),
        stamping ``reported_parent``."""
        self.reported_parent = self.parent
        self.sim.tracer.emit("mnp.parent", node=self.node_id,
                             parent=self.parent, **fields)

    def _report_got_code(self):
        """Stamp ``got_code_time`` and trace ``mnp.got_code`` the first
        time the full image is staged; returns True then."""
        if not self.has_full_image or self.got_code_time is not None:
            return False
        self.got_code_time = self.sim.now
        self.sim.tracer.emit("mnp.got_code", node=self.node_id,
                             parent=self.parent)
        return True

    def __repr__(self):
        state = "" if self.state is None else f" {self.state}"
        of = f"/{self.program.n_segments}" if self.program else ""
        return (f"<{type(self).__name__} {self.node_id}{state} "
                f"rvd={self.rvd_seg}{of}>")

    # ------------------------------------------------------------------
    # The staged image
    # ------------------------------------------------------------------
    @property
    def has_full_image(self):
        return (
            self.program is not None
            and self.rvd_seg == self.program.n_segments
        )

    def _reset_ledger(self, program):
        """Stage ``program`` from scratch: no segment received, no
        loss tracker, not complete."""
        self.program = program
        self._per_packet = None
        self.rvd_seg = 0
        self._seg_missing.clear()
        self.got_code_time = None

    def _missing_for(self, seg_id):
        """The (possibly partial) loss tracker for a segment, created on
        first use.  Persisting it across fail/retry is what guarantees
        each packet is requested -- and written to EEPROM -- only once."""
        missing = self._seg_missing.get(seg_id)
        if missing is None:
            missing = self._new_loss_tracker(seg_id)
            self._seg_missing[seg_id] = missing
        return missing

    def _new_loss_tracker(self, seg_id):
        """A fresh tracker for segment ``seg_id``: the in-RAM
        MissingVector, every packet still missing."""
        return BitVector.all_set(self.program.n_packets(seg_id))

    def _flash_key(self, seg_id, packet_id):
        """EEPROM key for one packet; version-qualified so an upgrade's
        packets never alias (or recount) the previous image's."""
        return (self.program.program_id, seg_id, packet_id)

    def _segment_keys(self, seg_id):
        return [self._flash_key(seg_id, pid)
                for pid in range(self.program.n_packets(seg_id))]

    def _image_keys(self):
        """The flash keys of the whole image, in image order."""
        for seg_id in range(1, self.program.n_segments + 1):
            yield from self._segment_keys(seg_id)

    def _packet_payload(self, seg_id, packet_id):
        return self.mote.eeprom.read(self._flash_key(seg_id, packet_id))

    def assemble_image(self, charged=False):
        """Read the received image back out of EEPROM (None if incomplete).

        Tests and the experiment harness use it to check the paper's
        *accuracy* requirement (the received image must be
        byte-identical), and their reads cost the node nothing.  The
        node's own bootloader reads with ``charged=True``.
        """
        if not self.has_full_image:
            return None
        eeprom = self.mote.eeprom
        read = eeprom.read if charged else eeprom.peek
        return b"".join(read(key) for key in self._image_keys())

    def verify_image(self):
        """CRC-check the staged image against the advertised CRC without
        installing (returns False while incomplete or on mismatch; True
        when intact, or complete with no CRC advertised)."""
        if not self.has_full_image:
            return False
        if self.program.image_crc is None:
            return True
        chunks = (self.mote.eeprom.read(key) for key in self._image_keys())
        return crc16_incremental(chunks) == self.program.image_crc

    def energy_nah(self):
        """Total charge consumed so far (Table 1 operation counting)."""
        return self._energy_model.node_energy_nah(
            self.mote.radio, self.mote.eeprom
        )

    def _per_packet_ms(self):
        """Expected time to put one data packet on the air, incl. the
        protocol's ``data_gap_ms`` pacing; worked out once per program
        (a coded frame's size depends on the segment length)."""
        if self._per_packet is None:
            sample = self._sample_data_packet()
            frame = Frame(self.node_id, sample, sample.wire_bytes())
            self._per_packet = frame.airtime_ms + self.data_gap_ms
        return self._per_packet

    def _segment_time_ms(self):
        """Expected time to put one full segment on the air."""
        packets = self.program.segment_packets if self.program else 128
        return packets * self._per_packet_ms()

    def _sample_data_packet(self):
        """A full-size data packet, as this protocol puts it on the air."""
        return DataPacket(self.node_id, 1, 0, b"\x00" * 23)

    # ------------------------------------------------------------------
    # Secure OTA pipeline (no-ops while security is disabled)
    # ------------------------------------------------------------------
    def configure_security(self, security, manifest=None):
        """Enable the secure OTA pipeline (:mod:`repro.core.auth`).

        Called by the deployment before :meth:`start`.  ``manifest`` is
        the signed :class:`~repro.core.auth.ImageManifest` the node
        verifies against; without one, a base station signs its own
        image and every other node learns the manifest later (the MNP
        family, from verified signed advertisements).  A ``None`` or
        disabled config is a no-op, keeping golden runs bit-identical.
        """
        if security is None or not security.enabled:
            return
        self.security = security
        if manifest is None and self._base_image is not None:
            from repro.core.auth import ImageManifest

            manifest = ImageManifest.of_image(self._base_image, security.key)
        self.manifest = manifest

    def _reject_version(self, source_id, version, reason):
        """Count and trace one refused version announcement; returns
        False so admission checks can return it."""
        self.auth_rejects += 1
        self.sim.tracer.emit(
            "auth.reject", node=self.node_id, source=source_id,
            version=version, reason=reason,
        )
        return False

    def _verify_segment(self, seg_id, decoded_packets=None):
        """Security-on digest check of a completed segment, run *before*
        the segment is accepted; on a mismatch the segment is
        quarantined and False returned.  The packets are read back from
        flash, or -- for a coded generation, decoded but not yet flushed
        -- taken from ``decoded_packets()``, called only while armed."""
        if self.security is None or self.manifest is None:
            return True
        if decoded_packets is not None:
            packets = decoded_packets()
        else:
            try:
                packets = [self.mote.eeprom.read(key)
                           for key in self._segment_keys(seg_id)]
            except KeyError:
                packets = None
        if packets is not None \
                and self.manifest.verify_segment(seg_id, packets):
            return True
        self._quarantine_segment(seg_id)
        return False

    def _quarantine_segment(self, seg_id):
        """Discard a tampered segment: the staged EEPROM bytes and the
        loss tracker both go, so the segment is re-requested whole
        instead of re-verifying the same bad bytes.  A tampered coded
        packet poisons the whole decoder matrix, so a coded generation
        goes the same way."""
        self.quarantines += 1
        self.mote.eeprom.discard(self._segment_keys(seg_id))
        self._seg_missing.pop(seg_id, None)
        self.sim.tracer.emit(
            "auth.quarantine", node=self.node_id, seg=seg_id,
        )

    def _quarantine_image(self):
        """Discard the whole staged image after a bootloader signature or
        digest rejection; dissemination restarts from segment one."""
        if self.program is None:
            return
        self.quarantines += 1
        self.mote.eeprom.discard(self._image_keys())
        self._seg_missing.clear()
        self.rvd_seg = 0
        self.got_code_time = None
        self.sim.tracer.emit(
            "auth.quarantine", node=self.node_id, seg=0,
        )

    def install_signal(self):
        """External start signal (§3.5): verify and install the staged
        image through the bootloader; returns True if the node rebooted
        into the new program.

        With security enabled the bootloader additionally demands the
        signed manifest's digest and signature; a rejected image is
        quarantined (staged bytes discarded, progress reset) so the node
        re-requests a clean copy instead of re-verifying the same
        tampered bytes forever."""
        if not self.has_full_image:
            return False
        secured = self.security is not None and self.manifest is not None
        result = self.mote.bootloader.install(
            self.program.program_id,
            self.assemble_image(charged=True),
            expected_crc=self.program.image_crc,
            manifest=self.manifest if secured else None,
            key=self.security.key if secured else None,
        )
        if result in (InstallResult.BAD_SIGNATURE,
                      InstallResult.DIGEST_MISMATCH):
            self._quarantine_image()
            return False
        if result != InstallResult.OK:
            return False
        self.mote.reboot()
        return True


class CodedImage:
    """The network-coded data plane, mixed in ahead of a protocol's node
    class (``class CodedMNPNode(CodedImage, MNPNode)``).

    Each segment is one generation.  A receiver tracks its decoder rank
    instead of a per-packet bitmap; a sender streams random linear
    combinations of the whole segment, buffered in RAM once per
    (program, segment) and drawn from the node's own labelled stream
    ``derive_rng(seed, "coding", node, program, segment)``, so stock
    runs never create one.  A generation that decodes is digest-checked
    (security on) and flushed to flash exactly once per packet.  The
    protocol's control plane stays its own; it decides only how many
    coded packets a round sends and what a failed generation means.

    Its two attributes, ``_encoders`` and ``_coded_remaining``, are
    declared in each coded node class's ``__slots__``: two bases with
    non-empty slots cannot share a subclass.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        self._encoders = {}  # (program_id, seg_id) -> GenerationEncoder
        self._coded_remaining = 0  # coded packets left in this round
        super().__init__(*args, **kwargs)

    def _new_loss_tracker(self, seg_id):
        return CodedSegmentTracker(self.program.n_packets(seg_id))

    def _next_coded_packet(self, seg_id):
        """A fresh random linear combination of segment ``seg_id``."""
        key = (self.program.program_id, seg_id)
        encoder = self._encoders.get(key)
        if encoder is None:
            # EEPROM reads are paid once per buffer fill rather than once
            # per coded packet.
            packets = [self._packet_payload(seg_id, pid)
                       for pid in range(self.program.n_packets(seg_id))]
            encoder = GenerationEncoder(
                packets,
                derive_rng(self.mote.seed, "coding", self.node_id,
                           self.program.program_id, seg_id),
            )
            self._encoders[key] = encoder
        coeffs, payload = encoder.next_coded()
        return CodedDataPacket(self.node_id, seg_id, coeffs, payload,
                               tail_len=encoder.tail_len)

    def _next_round_packet(self, seg_id):
        """This round's next coded packet of ``seg_id``, or None once
        ``_coded_remaining`` is spent."""
        if self._coded_remaining <= 0:
            return None
        self._coded_remaining -= 1
        return self._next_coded_packet(seg_id)

    def _absorb(self, msg):
        """Feed one coded packet to its segment's decoder; once the
        generation decodes, check it and flush it to flash.

        Returns ``(innovative, flushed, failure)``: whether the rank
        grew, whether decoded packets reached flash, and why a decoded
        generation was not flushed, or None.  ``"generation digest
        mismatch"``: a tampered combination poisons the whole decoder
        matrix, so the generation was quarantined whole.  ``"eeprom
        write"``: the rank survives, so a retry needs only the flush.
        """
        seg_id = msg.seg_id
        tracker = self._missing_for(seg_id)
        innovative = tracker.absorb(msg.coeffs, msg.payload, msg.tail_len)
        if not tracker.decoded or tracker.is_empty():
            return innovative, False, None
        if not self._verify_segment(seg_id, tracker.decoded_packets):
            return innovative, False, "generation digest mismatch"
        try:
            flushed = tracker.flush(
                lambda pid, data: self.mote.eeprom.write(
                    self._flash_key(seg_id, pid), data
                )
            )
        except EepromError:
            return innovative, False, "eeprom write"
        return innovative, flushed, None

    def _sample_data_packet(self):
        """Honest coded airtime: the coefficient header rides every frame."""
        n = self.program.segment_packets if self.program else 32
        return CodedDataPacket(
            self.node_id, 1, (0,) * n, b"\x00" * 23, tail_len=23,
        )

    def power_cycle(self):
        # A crash wipes the decoder matrices and the encoder buffers
        # (RAM); what was flushed to flash survives.  Re-seed each
        # tracker with unit-vector rows read back from flash.
        for seg_id, tracker in self._seg_missing.items():
            tracker.reboot(
                lambda pid, seg=seg_id: self._packet_payload(seg, pid)
            )
        self._encoders.clear()
        super().power_cycle()
