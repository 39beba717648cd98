"""Shared machinery for the baseline protocol implementations.

All baselines disseminate the same :class:`repro.core.segments.CodeImage`
(pages == segments) and store packets in the mote's EEPROM.  Unlike MNP
they keep the radio on for the whole run, which is precisely the behaviour
the paper's energy comparison exploits.

The staged image itself -- ledger, flash keys, install path and the
secure-OTA checks -- and the run milestones (sender, parent, got-code),
reported under the same ``mnp.*`` trace names as MNP's, are
:class:`repro.core.image_node.ImageNode`'s, as they are for MNP.
"""

from repro.core.image_node import ImageNode, ProgramInfo
from repro.hardware.eeprom import EepromError


class Announcement:
    """A node announces a program: its version and the image geometry.

    Each baseline's announcement is a named subclass, so ``tx_log`` keeps
    its message kind, and :meth:`BaselineNode._adopt_version` reads them
    all alike.  Subclasses append their own slots after these.
    """

    __slots__ = ("source_id", "program_id", "n_segments", "segment_packets",
                 "last_seg_packets")

    def __init__(self, source_id, program_id, n_segments, segment_packets,
                 last_seg_packets):
        self.source_id = source_id
        self.program_id = program_id
        self.n_segments = n_segments
        self.segment_packets = segment_packets
        self.last_seg_packets = last_seg_packets

    @classmethod
    def of_node(cls, node, *extra):
        """``node``'s announcement of its program, plus ``extra`` fields."""
        program = node.program
        return cls(node.node_id, program.program_id, program.n_segments,
                   program.segment_packets, program.last_seg_packets, *extra)

    def wire_bytes(self):
        return 2 + 1 + 1 + 1 + 1


class BaselineNode(ImageNode):
    """Common receiver-side store, version adoption and progress
    reporting.

    Secure OTA: baselines have no authenticated control channel, so the
    signed manifest is *pre-provisioned* by the deployment (a few hundred
    bytes, flashed alongside the golden image); version admission and all
    content checks verify against it.

    Baselines are the paper's fixed comparators: their parameters are
    class constants, and a node takes no protocol config.
    """

    __slots__ = ()

    #: Pause between the data frames of a stream (ms), the same for
    #: every baseline.
    data_gap_ms = 15.0

    def __init__(self, mote, config=None, image=None, state=None):
        if config is not None:
            raise TypeError(
                f"{type(self).__name__} takes no protocol config; "
                f"its parameters are class constants")
        super().__init__(mote, image=image, state=state)

    # ------------------------------------------------------------------
    def store_packet(self, seg_id, packet_id, payload):
        """Store a packet if new; returns True when it was new.

        Fault-tolerant: a corrupted out-of-range packet id is dropped,
        and a flash write failure leaves the packet marked missing so
        the protocol's normal loss recovery re-requests it.
        """
        if self.program is None or \
                not 1 <= seg_id <= self.program.n_segments:
            return False
        missing = self._missing_for(seg_id)
        if not 0 <= packet_id < missing.n:
            return False
        if not missing.test(packet_id):
            return False
        try:
            self.mote.eeprom.write(self._flash_key(seg_id, packet_id),
                                   payload)
        except EepromError:
            return False
        missing.clear(packet_id)
        return True

    def send(self, msg):
        """Broadcast ``msg`` unless the radio is down.

        Baselines drive their transmit paths from raw simulator events
        (e.g. Deluge's Trickle timer), which keep firing through an
        injected crash or brownout; on real hardware those frames simply
        never leave the antenna.  Returns True when the frame was sent.
        """
        if not self.mote.radio.is_on:
            return False
        self.mote.mac.send(msg, msg.wire_bytes())
        return True

    def segment_complete(self, seg_id):
        return seg_id in self._seg_missing and self._seg_missing[seg_id].is_empty()

    def advance_progress(self):
        """Advance ``rvd_seg`` over every consecutively completed segment,
        emitting progress traces; returns True if this call got the code.

        With security enabled every segment is digest-checked against the
        pre-provisioned manifest before it is accepted; a mismatch
        quarantines the segment and stops the advance, so the protocol's
        normal loss recovery re-requests it from scratch."""
        advanced = False
        while (
            self.rvd_seg < self.program.n_segments
            and self.segment_complete(self.rvd_seg + 1)
        ):
            if not self._verify_segment(self.rvd_seg + 1):
                break
            self.rvd_seg += 1
            advanced = True
            self.sim.tracer.emit(
                "mnp.got_segment", node=self.node_id, seg=self.rvd_seg,
                parent=self.parent,
            )
        return advanced and self._report_got_code()

    # ------------------------------------------------------------------
    # Version adoption
    # ------------------------------------------------------------------
    def _adopt_version(self, msg):
        """Adopt the program ``msg`` announces if it is newer than ours
        (or we have none) and :meth:`_accepts_version` admits it; returns
        True when it was adopted.

        ``msg`` is any baseline :class:`Announcement`.  Staging restarts from
        segment one, and :meth:`_stop_sending_old_version` stops whatever
        was being sent of the version we held."""
        if self.program is not None \
                and msg.program_id <= self.program.program_id:
            return False
        if not self._accepts_version(msg.program_id, msg.source_id):
            return False
        self._reset_ledger(ProgramInfo(
            msg.program_id, msg.n_segments, msg.segment_packets,
            msg.last_seg_packets,
        ))
        self._stop_sending_old_version()
        return True

    def _stop_sending_old_version(self):
        """Hook: a newer version was adopted, so stop serving the old one
        (its flash keys are not the new version's).  Protocols whose
        receivers never send data need nothing here."""

    def _accepts_version(self, program_id, source_id):
        """Version admission under security: only the manifest's exact
        program id is legitimate, and it must beat the running version
        (rollback refusal).  Always True while security is off."""
        if self.security is None:
            return True
        if (
            self.manifest is not None
            and program_id == self.manifest.program_id
            and program_id > self.mote.bootloader.running_program_id
        ):
            return True
        return self._reject_version(source_id, program_id, "version")
