"""Sharing one MAC between protocols.

A real mote runs the reprogramming service *and* its application on one
radio stack; TinyOS dispatches incoming packets by Active Message type.
:class:`ProtocolMux` reproduces that: each client claims a set of payload
classes, and the mux routes ``on_receive`` / ``on_send_done`` callbacks
accordingly.  Outgoing traffic needs no routing -- clients call
``mote.mac.send`` directly and the MAC's FIFO interleaves them.

Attach the mux *after* constructing the clients (each protocol installs
its own hooks in its constructor; the mux takes them over).
"""


class MuxError(RuntimeError):
    """Conflicting payload-type claims."""


class ProtocolMux:
    """Type-dispatching demultiplexer over one mote's MAC."""

    def __init__(self, mote):
        self.mote = mote
        self._receive_by_type = {}
        self._send_done_by_type = {}
        self.unclaimed_frames = 0
        mote.mac.on_receive = self._on_receive
        mote.mac.on_send_done = self._on_send_done

    def attach(self, payload_types, on_frame, on_send_done=None):
        """Claim ``payload_types`` (classes) for a client.

        ``on_frame(frame)`` receives whole frames; ``on_send_done(payload)``
        is optional.  Claiming an already-claimed type raises.
        """
        for cls in payload_types:
            if cls in self._receive_by_type:
                raise MuxError(f"{cls.__name__} already claimed")
            self._receive_by_type[cls] = on_frame
            if on_send_done is not None:
                self._send_done_by_type[cls] = on_send_done
        return self

    def attach_node(self, node, payload_types):
        """Attach a protocol object exposing ``_on_frame``/``_on_send_done``
        (the convention of MNPNode and the baselines)."""
        return self.attach(payload_types, node._on_frame,
                           node._on_send_done)

    # ------------------------------------------------------------------
    def _on_receive(self, frame):
        handler = self._receive_by_type.get(type(frame.payload))
        if handler is None:
            self.unclaimed_frames += 1
            return
        handler(frame)

    def _on_send_done(self, payload):
        handler = self._send_done_by_type.get(type(payload))
        if handler is not None:
            handler(payload)
