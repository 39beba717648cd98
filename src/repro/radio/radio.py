"""The radio device: power state and time accounting.

The radio is the dominant energy consumer on a Mica-2 mote, and the paper's
headline metric -- *active radio time* -- is simply the time a node's radio
spends switched on.  This class therefore keeps exact integrals of time
spent on, transmitting, and receiving, which the metrics layer later
converts to energy using the Table 1 constants.

State changes are driven by the MAC/protocol (on/off) and by the
:class:`repro.radio.channel.Channel` (tx/rx bookkeeping).
"""


class RadioState:
    OFF = "off"
    IDLE = "idle"
    TX = "tx"
    RX = "rx"


class Radio:
    """Power-state model of one node's transceiver."""

    def __init__(self, sim, node_id, power_level=255):
        self.sim = sim
        self.node_id = node_id
        self.power_level = power_level
        self.is_on = False
        self.transmitting = False
        self._on_since = None
        self._rx_since = None
        self._rx_count = 0  # overlapping audible receptions
        # Accumulated integrals (ms)
        self._on_ms = 0.0
        self._tx_ms = 0.0
        self._rx_ms = 0.0
        # Counters
        self.frames_sent = 0
        self.frames_received = 0  # successfully decoded
        self.frames_corrupted = 0  # lost to collisions at this receiver
        self.frames_bit_errors = 0  # lost to channel bit errors
        self.on_off_transitions = 0
        # Channel back-reference, set by Channel.attach().
        self.channel = None
        # Hook invoked with each successfully decoded frame.
        self.on_frame = None

    # ------------------------------------------------------------------
    # Power control
    # ------------------------------------------------------------------
    def turn_on(self):
        if self.is_on:
            return
        self.is_on = True
        self.on_off_transitions += 1
        self._on_since = self.sim.now

    def turn_off(self):
        """Switch the radio off; any in-flight receptions are lost and an
        in-progress transmission is aborted at the channel."""
        if not self.is_on:
            return
        # Let the channel close out this node's in-flight receptions (one
        # rx_ended per open reception) and abort any transmission *before*
        # the local state is torn down, so time integrals stay exact.
        if self.channel is not None:
            self.channel.radio_went_off(self)
        # Safety net for radios used without a channel attached.
        self._close_rx_interval()
        self._rx_count = 0
        self._on_ms += self.sim.now - self._on_since
        self._on_since = None
        self.is_on = False
        self.on_off_transitions += 1
        self.transmitting = False

    # ------------------------------------------------------------------
    # Channel-driven bookkeeping
    # ------------------------------------------------------------------
    def tx_finished(self, airtime_ms):
        self.transmitting = False
        self._tx_ms += airtime_ms
        self.frames_sent += 1

    def rx_began(self):
        if self._rx_count == 0:
            self._rx_since = self.sim.now
        self._rx_count += 1

    def rx_ended(self):
        if self._rx_count <= 0:
            return
        self._rx_count -= 1
        if self._rx_count == 0:
            # The interval rx_began opened closes here, inline.
            self._rx_ms += self.sim.now - self._rx_since
            self._rx_since = None

    def deliver(self, frame):
        """Called by the channel when a frame decodes successfully."""
        self.frames_received += 1
        if self.on_frame is not None:
            self.on_frame(frame)

    def _close_rx_interval(self):
        if self._rx_since is not None:
            self._rx_ms += self.sim.now - self._rx_since
            self._rx_since = None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def on_time_ms(self):
        """Total time the radio has been on, up to the current instant."""
        total = self._on_ms
        if self.is_on:
            total += self.sim.now - self._on_since
        return total

    def tx_time_ms(self):
        return self._tx_ms

    def rx_time_ms(self):
        total = self._rx_ms
        if self._rx_since is not None:
            total += self.sim.now - self._rx_since
        return total

    def idle_listen_ms(self):
        """Radio-on time spent neither transmitting nor receiving.  Not
        clamped: tx and rx intervals lie inside the on-time and do not
        overlap (half duplex, carrier sense), so it is never negative."""
        return self.on_time_ms() - self._tx_ms - self.rx_time_ms()

    def __repr__(self):
        state = RadioState.OFF
        if self.is_on:
            if self.transmitting:
                state = RadioState.TX
            elif self._rx_count:
                state = RadioState.RX
            else:
                state = RadioState.IDLE
        return f"<Radio node={self.node_id} {state} power={self.power_level}>"
