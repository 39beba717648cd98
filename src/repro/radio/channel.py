"""The shared wireless medium.

The channel connects all radios over a :class:`repro.net.topology.Topology`.
It implements exactly the physical effects the paper's protocol design
responds to:

* **Broadcast**: a transmission reaches every node within the sender's
  power-dependent range.
* **Collisions**: if two audible transmissions overlap at a listening
  receiver, *both* frames are corrupted there.  Because carrier sense is
  performed at the sender (see :class:`repro.radio.mac.CsmaMac`), two
  senders out of range of each other can still destroy packets at a common
  receiver -- the hidden terminal problem that MNP's sender selection
  attacks.
* **Bit errors**: a frame that survives collisions is decoded with
  probability ``(1 - ber) ** (8 * on_air_bytes)`` where the per-directed-
  edge BER comes from the loss model (asymmetric lossy links, as in
  TOSSIM).
* **Airtime**: frames occupy the medium for ``on_air_bytes * 8 / bitrate``
  (19.2 kbps for the Mica-2 CC1000), worked out once per frame
  (:attr:`repro.radio.packet.Frame.airtime_ms`).

Energy-relevant bookkeeping (tx/rx time, successful receptions, collision
counts) is pushed into the radios.  The channel is the single source of
per-frame facts: :attr:`Channel.tx_log` holds every transmission started,
:attr:`Channel.collisions` every corrupted reception, and each radio's
``frames_received`` every decoded frame; the metrics layer reads these
directly.  ``radio.tx``, ``radio.rx`` and ``channel.collision`` trace
records are emitted only when something subscribes to them (trace export,
tests).

Hot-path structure (all O(1) in network size, like TOSSIM's
closest-point-of-approach optimization of per-bit simulation):

* carrier sense reads a per-node *audible-carrier counter* maintained at
  transmission start/finish/abort instead of scanning active
  transmissions (``tests/test_hotpath_differential.py`` checks it
  against that scan after every event);
* per-directed-edge BER and per-``(edge, frame size)`` decode
  probabilities are cached when the loss model is static
  (``is_time_varying`` is False), the latter as one ``{dst: P(decode)}``
  table per ``(src, range, frame size)`` that a frame fetches once;
  time-varying models take the uncached path (both paths are
  bit-identical);
* an in-flight reception is recorded as the ``_Transmission`` itself
  (``_receptions[dst][src]``), and a collision marks ``dst`` in that
  transmission's ``corrupted`` set, so opening a reception builds no
  object;
* a frame reads its sender's ``(range, listeners)`` in one lookup: the
  pair is cached as one tuple per ``(node, power level)`` (the topology
  is static and ``PropagationModel.range_ft`` a pure function), so a
  frame's range and its listeners can never disagree.
"""

from types import MappingProxyType

from repro.sim.rng import derive_rng


class _Transmission:
    __slots__ = ("src", "frame", "start", "end", "range_ft", "aborted",
                 "receivers", "listeners", "corrupted")

    def __init__(self, src, frame, start, end, range_ft, listeners):
        self.src = src
        self.frame = frame
        self.start = start
        self.end = end
        self.range_ft = range_ft
        self.aborted = False
        # Node ids where a reception was opened for this frame; resolution
        # only ever touches these (O(degree), not O(network size)).
        self.receivers = []
        # Every node the carrier is audible at (the cached neighbor list;
        # never mutated).  Carrier counters are incremented for each entry
        # at start and released exactly once on finish or abort.
        self.listeners = listeners
        # Receivers where this frame collided (a set, created at the
        # first collision; most frames never collide).
        self.corrupted = None


class Channel:
    """Wireless medium over a fixed topology."""

    def __init__(
        self,
        sim,
        topology,
        loss_model,
        propagation,
        seed=0,
    ):
        self.sim = sim
        self.topology = topology
        self.propagation = propagation
        self._rng = derive_rng(seed, "channel")
        self._radios = {}
        # (node id, power level) -> (range_ft, nodes within that range)
        self._reach = {}
        self._active = {}  # src node id -> _Transmission
        # dst node id -> {src id: the _Transmission being received there}
        self._receptions = {}
        # node id -> number of foreign transmissions currently audible
        # there (pre-populated with zeros so the hot paths use plain
        # indexing).  This is what carrier_busy reads.
        self._carrier = {nid: 0 for nid in topology.node_ids()}
        # Static link budgets (see the loss_model property).
        self._ber_cache = {}  # (src, dst, range_ft) -> BER
        # (src, range_ft, bytes) -> {dst: P(decode)}
        self._decode_cache = {}
        self.loss_model = loss_model
        # Per-frame facts (for metrics, figures and tests): one
        # ``(time, src, payload kind)`` per transmission started, aborted
        # ones included, and one count per corrupted reception.
        self.tx_log = []
        self.collisions = 0
        self.bit_error_losses = 0
        # Hot-path counters (for the profiling harness)
        self.carrier_polls = 0
        self.link_cache_hits = 0
        self.link_cache_misses = 0
        # Fault layer: optional per-delivery hook ``fn(frame, dst)`` run
        # after a frame wins its decode draw and before delivery.  It
        # returns the frame (possibly a corrupted clone; see
        # ``Frame.clone_with_payload``) or None to drop it (a corruption
        # the link-layer CRC caught).  The hook must draw randomness
        # only from its own derived stream so a no-op hook leaves runs
        # bit-identical.
        self.decode_hook = None

    # ------------------------------------------------------------------
    # Loss model / link cache
    # ------------------------------------------------------------------
    @property
    def loss_model(self):
        return self._loss_model

    @loss_model.setter
    def loss_model(self, model):
        """Swap the loss model; link budgets are recomputed lazily.

        Caching is enabled only for static models
        (``model.is_time_varying`` is False); a model without the
        attribute is conservatively treated as time-varying.
        """
        self._loss_model = model
        self._ber_cache.clear()
        self._decode_cache.clear()
        self._link_cache_enabled = not getattr(model, "is_time_varying",
                                               True)

    @property
    def link_cache_enabled(self):
        """Whether per-edge link budgets are being cached."""
        return self._link_cache_enabled

    def _decode_probability(self, src, dst, range_ft, on_air_bytes):
        """P(frame decodes) on the directed edge -- identical math on the
        cached and uncached paths, so metrics are bit-identical."""
        if self._link_cache_enabled:
            key = (src, dst, range_ft)
            ber = self._ber_cache.get(key)
            if ber is None:
                ber = self._loss_model.ber(
                    src, dst, self.topology.distance(src, dst), range_ft
                )
                self._ber_cache[key] = ber
        else:
            ber = self._loss_model.ber(
                src, dst, self.topology.distance(src, dst), range_ft
            )
        return (1.0 - ber) ** (8 * on_air_bytes)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def attach(self, radio):
        """Register a radio; its node id must exist in the topology."""
        if radio.node_id not in self.topology.node_ids():
            raise ValueError(f"node {radio.node_id} not in topology")
        self._radios[radio.node_id] = radio
        radio.channel = self
        self._receptions.setdefault(radio.node_id, {})

    @property
    def radios(self):
        """node id -> attached radio (a read-only view)."""
        return MappingProxyType(self._radios)

    def _reach_of(self, node_id, power_level):
        """``(range_ft, nodes within it)`` for ``node_id`` transmitting at
        ``power_level``, cached as one tuple (topology is static)."""
        range_ft = self.propagation.range_ft(power_level)
        reach = self._reach[node_id, power_level] = (
            range_ft, self.topology.nodes_within(node_id, range_ft))
        return reach

    def neighbors(self, node_id, power_level):
        """Nodes within range of ``node_id`` transmitting at ``power_level``
        (cached; topology is static).  Callers must not mutate the list."""
        return (self._reach.get((node_id, power_level))
                or self._reach_of(node_id, power_level))[1]

    # ------------------------------------------------------------------
    # Carrier sense
    # ------------------------------------------------------------------
    def carrier_busy(self, node_id):
        """True if the node's own radio is transmitting or any active
        transmission is audible at the node.  One dict lookup; the
        counters are maintained by transmit/finish/abort."""
        self.carrier_polls += 1
        if self._radios[node_id].transmitting:
            return True
        return self._carrier[node_id] > 0

    def _release_carrier(self, tx):
        """Decrement the audible-carrier counter at every listener;
        called exactly once per transmission (finish or abort)."""
        carrier = self._carrier
        for dst in tx.listeners:
            carrier[dst] -= 1

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    @property
    def transmissions(self):
        """Transmissions started so far (``len(tx_log)``)."""
        return len(self.tx_log)

    def transmit(self, radio, frame, on_done=None):
        """Put a frame on the air from ``radio``.

        Returns the airtime in ms.  ``on_done`` is invoked (with no
        arguments) when the transmission completes.
        """
        src = radio.node_id
        if not radio.is_on:
            raise RuntimeError(f"node {src}: transmit with radio off")
        if src in self._active:
            raise RuntimeError(f"node {src}: already transmitting")
        airtime = frame.airtime_ms
        range_ft, listeners = (self._reach.get((src, radio.power_level))
                               or self._reach_of(src, radio.power_level))
        now = self.sim.now
        tx = _Transmission(src, frame, now, now + airtime, range_ft,
                           listeners)
        self._active[src] = tx
        radio.transmitting = True
        kind = type(frame.payload).__name__
        self.tx_log.append((now, src, kind))
        tracer = self.sim.tracer
        if tracer.watches("radio.tx"):
            tracer.emit(
                "radio.tx",
                node=src,
                kind=kind,
                bytes=frame.on_air_bytes,
                power=radio.power_level,
            )
        # The carrier becomes audible at every in-range node; reception
        # additionally begins at the ones that are listening -- the loop
        # runs once per listener per frame.
        carrier = self._carrier
        radios = self._radios
        receptions = self._receptions
        receivers_append = tx.receivers.append
        for dst in listeners:
            carrier[dst] += 1
            receiver = radios.get(dst)
            if receiver is None or not receiver.is_on or receiver.transmitting:
                continue
            ongoing = receptions[dst]
            if ongoing:
                self._collide(tx, dst, ongoing)
            ongoing[src] = tx
            receivers_append(dst)
            receiver.rx_began()
        self.sim.schedule(airtime, self._finish_transmission, tx, on_done)
        return airtime

    def _collide(self, tx, dst, ongoing):
        """``tx`` starts at ``dst`` while ``ongoing`` frames are in flight
        there: the overlap corrupts every one of them at ``dst``."""
        tracer = self.sim.tracer
        watched = tracer.watches("channel.collision")
        for other in ongoing.values():
            if other.corrupted is None:
                other.corrupted = set()
            elif dst in other.corrupted:
                continue
            other.corrupted.add(dst)
            self.collisions += 1
            if watched:
                tracer.emit("channel.collision", node=dst, src=other.src,
                            other_src=tx.src)
        if tx.corrupted is None:
            tx.corrupted = set()
        tx.corrupted.add(dst)
        self.collisions += 1
        if watched:
            tracer.emit("channel.collision", node=dst, src=tx.src,
                        other_src=next(iter(ongoing.values())).src)

    def _finish_transmission(self, tx, on_done):
        if tx.aborted:
            # radio_went_off already took it out of ``_active``, released
            # its carrier and closed its receptions; by now its sender
            # may be on the air with a newer frame, which must stay.
            return
        src = tx.src
        del self._active[src]
        carrier = self._carrier  # _release_carrier, inline
        for dst in tx.listeners:
            carrier[dst] -= 1
        radios = self._radios
        radios[src].tx_finished(self.sim.now - tx.start)
        # Resolve receptions at the nodes this frame actually reached --
        # never scan the whole network's reception tables.  Per-frame
        # invariants, the frame's decode probabilities among them, are
        # hoisted out of the receiver loop.
        frame = tx.frame
        range_ft = tx.range_ft
        corrupted = tx.corrupted
        frame_bytes = frame.on_air_bytes
        receptions = self._receptions
        cache_enabled = self._link_cache_enabled
        if cache_enabled:
            key = (src, range_ft, frame_bytes)
            decode_p = self._decode_cache.get(key)
            if decode_p is None:
                decode_p = self._decode_cache[key] = {}
        random = self._rng.random
        tracer = self.sim.tracer
        rx_watched = tracer.watches("radio.rx")
        for dst in tx.receivers:
            ongoing = receptions[dst]
            if ongoing.get(src) is not tx:
                # Dropped earlier (the receiver turned off mid-frame);
                # nothing to resolve.
                continue
            del ongoing[src]
            receiver = radios[dst]
            receiver.rx_ended()
            if corrupted is not None and dst in corrupted:
                receiver.frames_corrupted += 1
                continue
            if cache_enabled:
                success_p = decode_p.get(dst)
                if success_p is None:
                    success_p = decode_p[dst] = self._decode_probability(
                        src, dst, range_ft, frame_bytes
                    )
                    self.link_cache_misses += 1
                else:
                    self.link_cache_hits += 1
            else:
                success_p = self._decode_probability(
                    src, dst, range_ft, frame_bytes
                )
            # Strict <: random() can return exactly 0.0, which must not
            # deliver a frame whose success probability is zero.
            if random() < success_p:
                delivered = frame
                if self.decode_hook is not None:
                    delivered = self.decode_hook(frame, dst)
                    if delivered is None:
                        receiver.frames_bit_errors += 1
                        self.bit_error_losses += 1
                        continue
                if rx_watched:
                    tracer.emit(
                        "radio.rx",
                        node=dst,
                        src=src,
                        kind=type(frame.payload).__name__,
                        bytes=frame_bytes,
                    )
                receiver.deliver(delivered)
            else:
                receiver.frames_bit_errors += 1
                self.bit_error_losses += 1
        if on_done is not None:
            on_done()

    # ------------------------------------------------------------------
    # Radio lifecycle hooks
    # ------------------------------------------------------------------
    def radio_went_off(self, radio):
        """A radio switched off: abort its transmission and drop its
        in-flight receptions."""
        node = radio.node_id
        tx = self._active.pop(node, None)
        if tx is not None:
            tx.aborted = True
            # The carrier vanishes everywhere at once.
            self._release_carrier(tx)
            # Receivers hear the carrier vanish; close their rx intervals now.
            for dst in tx.receivers:
                ongoing = self._receptions[dst]
                if ongoing.get(node) is tx:
                    del ongoing[node]
                    self._radios[dst].rx_ended()
        # Frames this node was receiving are lost -- close the rx interval
        # accounting for each before dropping, or the radio's energy
        # bookkeeping (Table 1 / Fig. 8) would leak an open rx interval.
        own = self._receptions[node]
        for _ in range(len(own)):
            radio.rx_ended()
        own.clear()
