"""Regression tests for event-queue and channel accounting bugs.

Four bugs, each with a pinned reproduction:

* cancelling an event that already fired used to decrement the queue's
  live count, making ``run()`` stop with live events still pending;
* switching a radio off mid-reception used to drop the in-flight
  receptions without closing the rx interval accounting;
* frame decode used ``random() <= success_p``, so a saturated link
  (``success_p == 0``) could still deliver when the RNG drew exactly 0.0;
* the finish event of an aborted frame used to evict the sender's next
  frame from the channel's active set, so switching the radio off again
  no longer aborted that frame.

Plus the hot-path guarantee the parallel runner leans on: resolving a
transmission touches only the sender's audible neighbors, never every
node's reception table.
"""

from repro.net.loss_models import PerfectLossModel
from repro.net.topology import Topology
from repro.radio.channel import Channel
from repro.radio.packet import Frame
from repro.radio.propagation import PropagationModel
from repro.radio.radio import Radio
from repro.sim.kernel import Simulator


def build(positions, loss=None, full_range=60.0, seed=1):
    sim = Simulator(seed=seed)
    topo = Topology(positions)
    channel = Channel(sim, topo, loss or PerfectLossModel(),
                      PropagationModel.outdoor(full_range), seed=seed)
    radios = []
    for i in topo.node_ids():
        radio = Radio(sim, i)
        channel.attach(radio)
        radios.append(radio)
    return sim, channel, radios


# ----------------------------------------------------------------------
# Bug 1: stale cancel corrupting the event queue's live count
# ----------------------------------------------------------------------
def test_cancel_after_fire_is_true_noop():
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    sim.run(until=1.5)
    assert fired == [1]
    assert sim.pending == 1  # the first event fired; the second waits

    sim.cancel(first)  # stale: the event already executed
    assert sim.pending == 1

    sim.run()
    assert fired == [1, 2]
    assert sim.pending == 0


def test_repeated_stale_cancels_do_not_undercount():
    sim = Simulator()
    events = [sim.schedule(float(i), lambda: None) for i in range(3)]
    sim.run(until=0.5)  # fires events[0] only
    for _ in range(10):
        sim.cancel(events[0])
    assert sim.pending == 2
    executed = sim.run()
    assert executed == 2
    assert sim.pending == 0


def test_timer_restart_after_fire_keeps_queue_consistent():
    # Timer.stop() on an already-fired event is the natural protocol-code
    # path into the stale-cancel bug.
    sim = Simulator()
    from repro.sim.timers import Timer

    fires = []
    timer = Timer(sim, lambda: fires.append(sim.now))
    timer.start(5.0)
    sim.run()
    assert fires == [5.0]
    timer.stop()  # timer cleared its handle on fire; stop is a no-op
    sim.schedule(1.0, fires.append, -1.0)
    assert sim.pending == 1
    sim.run()
    assert fires == [5.0, -1.0]
    assert sim.pending == 0


# ----------------------------------------------------------------------
# Bug 2: radio-off mid-reception leaking an open rx interval
# ----------------------------------------------------------------------
def test_radio_off_mid_reception_closes_rx_accounting():
    sim, channel, (a, b) = build([(0, 0), (10, 0)])
    a.turn_on()
    b.turn_on()
    airtime = channel.transmit(a, Frame(0, "payload", 50))
    off_at = airtime / 2
    sim.schedule(off_at, b.turn_off)
    sim.run()
    # The rx interval must end exactly when the radio went off, not leak.
    assert b.rx_time_ms() == off_at
    assert b._rx_since is None
    assert b._rx_count == 0
    assert not channel._receptions[b.node_id]


def test_radio_off_rx_time_stable_across_later_virtual_time():
    sim, channel, (a, b) = build([(0, 0), (10, 0)])
    a.turn_on()
    b.turn_on()
    airtime = channel.transmit(a, Frame(0, "payload", 50))
    sim.schedule(airtime / 2, b.turn_off)
    sim.run()
    measured = b.rx_time_ms()
    sim.schedule(1000.0, lambda: None)
    sim.run()  # advance the clock well past the off instant
    assert b.rx_time_ms() == measured
    assert b.idle_listen_ms() >= 0.0


def test_channel_radio_went_off_closes_each_open_reception():
    # Two senders audible at r; r's radio drops out of the channel while
    # both frames are in flight.  Both rx intervals must close.
    sim, channel, (a, r, c) = build([(0, 0), (30, 0), (60, 0)])
    for radio in (a, r, c):
        radio.turn_on()
    channel.transmit(a, Frame(0, "A", 50))
    channel.transmit(c, Frame(2, "C", 50))
    assert r._rx_count == 2
    channel.radio_went_off(r)  # direct channel-level drop
    assert r._rx_count == 0
    assert r._rx_since is None
    assert not channel._receptions[r.node_id]


# ----------------------------------------------------------------------
# Bug 3: zero success probability must never deliver
# ----------------------------------------------------------------------
class _SaturatedLossModel:
    """A link so bad every bit flips: success probability is exactly 0."""

    def ber(self, src, dst, distance, range_ft):
        return 1.0


class _ZeroRng:
    """random() returning exactly 0.0 -- the boundary the old <= hit."""

    def random(self):
        return 0.0


def test_zero_success_probability_never_delivers():
    sim, channel, (a, b) = build([(0, 0), (10, 0)],
                                 loss=_SaturatedLossModel())
    channel._rng = _ZeroRng()
    a.turn_on()
    b.turn_on()
    got = []
    b.on_frame = got.append
    channel.transmit(a, Frame(0, "x", 20))
    sim.run()
    assert got == []
    assert b.frames_received == 0
    assert b.frames_bit_errors == 1
    assert channel.bit_error_losses == 1


def test_certain_success_still_delivers():
    sim, channel, (a, b) = build([(0, 0), (10, 0)])
    channel._rng = _ZeroRng()  # strict < must keep success_p == 1 working
    a.turn_on()
    b.turn_on()
    got = []
    b.on_frame = got.append
    channel.transmit(a, Frame(0, "x", 20))
    sim.run()
    assert len(got) == 1


# ----------------------------------------------------------------------
# Bug 4: an aborted frame's finish event evicting the next frame
# ----------------------------------------------------------------------
def test_aborted_frame_finish_keeps_next_frame_abortable():
    # Frame 1 is aborted at 5 ms, frame 2 starts at 10 ms; frame 1's
    # finish event (22.5 ms) falls inside frame 2, which is then aborted
    # at 25 ms.  Neither frame may count as sent or reach the neighbour.
    sim, channel, (a, b) = build(Topology.grid(1, 2, 5.0).positions)
    a.turn_on()
    b.turn_on()
    airtime = channel.transmit(a, Frame(0, "first", 36))
    assert airtime == 22.5
    sim.schedule(5.0, a.turn_off)
    sim.schedule(6.0, a.turn_on)
    sim.schedule(10.0, lambda: channel.transmit(a, Frame(0, "second", 36)))
    sim.schedule(25.0, a.turn_off)
    sim.run()
    assert a.frames_sent == 0
    assert a.tx_time_ms() == 0.0
    assert b.frames_received == 0
    assert not channel._active
    assert all(count == 0 for count in channel._carrier.values())


# ----------------------------------------------------------------------
# Hot path: transmission resolution is O(degree), not O(network)
# ----------------------------------------------------------------------
class _TouchCountingDict(dict):
    """Records which node ids have their reception tables accessed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.touched = set()

    def __getitem__(self, key):
        self.touched.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.touched.add(key)
        return super().get(key, default)


def test_finish_transmission_touches_only_audible_neighbors():
    # 10x10 grid, 25 ft range at 10 ft spacing: a corner sender reaches a
    # handful of nodes; resolving its frame must not scan all 100 tables.
    sim = Simulator(seed=1)
    topo = Topology.grid(10, 10, 10.0)
    channel = Channel(sim, topo, PerfectLossModel(),
                      PropagationModel(25.0, 3.0), seed=1)
    radios = {}
    for i in topo.node_ids():
        radio = Radio(sim, i)
        channel.attach(radio)
        radio.turn_on()
        radios[i] = radio

    src = topo.corner_node("bottom-left")
    audible = set(channel.neighbors(src, radios[src].power_level))
    assert 0 < len(audible) < len(radios) / 2

    counting = _TouchCountingDict(channel._receptions)
    channel._receptions = counting
    channel.transmit(radios[src], Frame(src, "x", 20))
    sim.run()

    assert counting.touched <= audible
    assert len(counting.touched) <= len(audible)
