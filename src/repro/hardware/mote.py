"""The mote: one node's hardware bundle.

A :class:`Mote` wires together a radio, a CSMA MAC, an EEPROM, and a
battery, all attached to a shared simulator and channel.  Protocol
implementations (MNP, Deluge, ...) are written against this object; they
never talk to the channel directly.
"""

from functools import partial

from repro.hardware.battery import Battery
from repro.hardware.bootloader import Bootloader
from repro.hardware.eeprom import Eeprom
from repro.radio.mac import CsmaMac
from repro.radio.radio import Radio
from repro.sim.rng import derive_rng
from repro.sim.timers import Timer


class MoteConfig:
    """Hardware parameters shared by all motes in a deployment.

    ``power_level`` is the TinyOS transmit power (1..255).
    ``mac_factory`` swaps the medium-access layer: a callable
    ``(sim, radio, channel, seed) -> mac`` returning any object with the
    CsmaMac client surface (used to run MNP over TDMA, §6).  When None,
    the mote builds the CSMA MAC.  Every mote has the Mica-2's EEPROM and
    battery (the :class:`Eeprom` and :class:`Battery` defaults).
    """

    def __init__(self, power_level=255, mac_factory=None):
        self.power_level = power_level
        self.mac_factory = mac_factory


class Mote:
    """One sensor node's hardware."""

    def __init__(self, sim, channel, node_id, config=None, seed=0):
        config = config or MoteConfig()
        self.sim = sim
        self.node_id = node_id
        self.config = config
        # Kept so protocol layers can derive their own labelled RNG
        # streams (e.g. coded-MNP coefficient draws) off the run seed.
        self.seed = seed
        self.radio = Radio(sim, node_id, power_level=config.power_level)
        channel.attach(self.radio)
        self.channel = channel
        if config.mac_factory is not None:
            self.mac = config.mac_factory(sim, self.radio, channel, seed)
        else:
            self.mac = CsmaMac(sim, self.radio, channel, seed=seed)
        self.eeprom = Eeprom()
        self.battery = Battery()
        self.bootloader = Bootloader(sim=sim, node_id=node_id)
        self.rng = derive_rng(seed, "mote", node_id)
        self.rebooted_at = None
        # Fault model: a crashed mote is not alive.  Timers created via
        # new_timer() are guarded on this flag, so anything left armed
        # when the node dies is inert instead of mutating protocol state.
        self.alive = True
        self.crashed_at = None
        # The timers' guard: a C-level zero-argument callable reading
        # ``alive``, so a timer fire runs no Python frame to check it.
        self._alive_guard = partial(getattr, self, "alive")

    @property
    def position(self):
        return self.channel.topology.positions[self.node_id]

    def new_timer(self, callback, name=""):
        """Create a protocol timer bound to this mote's simulator.

        The timer is guarded on :attr:`alive`: a timer armed before the
        node crashed must not fire afterwards (its MCU is dead).
        """
        return Timer(self.sim, callback, name=f"n{self.node_id}:{name}",
                     guard=self._alive_guard)

    def reboot(self):
        """Record installation of the new image (driven by the external
        start signal, per section 3.5 of the paper)."""
        self.rebooted_at = self.sim.now

    def sleep_radio(self):
        """Turn the radio off and clear any pending MAC work."""
        self.mac.reset()
        self.radio.turn_off()

    def wake_radio(self):
        self.radio.turn_on()

    def kill(self):
        """Crash the node: radio off, MAC cleared, all guarded timers
        inert.  Armed timers are *not* cancelled -- they fire into the
        alive-guard and are suppressed, which is exactly the hygiene the
        fault tests assert (a forgotten timer on a dead node must not
        mutate protocol state).  Idempotent."""
        if not self.alive:
            return
        self.alive = False
        self.crashed_at = self.sim.now
        self.sleep_radio()

    def revive(self):
        """Power the node back up after a crash.  The protocol object is
        responsible for restarting itself (see ``ImageNode.power_cycle``);
        this only restores the hardware's liveness.  Idempotent."""
        self.alive = True

    def __repr__(self):
        return f"<Mote {self.node_id} @{self.position}>"
