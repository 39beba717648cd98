"""Restartable one-shot timers.

Protocol code in this reproduction is written against timers the way TinyOS
components are: a timer is armed with a delay, may be restarted (which
cancels the pending expiry), and invokes a callback when it fires.  The
MNP state machine uses them for advertisement intervals, download
timeouts, sleep periods, and repair waits.

Timers accept an optional ``guard``: a zero-argument callable consulted at
fire time.  When it returns False the callback is suppressed (the timer
still disarms).  :meth:`repro.hardware.mote.Mote.new_timer` uses this to
keep timers of a crashed node from mutating protocol state -- a real
mote's timers die with its MCU, so a timer left armed across a node death
must be inert (see the fault-injection subsystem, ``repro.faults``).

Each fire (or suppression) is published on the tracer as ``timer.fire`` /
``timer.suppressed`` when watched, so the invariant watchdog can assert
that no timer callback ever runs on a dead node; unwatched runs pay one
predicate call per fire.
"""


class Timer:
    """A one-shot timer bound to a :class:`repro.sim.kernel.Simulator`.

    The callback is invoked with no arguments when the timer fires.  A timer
    may be freely restarted or stopped; only the most recent :meth:`start`
    can fire.  ``guard`` (optional) is evaluated at fire time; a falsy
    result suppresses the callback.
    """

    def __init__(self, sim, callback, name="", guard=None):
        self.sim = sim
        self.callback = callback
        self.name = name
        self.guard = guard
        self._entry = None  # the kernel handle of the pending expiry
        self._expire = self._fire  # bound once, not once per start

    @property
    def running(self):
        """True if the timer is armed and has not yet fired or been stopped."""
        return self._entry is not None

    @property
    def expiry(self):
        """Absolute fire time, or None when not running."""
        return self._entry[0] if self._entry is not None else None

    def start(self, delay):
        """Arm (or re-arm) the timer to fire ``delay`` ms from now."""
        entry = self.sim.schedule(delay, self._expire)
        if self._entry is not None:
            self.sim.cancel(self._entry)
        self._entry = entry

    def stop(self):
        """Disarm the timer; a no-op if it is not running."""
        if self._entry is not None:
            self.sim.cancel(self._entry)
            self._entry = None

    @staticmethod
    def stop_all(timers):
        """Disarm every running timer of ``timers`` in one call."""
        for timer in timers:
            if timer._entry is not None:
                timer.stop()

    def _fire(self):
        self._entry = None
        tracer = self.sim.tracer
        if self.guard is not None and not self.guard():
            if tracer.watches("timer.suppressed"):
                tracer.emit("timer.suppressed", name=self.name)
            return
        if tracer.watches("timer.fire"):
            tracer.emit("timer.fire", name=self.name)
        self.callback()

    def __repr__(self):
        state = f"fires@{self.expiry:.1f}" if self.running else "idle"
        return f"<Timer {self.name or id(self)} {state}>"
