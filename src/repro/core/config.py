"""All MNP tunables in one place, including the ablation switches.

Defaults follow the paper where it gives numbers and TinyOS-era practice
where it does not; each parameter's docline says which.  Times are in
milliseconds.
"""


class MNPConfig:
    """Protocol parameters for :class:`repro.core.mnp.MNPNode`.

    Parameters
    ----------
    advertise_count:
        K of Fig. 2: a source becomes a sender after K consecutive
        advertisements if it has at least one requester.
    adv_interval_ms:
        Base advertisement interval; actual intervals are drawn uniformly
        from [0.5, 1.5] x the current interval ("every random interval",
        §3.1.1).
    adv_backoff_factor / adv_interval_max_ms:
        When a full round of K advertisements draws no requests, the
        interval is multiplied by the factor up to the cap ("advertise with
        reduced frequency ... exponentially increase", §3.1.1), and reset
        to the base when demand reappears.
    request_delay_ms:
        A requester answers an advertisement after a uniform random delay
        in [0, request_delay_ms].  Without this jitter, two requesters
        hidden from each other collide at the source on *every* round and
        the source never accumulates requesters (the deferred-feedback
        idea of SRM/Trickle; §5 notes MNP's sender selection is likewise
        delay based).
    data_gap_ms:
        Pacing gap between consecutive data packets of a segment (covers
        the receiver's EEPROM write latency).
    sleep_factor:
        Sleep duration = factor x expected transmission time of one
        segment ("approximately the expected code transmission time",
        §3.1.1).
    download_timeout_factor:
        Download/update stall timeout = factor x expected segment
        transmission time ("wait for reasonably long time", §3.2).
    query_update:
        Selects between the two state machines of Fig. 4.
    repair_rounds:
        Maximum RepairRequest rounds in the update state before failing.
    lower_seg_min_requests:
        Threshold of §3.1.2 rule 4: a lower-segment advertiser with at
        least this many requesters preempts higher-segment sources.
    pipelining:
        If False, nodes advertise only once they hold the *entire* image
        (the basic protocol of §3.1.1); segments are still the unit of
        transfer.
    large_segments:
        §3.3 large-segment mode (requires ``pipelining=False``): the
        missing-packet bitmap moves to EEPROM
        (:class:`repro.core.loss_log.EepromMissingLog`), requests carry a
        (count, first-missing) summary instead of the bitmap, and senders
        stream the segment tail from the earliest loss.
    idle_sleep:
        When an advertising round of K advertisements draws no requests,
        nap (radio off) for the backed-off interval instead of idle
        listening through it.  This is the "nodes running MNP are put into
        sleep state occasionally and wake up when the sleeping timer
        fires" behaviour of §6, and it is what keeps steady-state energy
        low once a neighborhood is fully updated.
    sender_selection / sleep_on_loss / forward_vector:
        Ablation switches for the three design pillars: the ReqCtr
        competition, turning the radio off on losing/uninterested, and
        sending only requested packets.
    battery_aware_power:
        Future-work extension (§6): scale advertisement transmission power
        with remaining battery so depleted nodes attract fewer requesters
        and lose the competition.
    auto_reboot:
        §3.5: reboot as soon as the image completes instead of waiting for
        the external start signal.
    fail_backoff_base_ms / fail_backoff_factor / fail_backoff_max_ms:
        Bounded exponential backoff (with jitter) suppressing download
        requests after consecutive FAIL -> IDLE cycles, so a node cut
        off from every serviceable sender (a partition, a dead parent)
        does not hammer the channel with doomed requests forever.  After
        ``k`` consecutive fails, advertisements are ignored for
        ``min(base * factor**(k-1), max) * U[0.5, 1.5]`` ms; the first
        advertisement after the window is answered with the normal
        request jitter (the backoff gates *which* advertisement is
        answered -- delaying the answer itself would push it past an
        idle-sleeping source's post-advertisement listen window).  A
        completed segment resets the streak.  The default base of 0
        disables the
        mechanism entirely, matching pre-fault-layer behavior exactly
        (no extra delay *and* no extra RNG draws).
    """

    def __init__(
        self,
        advertise_count=3,
        adv_interval_ms=500.0,
        adv_backoff_factor=2.0,
        adv_interval_max_ms=60_000.0,
        request_delay_ms=120.0,
        data_gap_ms=15.0,
        sleep_factor=1.5,
        download_timeout_factor=1.5,
        query_update=False,
        repair_rounds=3,
        lower_seg_min_requests=1,
        idle_sleep=True,
        pipelining=True,
        large_segments=False,
        sender_selection=True,
        sleep_on_loss=True,
        forward_vector=True,
        battery_aware_power=False,
        auto_reboot=False,
        fail_backoff_base_ms=0.0,
        fail_backoff_factor=2.0,
        fail_backoff_max_ms=60_000.0,
    ):
        # Each check states what a valid value satisfies, so NaN (false
        # against every bound) fails it.
        if not advertise_count >= 1:
            raise ValueError("advertise_count must be >= 1")
        if not (adv_interval_ms > 0
                and adv_interval_max_ms >= adv_interval_ms):
            raise ValueError("invalid advertisement interval settings")
        if not adv_backoff_factor >= 1.0:
            raise ValueError("adv_backoff_factor must be >= 1")
        if not request_delay_ms >= 0:
            raise ValueError("request_delay_ms must be non-negative")
        if not data_gap_ms >= 0:
            raise ValueError("data_gap_ms must be non-negative")
        if not sleep_factor > 0:
            raise ValueError("sleep_factor must be positive")
        if not download_timeout_factor > 0:
            raise ValueError("download_timeout_factor must be positive")
        if not repair_rounds >= 0:
            raise ValueError("repair_rounds must be non-negative")
        if not fail_backoff_base_ms >= 0:
            raise ValueError("fail_backoff_base_ms must be non-negative")
        if not fail_backoff_factor >= 1.0:
            raise ValueError("fail_backoff_factor must be >= 1")
        if not fail_backoff_max_ms >= fail_backoff_base_ms:
            raise ValueError("fail_backoff_max_ms must be >= fail_backoff_base_ms")
        if large_segments and pipelining:
            raise ValueError(
                "large_segments requires pipelining=False (the paper uses "
                "large segments exactly where pipelining is not expected "
                "to help, §3.3)"
            )
        self.advertise_count = advertise_count
        self.adv_interval_ms = adv_interval_ms
        self.adv_backoff_factor = adv_backoff_factor
        self.adv_interval_max_ms = adv_interval_max_ms
        self.request_delay_ms = request_delay_ms
        self.data_gap_ms = data_gap_ms
        self.sleep_factor = sleep_factor
        self.download_timeout_factor = download_timeout_factor
        self.query_update = query_update
        self.repair_rounds = repair_rounds
        self.lower_seg_min_requests = lower_seg_min_requests
        self.idle_sleep = idle_sleep
        self.pipelining = pipelining
        self.large_segments = large_segments
        self.sender_selection = sender_selection
        self.sleep_on_loss = sleep_on_loss
        self.forward_vector = forward_vector
        self.battery_aware_power = battery_aware_power
        self.auto_reboot = auto_reboot
        self.fail_backoff_base_ms = fail_backoff_base_ms
        self.fail_backoff_factor = fail_backoff_factor
        self.fail_backoff_max_ms = fail_backoff_max_ms

    def replace(self, **overrides):
        """A copy with the given fields changed (for ablation sweeps)."""
        fields = dict(vars(self))
        unknown = set(overrides) - set(fields)
        if unknown:
            raise TypeError(f"unknown MNPConfig fields: {sorted(unknown)}")
        fields.update(overrides)
        return MNPConfig(**fields)
