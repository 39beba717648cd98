"""Tests for MNPConfig validation and ablation copies."""

import math

import pytest

from repro.core.config import MNPConfig


def test_defaults_are_sane():
    cfg = MNPConfig()
    assert cfg.advertise_count >= 1
    assert cfg.pipelining
    assert cfg.sender_selection
    assert cfg.sleep_on_loss
    assert cfg.forward_vector
    assert not cfg.query_update
    assert not cfg.battery_aware_power
    assert not cfg.auto_reboot


@pytest.mark.parametrize("field,value", [
    ("advertise_count", 0),
    ("adv_interval_ms", 0.0),
    ("adv_backoff_factor", 0.5),
    ("data_gap_ms", -1.0),
    ("sleep_factor", 0.0),
    ("download_timeout_factor", 0.0),
    ("repair_rounds", -1),
])
def test_validation_rejects_bad_values(field, value):
    with pytest.raises(ValueError):
        MNPConfig(**{field: value})


#: Every numeric field with a range check.
CHECKED_FIELDS = (
    "advertise_count", "adv_interval_ms", "adv_backoff_factor",
    "adv_interval_max_ms", "request_delay_ms", "data_gap_ms",
    "sleep_factor", "download_timeout_factor", "repair_rounds",
    "fail_backoff_base_ms", "fail_backoff_factor", "fail_backoff_max_ms",
)


@pytest.mark.parametrize("field", CHECKED_FIELDS)
def test_validation_rejects_nan(field):
    # NaN is false against every bound, so a check written as
    # "reject if below" lets it through, and the run then schedules
    # events at NaN times.  Infinity passes every lower bound, and a
    # timer set to it never fires.
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            MNPConfig(**{field: value})


def test_interval_max_must_dominate_base():
    with pytest.raises(ValueError):
        MNPConfig(adv_interval_ms=10_000.0, adv_interval_max_ms=5_000.0)


def test_replace_copies_and_overrides():
    base = MNPConfig()
    ablated = base.replace(sender_selection=False, sleep_on_loss=False)
    assert not ablated.sender_selection
    assert not ablated.sleep_on_loss
    assert base.sender_selection  # original untouched
    assert ablated.advertise_count == base.advertise_count


def test_replace_rejects_unknown_fields():
    with pytest.raises(TypeError):
        MNPConfig().replace(nonsense=True)


def test_replace_roundtrips_every_field():
    cfg = MNPConfig(query_update=True, pipelining=False,
                    battery_aware_power=True, auto_reboot=True,
                    idle_sleep=False)
    clone = cfg.replace()
    for name in ("query_update", "pipelining", "battery_aware_power",
                 "auto_reboot", "idle_sleep", "advertise_count",
                 "adv_interval_ms", "sleep_factor"):
        assert getattr(clone, name) == getattr(cfg, name)
