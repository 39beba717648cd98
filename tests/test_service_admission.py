"""Admission limits of the dissemination service and where they come from.

``serve`` passes ``None`` for every flag the operator left out, and
``AdmissionControl`` then reads the documented ``REPRO_SERVICE_*``
environment defaults (docs/service.md); an explicit argument wins.
"""

import pytest

from repro.service import Service
from repro.service.admission import AdmissionControl

ENV = {"REPRO_SERVICE_WORKERS": "3", "REPRO_SERVICE_QUEUE": "7",
       "REPRO_SERVICE_TIMEOUT_S": "0.5"}


def _limits(admission):
    return (admission.workers, admission.queue_limit,
            admission.job_timeout_s)


def test_unset_limits_fall_back_to_the_environment(monkeypatch):
    for name, value in ENV.items():
        monkeypatch.setenv(name, value)
    assert _limits(AdmissionControl()) == (3, 7, 0.5)
    assert _limits(Service().admission) == (3, 7, 0.5)


def test_explicit_limits_override_the_environment(monkeypatch):
    for name, value in ENV.items():
        monkeypatch.setenv(name, value)
    admission = AdmissionControl(workers=1, queue_limit=2, job_timeout_s=4.0)
    assert _limits(admission) == (1, 2, 4.0)


def test_no_timeout_without_the_environment(monkeypatch):
    monkeypatch.delenv("REPRO_SERVICE_TIMEOUT_S", raising=False)
    assert AdmissionControl().job_timeout_s is None


def test_zero_workers_rejected():
    # 0 means serial to the runner; for a service it is no pool at all.
    with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
        Service(workers=0)


@pytest.mark.parametrize("name, raw, bound", [
    ("REPRO_SERVICE_WORKERS", "0", "an integer >= 1"),
    ("REPRO_SERVICE_WORKERS", "abc", "an integer >= 1"),
    ("REPRO_SERVICE_WORKERS", "-3", "an integer >= 1"),
    ("REPRO_SERVICE_QUEUE", "0", "an integer >= 1"),
    ("REPRO_SERVICE_QUEUE", "2.5", "an integer >= 1"),
    ("REPRO_SERVICE_TIMEOUT_S", "-1", "a number > 0"),
    ("REPRO_SERVICE_TIMEOUT_S", "0", "a number > 0"),
    ("REPRO_SERVICE_TIMEOUT_S", "soon", "a number > 0"),
    ("REPRO_SERVICE_MAX_BODY", "5", "an integer >= 1024"),
    ("REPRO_SERVICE_MAX_BODY", "1MiB", "an integer >= 1024"),
])
def test_a_bad_setting_names_the_variable_and_the_value(monkeypatch, name,
                                                        raw, bound):
    # A bad value used to fall back silently: workers 0 gave 1, "abc"
    # gave 2, a queue of 0 gave 1, a timeout of -1 gave none, and a
    # 5-byte body cap gave 1024.
    monkeypatch.setenv(name, raw)
    with pytest.raises(ValueError) as info:
        Service()
    assert str(info.value) == f"{name} must be {bound}, got {raw!r}"


def test_unset_or_empty_settings_give_the_defaults(monkeypatch):
    for name in ENV:
        monkeypatch.setenv(name, "")
    monkeypatch.setenv("REPRO_SERVICE_MAX_BODY", " ")
    service = Service()
    assert _limits(service.admission) == (2, 256, None)
    assert service.max_body == 1 << 20
    for name in list(ENV) + ["REPRO_SERVICE_MAX_BODY"]:
        monkeypatch.delenv(name)
    service = Service()
    assert _limits(service.admission) == (2, 256, None)
    assert service.max_body == 1 << 20


@pytest.mark.parametrize("argv", [
    ["serve", "--port", "0", "--no-cache", "--quiet"],
    ["loadgen", "--jobs", "1", "--clients", "1", "--quiet"],
])
def test_serve_and_self_hosted_loadgen_report_a_bad_setting(monkeypatch,
                                                            capsys, argv):
    from repro.cli import main

    async def started(*args, **kwargs):
        # Fail, rather than serve forever, if the setting were accepted.
        raise AssertionError("the service started with a bad setting")

    monkeypatch.setattr(Service, "start", started)
    monkeypatch.setenv("REPRO_SERVICE_QUEUE", "0")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (f"repro {argv[0]}: error: REPRO_SERVICE_QUEUE must be "
                   "an integer >= 1, got '0'\n")
