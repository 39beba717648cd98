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
