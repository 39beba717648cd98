"""What the benchmark under ``perfbench/`` reads from the package.

perfbench builds its workloads from the public API and reads counters
off the objects a run builds.  A name it uses that the package drops
fails only when the benchmark itself runs, so this module loads
perfbench's own ``workloads.py`` and ``layers.py`` from their files and
exercises the reads they make: a seeded ``coded_secure`` run checked
against ``perfbench/reference.json`` (its outcome reads
``RunResult.messages_sent()``, and ``collisions`` through the
``collector`` alias ``RunResult`` keeps for it),
the code-path record of a built ``dissemination`` job, and every counter
``Harvest`` sums.
"""

import importlib.util
import json
import os

from repro.experiments.common import grid_deployment

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_coded_secure_seed_0_matches_the_reference():
    workloads = _load("workloads")
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        reference = json.load(fh)
    job = workloads.build("coded_secure", 0)
    job.run()
    outcome = job.outcome()
    assert workloads.check("coded_secure", 0, outcome, reference) == []
    assert set(workloads.REFERENCE_FIELDS) <= \
        set(reference["coded_secure"]["0"])


def test_dissemination_code_path():
    job = _load("workloads").build("dissemination", 0)
    assert job.code_path() == {
        "channel_class": "Channel", "link_cache": "on", "security": False,
        "coding_field": None,
    }


def test_harvest_fields_exist_on_a_seeded_deployment():
    fields = _load("layers").Harvest.FIELDS
    dep = grid_deployment(3, 3, "mnp", 1, 8, seed=1)
    mote = next(iter(dep.motes.values()))
    objects = {"Simulator": dep.sim, "Channel": dep.channel,
               "Radio": mote.radio, "CsmaMac": mote.mac}
    assert set(fields) == set(objects)
    for kind, names in fields.items():
        for name in names:
            assert isinstance(getattr(objects[kind], name), int), \
                f"{kind}.{name}"
