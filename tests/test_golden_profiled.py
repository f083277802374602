"""Golden fingerprints of *profiled* runs.

The plain goldens (``test_golden_trace.py``) run with tracing only, so
they never exercise the profiler's phase spans, the service-center
queue/service stamps those spans read, or the cache-telemetry scope.
Here the same 4-node Rutgers workload runs with
``Observability(profile=True, cachestats=True)``, fault-free and under a
seeded fault plan, and the trace digest, span count, ``critical_profile``
JSON and cachestats snapshot are compared against fingerprints stored
under ``tests/golden/profiled/``.  Any change to how a blocking wait is
timed, closed or stamped moves one of these bytes.

To refresh after an *intended* behavior change::

    REPRO_REFRESH_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_profiled.py
"""

import hashlib
import json
import os

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.obs import Observability
from repro.obs.analyze import critical_profile
from repro.sim.faults import FaultPlan

from .test_golden_trace import GOLDEN_DIR, _workload

PROFILED_GOLDEN_DIR = GOLDEN_DIR / "profiled"

SYSTEMS = ["press", "cc-kmc"]

#: Fault schedules: none, and crashes + link drops + disk stalls.  The
#: workload's requests all finish within about 600-800 simulated ms, so
#: the faulted plan's horizon is 600 ms: its faults land on live
#: requests (failed requests, fault-detect and retry-backoff phases)
#: instead of after the last one.
PLANS = {
    "fault-free": FaultPlan.none,
    "faults": lambda: FaultPlan.random(
        7, 600.0, 4, crashes_per_node=2.0, link_drops=2, disk_stalls=2
    ),
}


@pytest.fixture(autouse=True)
def _pin_directory_env(monkeypatch):
    """Fingerprints are taken with the default (oracle) directory."""
    monkeypatch.delenv("REPRO_DIRECTORY", raising=False)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fingerprint(system, plan):
    cfg = ExperimentConfig(
        system=system, trace=_workload(), num_nodes=4, mem_mb_per_node=0.5,
        num_clients=8, seed=0, faults=plan,
    )
    obs = Observability(profile=True, cachestats=True)
    run_experiment(cfg, obs=obs)
    records = obs.tracer.records
    return {
        "trace_digest": obs.tracer.digest(),
        "trace_spans": len(records),
        "critical_digest": _sha(json.dumps(
            critical_profile(records), sort_keys=True, default=float)),
        "cachestats_digest": _sha(json.dumps(
            obs.cachescope.snapshot(), sort_keys=True, default=float)),
    }


@pytest.mark.parametrize("system", SYSTEMS)
def test_profiled_golden(system):
    path = PROFILED_GOLDEN_DIR / f"{system}.json"
    current = json.dumps(
        {name: _fingerprint(system, plan()) for name, plan in PLANS.items()},
        indent=2, sort_keys=True,
    ) + "\n"
    if os.environ.get("REPRO_REFRESH_GOLDEN"):
        PROFILED_GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(current)
    assert path.exists(), (
        f"golden file {path} missing; generate it with "
        "REPRO_REFRESH_GOLDEN=1 and commit the result"
    )
    assert current == path.read_text(), (
        f"{system} (profiled) drifted from its golden fingerprint; if the "
        "change is intended, refresh with REPRO_REFRESH_GOLDEN=1 and "
        "review the diff"
    )
