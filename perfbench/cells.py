"""The benchmark's workloads: paper cells run through ``run_experiment``.

A workload is a list of cells that share one generated trace.  Every
cell is a real paper configuration at scale 0.02 (per-node memory is
scaled by the same factor as the trace, as the repo's sweeps do), 96
closed-loop clients, 25% warm-up and the oracle directory.  The
workload seed draws the trace's request stream and is the experiment
seed; the program only ever sees the generated trace.
"""

from __future__ import annotations

import gc
import json
import os
from dataclasses import dataclass
from time import perf_counter

SCALE = 0.02
CLIENTS = 96
WARMUP = 0.25


@dataclass(frozen=True)
class Workload:
    trace: str
    requests: int
    nodes: int
    #: Per-node memory in full-scale MB; the cell gets ``SCALE`` times it.
    mem_equiv_mb: float
    systems: tuple[str, ...]
    #: Run with ``Observability(profile=True, cachestats=True)``.
    profiled: bool = False


WORKLOADS: dict[str, Workload] = {
    "rutgers-disk-bound": Workload(
        "rutgers", 10_000, 8, 4.0, ("press", "cc-basic", "cc-sched", "cc-kmc")
    ),
    "calgary-resident": Workload("calgary", 20_000, 4, 64.0, ("press", "cc-kmc")),
    "rutgers-profiled": Workload(
        "rutgers", 10_000, 8, 4.0, ("press", "cc-kmc"), profiled=True
    ),
}


def isolate_env() -> None:
    """Drop the program's knobs that would swap a layer implementation."""
    for knob in ("REPRO_DIRECTORY", "REPRO_SCHEDULER"):
        os.environ.pop(knob, None)


def make_trace(wl: Workload, seed: int):
    """The dataset's file set with a request stream drawn by ``seed``.

    File sizes and popularity ranks come from the dataset's own spec
    seed, exactly as ``generate`` makes them; only the i.i.d. request
    draw uses the workload seed.  Re-drawing the file set per seed would
    change which file sizes are hot, which moves per-request work (and
    host req/s) by tens of percent between seeds at this scale.
    """
    from repro.sim.rng import stream
    from repro.traces import Trace, datasets, generate, zipf_weights
    from repro.traces.synthetic import _popularity_ranks

    spec = datasets.spec(wl.trace).scaled(SCALE).with_requests(wl.requests)
    assert spec.temporal_alpha == 0.0, "the request draw below is i.i.d."
    sizes = generate(spec).sizes_kb
    ranks = _popularity_ranks(
        sizes, spec.size_popularity_rho,
        stream(spec.seed, "trace", spec.name, "ranks"),
    )
    probs = zipf_weights(spec.num_files, spec.zipf_theta)[ranks]
    requests = stream(seed, "trace", spec.name, "requests").choice(
        spec.num_files, size=spec.num_requests, p=probs
    )
    return Trace(spec=spec, sizes_kb=sizes, requests=requests)


class RunClock:
    """Thin wrapper on the public ``Simulator.run``: notes its first entry.

    Construction of a cell is the time from ``run_experiment`` entry to
    ``Simulator.run`` entry; the simulated run is the rest of the call.
    """

    def __init__(self) -> None:
        self.sim = None
        self.entered = 0.0

    def install(self) -> None:
        from repro.sim.engine import Simulator

        orig = Simulator.run
        clock = self

        def run(sim, *args, **kwargs):
            if clock.sim is None:
                clock.sim = sim
                clock.entered = perf_counter()
            return orig(sim, *args, **kwargs)

        Simulator.run = run


@dataclass
class CellRun:
    system: str
    requests: int
    build_s: float
    run_s: float
    events: int
    #: Canonical JSON of the simulated output (see :func:`output_of`).
    output: str
    result: object
    obs: object


def output_of(result, events: int) -> str:
    """The cell's simulated output as canonical JSON (floats round-trip)."""
    w = result.workload
    out = {
        "throughput_rps": float(w.throughput_rps),
        "mean_response_ms": float(w.mean_response_ms),
        "p50_ms": float(w.p50_ms),
        "p99_ms": float(w.p99_ms),
        "measured_requests": int(w.measured_requests),
        "hit_rates": {k: float(v) for k, v in result.hit_rates.items()},
        "counters": {k: int(v) for k, v in result.counters.items()},
        "event_count": int(events),
    }
    return json.dumps(out, sort_keys=True)


def sanity_errors(run: CellRun) -> list[str]:
    """Seed-independent properties every cell's output must have."""
    out = json.loads(run.output)
    errs = []
    if not out["throughput_rps"] > 0:
        errs.append("throughput is not positive")
    expected = run.requests - int(run.requests * WARMUP)
    if abs(out["measured_requests"] - expected) > 1:
        errs.append(f"measured {out['measured_requests']} of {expected}")
    hits = out["hit_rates"]
    if abs(hits["local"] + hits["remote"] + hits["disk"] - 1.0) > 1e-9:
        errs.append("hit fractions do not sum to 1")
    if not out["p50_ms"] <= out["p99_ms"]:
        errs.append("p50 above p99")
    return errs


def cell_config(wl: Workload, system: str, trace, seed: int):
    """The cell's ``ExperimentConfig`` and its observability bundle (or None)."""
    from repro.experiments.runner import ExperimentConfig
    from repro.obs import Observability

    cfg = ExperimentConfig(
        system=system, trace=trace, num_nodes=wl.nodes,
        mem_mb_per_node=wl.mem_equiv_mb * SCALE, num_clients=CLIENTS,
        warmup_frac=WARMUP, seed=seed,
    )
    obs = Observability(profile=True, cachestats=True) if wl.profiled else None
    return cfg, obs


def run_cell(wl: Workload, system: str, trace, seed: int,
             clock: RunClock) -> CellRun:
    """Run one cell once; times exclude the garbage left by earlier cells."""
    from repro.experiments.runner import run_experiment

    cfg, obs = cell_config(wl, system, trace, seed)
    gc.collect()
    clock.sim = None
    start = perf_counter()
    result = run_experiment(cfg, obs=obs)
    end = perf_counter()
    events = clock.sim.event_count
    return CellRun(
        system=system, requests=wl.requests, build_s=clock.entered - start,
        run_s=end - clock.entered, events=events,
        output=output_of(result, events), result=result, obs=obs,
    )
