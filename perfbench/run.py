"""Host-speed benchmark of the cluster simulator on real paper cells.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rutgers-disk-bound --seed 0 \
        --seconds 35 --trace 0

``--trace 0`` runs the workload's cells untraced, in turn, until
``--seconds`` have gone by, and reports the end-to-end metrics.
``--trace 1`` runs each cell once untraced and once with spans recorded
around every layer's public entry points, and reports the per-layer
metrics.  Every cell's simulated output is checked: against
``reference.json`` at seed 0, and at any seed against the other runs of
the same cell in this invocation (so the traced run must reproduce the
untraced one exactly).  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (cell runs) and
``metrics``.

Host numbers are what this Python process spends; simulated numbers are
what the modelled cluster would do.  Only host numbers and the kernel's
exact event count are performance metrics; simulated numbers are checked
outputs.  ``layers.json`` records the workload choices and which layer
should move which metric.
"""

from time import perf_counter

STARTED = perf_counter()  # before any import: the set-up probe times imports

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import cells  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
LAYERS = HERE / "layers.json"
SPAN_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
SETUP_PROBES = 3

END_TO_END = {
    "sim_req_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "kernel_events_per_req": "events/req",
}

PER_LAYER = {
    "engine.self_s": "s",
    "engine.us_per_event": "us/event",
    "engine.events_per_req": "events/req",
    "engine.processes_per_req": "calls/req",
    "engine.timeouts_per_req": "calls/req",
    "servicecenter.submits_per_req": "calls/req",
    "servicecenter.self_s": "s",
    "disk.submits_per_req": "calls/req",
    "disk.self_s": "s",
    "network.transfers_per_req": "calls/req",
    "network.router_forwards_per_req": "calls/req",
    "network.self_s": "s",
    "disk.util": "fraction",
    "cpu.util": "fraction",
    "blockcache.ops_per_req": "calls/req",
    "blockcache.touches_per_req": "calls/req",
    "directory.ops_per_req": "calls/req",
    "cache.self_s": "s",
    "cache.evictions_per_req": "count/req",
    "lru.heap_waste": "ratio",
    "middleware.reads_per_req": "calls/req",
    "middleware.self_s": "s",
    "middleware.forwards_per_req": "count/req",
    "middleware.forward_useful_frac": "fraction",
    "hit.local_frac": "fraction",
    "hit.remote_frac": "fraction",
    "hit.disk_frac": "fraction",
    "press.handles_per_req": "calls/req",
    "press.self_s": "s",
    "web.handles_per_req": "calls/req",
    "web.self_s": "s",
    "obs.waits_per_req": "calls/req",
    "obs.spans_per_req": "spans/req",
    "obs.self_s": "s",
    "traces.gen_s": "s",
    "runner.build_s": "s",
    "bench.trace_overhead": "ratio",
    "sim.kmc_over_press": "ratio",
}


def cell_key(wl, system: str) -> str:
    """Identity of a cell's simulated output (the profiled workload shares
    its cells' outputs with the unprofiled one: observability is passive)."""
    return f"{wl.trace}/{wl.requests}req/{wl.nodes}n/{wl.mem_equiv_mb:g}MB/{system}"


class Checker:
    """Compares every cell run's simulated output with its expectation."""

    def __init__(self, wl, seed: int) -> None:
        self.expected: dict[str, str] = {}
        if seed == DEFAULT_SEED:
            ref = json.loads(REFERENCE.read_text())
            for system in wl.systems:
                self.expected[system] = json.dumps(
                    ref[cell_key(wl, system)], sort_keys=True
                )
        self.attempted = 0
        self.failed = 0

    def run(self, fn, system: str):
        """Run ``fn()`` as one operation on cell ``system``; None if it failed."""
        self.attempted += 1
        try:
            run = fn()
        except Exception as exc:  # a cell that raises is a failed operation
            self.fail(system, f"raised {type(exc).__name__}: {exc}")
            return None
        errs = cells.sanity_errors(run)
        want = self.expected.setdefault(system, run.output)
        if run.output != want:
            errs.append(f"simulated output differs: {run.output} != {want}")
        if errs:
            self.fail(system, "; ".join(errs))
            return None
        return run

    def fail(self, system: str, why: str) -> None:
        self.failed += 1
        print(f"FAIL {system}: {why}", file=sys.stderr)


def probe_setup(wl, seed: int) -> dict:
    """Set-up of a fresh process: imports, trace generation, construction.

    Construction of each cell is timed from ``run_experiment`` entry to
    ``Simulator.run`` entry, where the probe stops the cell.
    """
    from repro.experiments.runner import run_experiment
    from repro.sim.engine import Simulator

    imported = perf_counter()
    cells.isolate_env()
    trace = cells.make_trace(wl, seed)
    generated = perf_counter()

    class Built(Exception):
        pass

    def stop(sim, *args, **kwargs):
        raise Built(perf_counter())

    Simulator.run = stop
    build_s = 0.0
    for system in wl.systems:
        cfg, obs = cells.cell_config(wl, system, trace, seed)
        start = perf_counter()
        try:
            run_experiment(cfg, obs=obs)
        except Built as built:
            build_s += built.args[0] - start
        else:
            raise RuntimeError("run_experiment never reached Simulator.run")
    return {
        "import_s": imported - STARTED,
        "gen_s": generated - imported,
        "build_s": build_s,
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes, run one after another."""
    totals = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        totals.append(probe["import_s"] + probe["gen_s"] + probe["build_s"])
    return statistics.median(totals)


def accuracy_line(workload: str, outputs: dict[str, str]) -> tuple[str, float]:
    """Simulated CC-KMC / PRESS throughput beside the paper's claim."""
    kmc = json.loads(outputs["cc-kmc"])["throughput_rps"]
    press = json.loads(outputs["press"])["throughput_rps"]
    ratio = kmc / press
    return (
        f"accuracy {workload}: simulated CC-KMC/PRESS throughput "
        f"{ratio:.3f} (simulated {kmc:.1f} / {press:.1f} req/s); paper: "
        "CC-KMC >= 0.8x PRESS in almost all cases.  The model is not "
        "validated against real hardware, so no error figure is given.",
        ratio,
    )


def timed_runs(args, wl, checker) -> dict:
    """End-to-end metrics: cells in turn, untraced, for ``--seconds``.

    Every cell runs at least twice, so that at any seed two runs of each
    cell are compared with each other.
    """
    setup_s = setup_seconds(args.workload, args.seed)
    trace = cells.make_trace(wl, args.seed)
    clock = cells.RunClock()
    clock.install()
    runs: dict[str, list] = {system: [] for system in wl.systems}
    start = perf_counter()
    attempts = 0
    while attempts < 2 * len(wl.systems) or perf_counter() - start < args.seconds:
        system = wl.systems[attempts % len(wl.systems)]
        attempts += 1
        run = checker.run(
            lambda: cells.run_cell(wl, system, trace, args.seed, clock), system
        )
        if run is not None:
            run.result = run.obs = None  # keep peak memory one cell's
            runs[system].append(run)
    measured = perf_counter() - start
    done = {s: r for s, r in runs.items() if r}
    if not done:
        return {}
    requests = sum(r[0].requests for r in done.values())
    median_s = {s: statistics.median(x.run_s for x in r) for s, r in done.items()}
    for system, r in done.items():
        print(
            f"cell {system}: {len(r)} runs, median {median_s[system]:.3f} s "
            f"host = {r[0].requests / median_s[system]:.0f} req/s host, "
            f"build {statistics.median(x.build_s for x in r):.4f} s host, "
            f"{r[0].events / r[0].requests:.2f} events/req"
        )
    print(f"measured {measured:.1f} s host over {attempts} cell runs")
    if "press" in done and "cc-kmc" in done:
        print(accuracy_line(args.workload, {s: r[0].output for s, r in done.items()})[0])
    return {
        "sim_req_per_s": requests / sum(median_s.values()),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel_events_per_req": sum(r[0].events for r in done.values()) / requests,
    }


def self_time_groups() -> dict[str, list[str]]:
    """Layer prefix -> span names whose self time it sums (layers.json)."""
    layers = json.loads(LAYERS.read_text())["layers"]
    return {entry["prefix"]: entry["spans"] for entry in layers if entry["spans"]}


def traced_runs(args, wl, checker) -> dict:
    """Per-layer metrics: each cell untraced, then traced, outputs compared."""
    from repro.core.middleware import CoopCacheLayer

    gen_times = []
    for _ in range(5):
        t0 = perf_counter()
        trace = cells.make_trace(wl, args.seed)
        gen_times.append(perf_counter() - t0)
    clock = cells.RunClock()
    clock.install()

    layers: list = []
    orig_init = CoopCacheLayer.__init__

    def remember(self, *a, **kw):
        orig_init(self, *a, **kw)
        layers.append(self)

    calls = dict.fromkeys(spans.NAMES, 0)
    self_s = dict.fromkeys(spans.NAMES, 0.0)
    totals = {"requests": 0, "events": 0, "plain_s": 0.0, "traced_s": 0.0,
              "build_s": 0.0, "spans": 0, "cc_measured": 0, "heap": 0,
              "live": 0}
    counters: dict[str, int] = {}
    util = {"disk": [], "cpu": []}
    hits = {"local": [], "remote": [], "disk": []}
    outputs = {}
    SPAN_DIR.mkdir(exist_ok=True)
    for system in wl.systems:
        plain = checker.run(
            lambda: cells.run_cell(wl, system, trace, args.seed, clock), system
        )
        rec = spans.SpanRecorder()
        layers.clear()
        CoopCacheLayer.__init__ = remember
        try:
            with spans.traced(rec):
                spanned = checker.run(
                    lambda: cells.run_cell(wl, system, trace, args.seed, clock),
                    system,
                )
        finally:
            CoopCacheLayer.__init__ = orig_init
        if plain is None or spanned is None:
            continue
        rec.write(SPAN_DIR / f"spans-{args.workload}-{system}.npz")
        for name, row in rec.summary().items():
            calls[name] += row["calls"]
            self_s[name] += row["self_s"]
        outputs[system] = plain.output
        out = json.loads(plain.output)
        totals["requests"] += plain.requests
        totals["events"] += plain.events
        totals["plain_s"] += plain.run_s
        totals["traced_s"] += spanned.run_s
        totals["build_s"] += plain.build_s
        if spanned.obs is not None:
            tracer = spanned.obs.tracer
            totals["spans"] += len(tracer.records) + len(tracer.open_spans)
        if system != "press":
            totals["cc_measured"] += out["measured_requests"]
            for key, value in out["counters"].items():
                counters[key] = counters.get(key, 0) + value
            for layer in layers:  # heap_size lives on the private LRUs
                for cache in layer.caches:
                    for lru in (cache._masters, cache._nonmasters):
                        totals["heap"] += lru.heap_size
                        totals["live"] += len(lru)
        for kind in util:
            util[kind].append(float(plain.result.workload.utilization[kind]))
        for kind in hits:
            hits[kind].append(out["hit_rates"][kind])
        print(
            f"cell {system}: untraced {plain.run_s:.3f} s host, traced "
            f"{spanned.run_s:.3f} s host, {len(rec)} spans"
        )
        del plain, spanned, rec
    if not outputs:
        return {}
    if "press" in outputs and "cc-kmc" in outputs:
        line, kmc_ratio = accuracy_line(args.workload, outputs)
        print(line)
    else:
        kmc_ratio = 0.0

    req = totals["requests"]
    cc_req = totals["cc_measured"] or 1
    group = self_time_groups()

    def per_req(*names):
        return sum(calls[n] for n in names) / req

    def layer_self(prefix):
        return sum(self_s[n] for n in group[prefix])

    forwards = counters.get("forwards", 0)
    metrics = {
        "engine.self_s": layer_self("engine"),
        "engine.us_per_event": layer_self("engine") / totals["events"] * 1e6,
        "engine.events_per_req": totals["events"] / req,
        "engine.processes_per_req": per_req("Simulator.process"),
        "engine.timeouts_per_req": per_req("Simulator.timeout"),
        "servicecenter.submits_per_req": per_req("ServiceCenter.submit"),
        "servicecenter.self_s": layer_self("servicecenter"),
        "disk.submits_per_req": per_req("Disk.submit"),
        "disk.self_s": layer_self("disk"),
        "network.transfers_per_req": per_req("Network.transfer"),
        "network.router_forwards_per_req": per_req("Router.forward"),
        "network.self_s": layer_self("network"),
        "disk.util": statistics.mean(util["disk"]),
        "cpu.util": statistics.mean(util["cpu"]),
        "blockcache.ops_per_req": per_req("BlockCache.insert", "BlockCache.remove"),
        "blockcache.touches_per_req": per_req("BlockCache.touch"),
        "directory.ops_per_req": per_req(
            "GlobalDirectory.lookup", "GlobalDirectory.set_master"
        ),
        "cache.self_s": layer_self("cache"),
        "cache.evictions_per_req": counters.get("evictions", 0) / cc_req,
        "lru.heap_waste": (
            (totals["heap"] - totals["live"]) / totals["live"]
            if totals["live"] else 0.0
        ),
        "middleware.reads_per_req": per_req("CoopCacheLayer.read"),
        "middleware.self_s": layer_self("middleware"),
        "middleware.forwards_per_req": forwards / cc_req,
        "middleware.forward_useful_frac": (
            counters.get("forward_installed", 0) / forwards if forwards else 0.0
        ),
        "hit.local_frac": statistics.mean(hits["local"]),
        "hit.remote_frac": statistics.mean(hits["remote"]),
        "hit.disk_frac": statistics.mean(hits["disk"]),
        "press.handles_per_req": per_req("PressServer.handle"),
        "press.self_s": layer_self("press"),
        "web.handles_per_req": per_req("CoopCacheWebServer.handle"),
        "web.self_s": layer_self("web"),
        "obs.waits_per_req": per_req("Profiler.wait", "Profiler.disk_wait"),
        "obs.spans_per_req": totals["spans"] / req,
        "obs.self_s": layer_self("obs"),
        "traces.gen_s": statistics.median(gen_times),
        "runner.build_s": totals["build_s"],
        "bench.trace_overhead": totals["traced_s"] / totals["plain_s"],
        "sim.kmc_over_press": kmc_ratio,
    }
    return metrics


def write_reference() -> None:
    """Record every cell's simulated output at the default seed."""
    clock = cells.RunClock()
    clock.install()
    ref = {}
    for wl in cells.WORKLOADS.values():
        trace = cells.make_trace(wl, DEFAULT_SEED)
        for system in wl.systems:
            key = cell_key(wl, system)
            if key not in ref:
                run = cells.run_cell(wl, system, trace, DEFAULT_SEED, clock)
                ref[key] = json.loads(run.output)
                print(key, file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"rewrite {REFERENCE.name} at seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the simulator's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cells.isolate_env()
    if args.write_reference:
        write_reference()
        return 0
    if args.workload not in cells.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(cells.WORKLOADS)}")
    wl = cells.WORKLOADS[args.workload]
    if args.probe_setup:
        print(json.dumps(probe_setup(wl, args.seed)))
        return 0

    checker = Checker(wl, args.seed)
    if args.trace:
        metrics, units = traced_runs(args, wl, checker), PER_LAYER
    else:
        metrics, units = timed_runs(args, wl, checker), END_TO_END
    attempted = max(checker.attempted, 1)
    print(f"cell_fail_frac {checker.failed / attempted:.4f} fraction "
          f"({checker.failed} of {checker.attempted} cell runs)")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
