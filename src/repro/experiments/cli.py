"""Command-line entry point for the reproduction harness.

Usage::

    python -m repro.experiments.cli list
    python -m repro.experiments.cli table1 table2
    python -m repro.experiments.cli fig3 fig4
    python -m repro.experiments.cli a4 a6
    python -m repro.experiments.cli all          # everything (minutes)

    # One observable experiment: trace + metrics + sampled invariants.
    python -m repro.experiments.cli run --system cc-kmc --workload rutgers \\
        --trace trace.jsonl --metrics-out metrics.json --invariant-every 1000

    # Same, with critical-path profiling and an inline bottleneck report.
    python -m repro.experiments.cli run --profile --trace trace.jsonl

    # Chaos run: fault-free baseline, then the same workload under a
    # seeded fault plan (crashes/link drops/disk stalls), side by side.
    # A replayed plan (--plan) is checked against --nodes first: an
    # event naming a node the cluster lacks exits 2 before any run.
    python -m repro.experiments.cli chaos --system cc-kmc \\
        --crashes-per-node 2 --plan-out plan.json --trace chaos.jsonl
    python -m repro.experiments.cli chaos --system cc-kmc --plan plan.json

    # Offline analysis of a dumped run: attribution report, Perfetto
    # export, windowed time series, slowest requests, and the
    # cluster-wide critical-path profile.
    python -m repro.experiments.cli analyze trace.jsonl metrics.json \\
        --report --perfetto perfetto.json --timeseries --top 10
    python -m repro.experiments.cli analyze trace.jsonl --critical

    # Differential attribution: explain what changed between two runs
    # (inputs are `analyze --json` summaries or raw trace JSONL).
    python -m repro.experiments.cli analyze diff base.json current.json

    # Windowed SLO evaluation over a run (alerts are deterministic
    # `alert` point spans in the trace; works under chaos too).
    python -m repro.experiments.cli run --slo slo.json --trace trace.jsonl
    python -m repro.experiments.cli chaos --slo slo.json --slo-out report.json

    # Cache-behavior telemetry (CacheScope): record during a run, then
    # render tables/sparklines offline; --json emits the attribution
    # summary machine-readably.
    python -m repro.experiments.cli run --system cc-basic \\
        --cachestats cachescope.jsonl
    python -m repro.experiments.cli analyze --cache cachescope.jsonl
    python -m repro.experiments.cli analyze trace.jsonl metrics.json --json -

    # Sharded figure sweep: run the fig2 (trace x system x memory) cell
    # matrix across 4 worker processes and emit the provenance-wrapped
    # trajectory record — byte-identical to a serial (--workers 1) run.
    python -m repro.experiments.cli sweep --workers 4 \\
        --bench-out BENCH_fig2.json

    # Fleet observability: the same sweep with a run ledger (per-cell
    # manifests + artifacts) and live progress telemetry, then the
    # cross-cell rollup (conservation check, binding-resource frequency,
    # throughput heatmaps) over the ledger slice.
    python -m repro.experiments.cli sweep --workers 4 \\
        --ledger ledger.jsonl --progress progress.jsonl \\
        --bench-out BENCH_fig2.json
    python -m repro.obs.ledger list ledger.jsonl
    python -m repro.experiments.cli analyze fleet ledger.jsonl

Every JSON output flag (``--json``, ``--critical-out``,
``--timeseries-out``, ``--slo-out``) takes ``-`` for stdout.  A JSON
document on stdout is the only thing there: reports, banners and
``->`` confirmations go to stderr, so ``... --json - | jq`` always
parses.

Pass ``-v`` / ``--verbose`` (repeatable) anywhere for INFO/DEBUG
logging.  Workload scale is controlled by the usual environment knobs
(``REPRO_SCALE`` / ``REPRO_REQUESTS`` / ``REPRO_CLIENTS`` /
``REPRO_FULL``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import sys
from collections.abc import Callable

from . import ablations, defaults, figures, tables
from .report import banner

__all__ = [
    "ARTIFACTS", "COMMANDS", "main", "run_command", "analyze_command",
    "analyze_diff_command", "analyze_fleet_command", "chaos_command",
    "sweep_command",
]

#: artifact name -> zero-argument renderer.
ARTIFACTS: dict[str, Callable[[], str]] = {
    "table1": tables.render_table1,
    "table2": tables.render_table2,
    "fig1": figures.render_fig1,
    "fig2": figures.render_fig2,
    "fig3": figures.render_fig3,
    "fig4": figures.render_fig4,
    "fig5": figures.render_fig5,
    "fig6a": figures.render_fig6a,
    "fig6b": figures.render_fig6b,
    "fig_ring": figures.render_fig_ring,
    "a1": ablations.render_a1,
    "a2": ablations.render_a2,
    "a3": ablations.render_a3,
    "a4": ablations.render_a4,
    "a5": ablations.render_a5,
    "a6": ablations.render_a6,
    "a7": ablations.render_a7,
    "a8": ablations.render_a8,
    "a9": ablations.render_a9,
    "a10": ablations.render_a10,
}


def _positive(convert, *, or_zero=False):
    """argparse type: a finite number > 0 (>= 0 with ``or_zero``)."""
    def parse(text: str):
        value = convert(text)
        # NaN fails every comparison, so it is rejected along with inf.
        if not (value >= 0 if or_zero else value > 0) or not value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be {'>= 0' if or_zero else 'positive'} and finite, "
                f"got {text}")
        return value

    return parse


@contextlib.contextmanager
def _json_stdout(*paths):
    """Keep stdout pure JSON while any of ``paths`` is ``-``.

    Yields the real stdout for :func:`_write_json`; inside the block
    every other print goes to stderr.
    """
    stdout = sys.stdout
    if "-" not in paths:
        yield stdout
        return
    with contextlib.redirect_stdout(sys.stderr):
        yield stdout


def _write_json(doc, path, label, stdout) -> None:
    """Write ``doc`` as sorted, indented JSON to ``path`` (``-`` = stdout)."""
    text = json.dumps(doc, indent=2, sort_keys=True, default=float)
    if path == "-":
        print(text, file=stdout)
        return
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text + "\n")
    print(f"{label:<17} -> {path}")


def _add_ledger_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ledger", metavar="FILE", default=None,
                   help="append a provenance-stamped manifest record "
                        "(git sha, seed, knobs, wall-clock, exit status, "
                        "artifact paths) to this run-ledger JSONL; inspect "
                        "with `python -m repro.obs.ledger list/show`")


def _open_ledger(opts):
    """The run ledger for ``--ledger FILE``, or None."""
    if opts.ledger is None:
        return None
    from ..obs.ledger import Ledger

    return Ledger(opts.ledger)


def _load_slo_spec(path, out_path=None):
    """Parse an SLO spec file (None when ``path`` is None); exits 2 on a
    bad spec or on ``out_path`` without a spec."""
    if path is None:
        if out_path:
            print("--slo-out requires --slo SPEC", file=sys.stderr)
            raise SystemExit(2)
        return None
    from ..obs.slo import SloSpec

    try:
        return SloSpec.load(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            ValueError) as exc:
        print(f"cannot load SLO spec {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _experiment_options() -> argparse.ArgumentParser:
    """The options ``run`` and ``chaos`` share (an argparse parent)."""
    from ..traces.datasets import TRACE_NAMES
    from .runner import SYSTEMS

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--system", default="cc-kmc",
                   choices=list(SYSTEMS), help="server variant")
    p.add_argument("--workload", default="rutgers", choices=list(TRACE_NAMES),
                   help="trace name (scaled per REPRO_SCALE)")
    p.add_argument("--mem-mb", type=_positive(float), default=None,
                   help="per-node memory MB (default: 32 x scale)")
    p.add_argument("--nodes", type=_positive(int), default=8,
                   help="cluster size")
    p.add_argument("--clients", type=_positive(int), default=None,
                   help="closed-loop clients (default: REPRO_CLIENTS)")
    p.add_argument("--seed", type=int, default=0, help="root RNG seed")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write the (chaotic) run's per-request span trace "
                        "as JSONL to FILE")
    p.add_argument("--metrics-out", metavar="FILE", default=None,
                   help="write the metrics-registry snapshot (JSON) to FILE")
    p.add_argument("--profile", action="store_true",
                   help="wrap every blocking wait in a phase span and "
                        "print the critical-path bottleneck report (fault "
                        "waits show up as fault.detect / retry.backoff)")
    p.add_argument("--slo", metavar="FILE", default=None,
                   help="evaluate this SLO spec (JSON: window_ms, latency "
                        "p95/p99 targets, availability, burn rate) over "
                        "every measured completion; breaches emit "
                        "deterministic `alert` point spans in the trace")
    p.add_argument("--slo-out", metavar="FILE", default=None,
                   help="write the SLO evaluation report JSON to FILE "
                        "('-' for stdout; requires --slo)")
    _add_ledger_arg(p)
    return p


def _experiment_config(opts):
    """The ExperimentConfig a ``run``/``chaos`` invocation names."""
    from .runner import ExperimentConfig

    return ExperimentConfig(
        system=opts.system,
        trace=defaults.workload(opts.workload),
        num_nodes=opts.nodes,
        mem_mb_per_node=(
            opts.mem_mb if opts.mem_mb is not None else 32.0 * defaults.SCALE
        ),
        num_clients=opts.clients or defaults.NUM_CLIENTS,
        seed=opts.seed,
    )


def _ledger_run_record(ledger, kind, opts, cfg, *, status, wall_s,
                       result=None, error=None) -> None:
    """Append one run/chaos manifest record for a CLI invocation."""
    from dataclasses import asdict

    from .parallel import cell_info, cell_summary

    fields = asdict(cell_info(0, cfg))
    del fields["index"]
    fields["wall_s"] = round(wall_s, 6)
    fields["artifacts"] = {
        name.replace("_out", ""): getattr(opts, name)
        for name in ("trace", "metrics_out", "cachestats", "slo_out",
                     "plan_out")
        if getattr(opts, name, None)
    }
    if result is not None:
        fields["summary"] = cell_summary(result, None)
    if error is not None:
        fields["error"] = error
    record = ledger.append(kind, status=status, **fields)
    print(f"ledger            -> {ledger.path} (run id {record['run_id']})")


def _print_by_class(workload) -> None:
    for cls in sorted(workload.response_by_class_ms):
        print(f"  {cls:<10} {workload.response_by_class_ms[cls]:8.2f} ms"
              f"  x{workload.requests_by_class[cls]}")


def _run_and_report(kind, opts, cfg, slo_spec, report) -> int:
    """Run ``cfg`` observed and under the ledger, then print its outputs.

    ``report(result, obs)`` prints the command's own result lines
    between the banner and the artifact lines.
    """
    import time

    from ..obs import Observability
    from .runner import run_experiment

    obs = Observability(
        trace=opts.trace is not None,
        invariant_every=opts.invariant_every,
        profile=opts.profile,
        cachestats=opts.cachestats is not None,
        slo=slo_spec,
    )
    ledger = _open_ledger(opts)
    t0 = time.perf_counter()  # simlint: disable=SL02 -- ledger wall-clock provenance, not sim state
    try:
        result = run_experiment(cfg, obs=obs)
    except Exception as exc:
        if ledger is not None:
            _ledger_run_record(
                ledger, kind, opts, cfg,
                status="failed",
                wall_s=time.perf_counter() - t0,  # simlint: disable=SL02 -- ledger wall-clock provenance, not sim state
                error=f"{type(exc).__name__}: {exc}",
            )
        raise
    wall_s = time.perf_counter() - t0  # simlint: disable=SL02 -- ledger wall-clock provenance, not sim state
    # Close the last SLO window before the trace is dumped so its alerts
    # are part of the JSONL (and the golden digest, when pinned).
    slo_report = obs.slo.finalize() if obs.slo is not None else None

    with _json_stdout(opts.slo_out) as stdout:
        print(banner(f"{kind} {cfg.system_name()} / {opts.workload}"))
        report(result, obs)
        if opts.trace:
            obs.tracer.dump_jsonl(opts.trace)
            print(f"trace             {len(obs.tracer.records)} spans -> "
                  f"{opts.trace} (sha256 {obs.tracer.digest()[:16]}...)")
        if opts.metrics_out:
            obs.registry.dump(opts.metrics_out)
            print(f"metrics           -> {opts.metrics_out}")
        if opts.cachestats:
            obs.cachescope.dump_jsonl(opts.cachestats)
            totals = obs.cachescope.snapshot()["totals"]
            print(f"cachestats        -> {opts.cachestats}")
            print(f"  duplicate share {totals['duplicate_share']:.4f} "
                  f"({totals['duplicate_kb']:.0f} of "
                  f"{totals['resident_kb']:.0f} KB resident)")
            print(f"  evictions       master={totals['master_evictions']} "
                  f"nonmaster={totals['nonmaster_evictions']} "
                  f"violations={totals['violations']}")
            print(f"  forwards        {totals['forwards']} "
                  f"stale lookups {totals['stale_lookups']}")
        if opts.profile:
            from ..obs.analyze import attribute
            from ..obs.reports import render_profile_report

            print()
            print(banner("critical-path profile"
                         + (" (chaotic run)" if kind == "chaos" else "")))
            print(render_profile_report(
                attribute(obs.tracer.records),
                metrics=obs.registry.snapshot(),
            ))
        if slo_report is not None:
            from ..obs.reports import render_slo_report

            print()
            print(banner(f"SLO evaluation: {opts.slo}"))
            print(render_slo_report(slo_report))
            if opts.slo_out:
                _write_json(slo_report, opts.slo_out, "slo report", stdout)
        if ledger is not None:
            _ledger_run_record(ledger, kind, opts, cfg, status="ok",
                               wall_s=wall_s, result=result)
    return 0


def _run_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments run",
        description="Run one observable experiment point.",
        parents=[_experiment_options()],
    )
    p.add_argument("--invariant-every", type=_positive(int, or_zero=True),
                   default=0, metavar="N",
                   help="sample check_invariants every N kernel events "
                        "(middleware systems; 0 = off)")
    p.add_argument("--cachestats", metavar="FILE", default=None,
                   help="record cache-behavior telemetry (duplicate share, "
                        "eviction provenance, forwarding hops) and dump it "
                        "as JSONL to FILE; render with `analyze --cache`")
    return p


def run_command(argv) -> int:
    """``run`` subcommand: one experiment with observability attached."""
    opts = _run_parser().parse_args(argv)
    slo_spec = _load_slo_spec(opts.slo, opts.slo_out)
    cfg = _experiment_config(opts)

    def report(result, obs) -> None:
        print(f"throughput        {result.throughput_rps:.1f} req/s")
        print(f"mean response     {result.mean_response_ms:.2f} ms")
        _print_by_class(result.workload)
        hr = result.hit_rates
        print(f"hit rates         local={hr['local']:.3f} "
              f"remote={hr['remote']:.3f} disk={hr['disk']:.3f}")
        if obs.sampler is not None:
            print(f"invariant checks  {obs.sampler.checks_run} (every "
                  f"{obs.sampler.every} of {obs.sampler.events_seen} events)")
        elif opts.invariant_every:
            print("invariant checks  n/a (no middleware layer in this system)")

    return _run_and_report("run", opts, cfg, slo_spec, report)


def _chaos_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments chaos",
        description="Run a workload under a deterministic fault plan and "
                    "compare it with the fault-free baseline.",
        parents=[_experiment_options()],
    )
    p.add_argument("--plan-seed", type=int, default=1,
                   help="fault-plan RNG seed (independent of --seed)")
    p.add_argument("--crashes-per-node", type=_positive(float, or_zero=True),
                   default=1.0,
                   help="expected crashes per node over the run")
    p.add_argument("--link-drops", type=_positive(int, or_zero=True),
                   default=0, help="number of transient link failures")
    p.add_argument("--disk-stalls", type=_positive(int, or_zero=True),
                   default=0, help="number of disk stalls")
    p.add_argument("--plan", metavar="FILE", default=None,
                   help="replay this fault plan JSON instead of generating "
                        "one (skips the baseline sizing run); every node id "
                        "in it must be below --nodes")
    p.add_argument("--plan-out", metavar="FILE", default=None,
                   help="archive the fault plan as JSON to FILE")
    # run-only observability, off under chaos
    p.set_defaults(invariant_every=0, cachestats=None)
    return p


def chaos_command(argv) -> int:
    """``chaos`` subcommand: baseline vs faulted run of one workload."""
    from dataclasses import replace

    from ..sim.faults import FaultPlan
    from .runner import run_experiment

    opts = _chaos_parser().parse_args(argv)
    slo_spec = _load_slo_spec(opts.slo, opts.slo_out)
    cfg = _experiment_config(opts)
    baseline = None
    if opts.plan:
        try:
            plan = FaultPlan.load(opts.plan).validate(opts.nodes)
        except (OSError, json.JSONDecodeError, KeyError, TypeError,
                ValueError) as exc:
            print(f"chaos: cannot load plan: {exc}", file=sys.stderr)
            return 2
    else:
        # Fault-free baseline sizes the plan horizon to this workload —
        # and is the comparison row printed below.
        baseline = run_experiment(cfg)
        plan = FaultPlan.random(
            opts.plan_seed,
            baseline.workload.total_ms,
            opts.nodes,
            crashes_per_node=opts.crashes_per_node,
            link_drops=opts.link_drops,
            disk_stalls=opts.disk_stalls,
        )
    if opts.plan_out:
        plan.dump(opts.plan_out)

    def report(result, obs) -> None:
        print(f"fault plan        {len(plan)} events over "
              f"{plan.horizon_ms:.0f} ms"
              + (f" (replaying {opts.plan})" if opts.plan else "")
              + (f" -> {opts.plan_out}" if opts.plan_out else ""))
        w = result.workload
        vs_tput = vs_resp = ""
        if baseline is not None:
            b = baseline.workload
            ratio = (w.throughput_rps / b.throughput_rps
                     if b.throughput_rps else 0.0)
            vs_tput = f" (fault-free {b.throughput_rps:.1f}, x{ratio:.2f})"
            vs_resp = f" (fault-free {b.mean_response_ms:.2f})"
        print(f"throughput        {w.throughput_rps:.1f} req/s{vs_tput}")
        print(f"mean response     {w.mean_response_ms:.2f} ms{vs_resp}")
        print(f"failed requests   {w.failed_requests} of "
              f"{w.measured_requests + w.failed_requests} measured")
        _print_by_class(w)
        if result.fault_counters:
            print("fault counters    "
                  + " ".join(f"{k}={v}" for k, v
                             in sorted(result.fault_counters.items())))

    return _run_and_report("chaos", opts, replace(cfg, faults=plan),
                           slo_spec, report)


def _sweep_parser() -> argparse.ArgumentParser:
    from ..traces.datasets import TRACE_NAMES

    p = argparse.ArgumentParser(
        prog="repro-experiments sweep",
        description="Run a figure's (trace x system x memory) cell matrix, "
                    "optionally sharded across worker processes, and emit "
                    "a provenance-wrapped BENCH trajectory record.  Output "
                    "is byte-identical at any worker count.",
    )
    p.add_argument("--figure", default="fig2", choices=["fig2"],
                   help="which figure's sweep to run (currently: fig2)")
    p.add_argument("--workload", action="append", dest="workloads",
                   choices=list(TRACE_NAMES), default=None,
                   help="restrict to this trace (repeatable; default: all)")
    p.add_argument("--nodes", type=_positive(int), default=8,
                   help="cluster size")
    p.add_argument("--workers", type=_positive(int), default=None,
                   help="worker processes to shard cells across "
                        "(default: REPRO_WORKERS or 1 = serial)")
    p.add_argument("--memory-axis", default="bench",
                   choices=["bench", "paper"],
                   help="memory points: the 4-point benchmark axis "
                        "(baseline-compatible) or the paper's full 8-point "
                        "axis")
    p.add_argument("--bench-out", metavar="FILE", default=None,
                   help="write the provenance-wrapped trajectory record "
                        "(JSON, repro.bench schema) to FILE")
    p.add_argument("--render", action="store_true",
                   help="print the rendered figure tables as well")
    p.add_argument("--progress", metavar="FILE", default=None,
                   help="stream live per-cell heartbeat events (done, "
                        "cells/s, ETA, stragglers, failures) as JSONL to "
                        "FILE and print the completion timeline afterwards")
    p.add_argument("--artifacts", metavar="DIR", default=None,
                   help="per-cell artifact directory for --ledger "
                        "(attribution + trace per cell; default: "
                        "<ledger>.d)")
    _add_ledger_arg(p)
    return p


def _ledger_sweep_records(ledger, opts, outcomes, progress_summary,
                          workers, n_cells) -> None:
    """Append the sweep manifest + one cell record per outcome."""
    from dataclasses import asdict

    artifacts = {name: path for name, path in (("bench", opts.bench_out),
                                               ("progress", opts.progress))
                 if path}
    sweep_rec = ledger.append(
        "sweep",
        status="failed" if any(not o.ok for o in outcomes) else "ok",
        figure=opts.figure,
        cells=n_cells,
        workers=workers,
        progress=progress_summary,
        artifacts=artifacts,
    )
    for out in outcomes:
        fields = asdict(out.info)
        fields["cell_index"] = fields.pop("index")
        fields.update(wall_s=round(out.wall_s, 6), worker=out.worker,
                      summary=out.summary, artifacts=out.artifacts)
        if out.error is not None:
            fields["error"] = out.error
        ledger.append(
            "cell",
            status="ok" if out.ok else "failed",
            parent=sweep_rec["run_id"],
            **fields,
        )
    print(f"ledger            -> {ledger.path} "
          f"(sweep run id {sweep_rec['run_id']}, {len(outcomes)} cell "
          f"records)")


def sweep_command(argv) -> int:
    """``sweep`` subcommand: sharded figure sweep + BENCH record.

    Every sweep runs on the observed runner; its telemetry is passive,
    so BENCH records are byte-identical with or without it.
    ``--ledger`` adds per-cell manifests and artifacts, ``--progress``
    live heartbeat events.  A failing cell never surfaces as a bare
    multiprocessing traceback: it is named (system/trace/params digest)
    on stderr and in the ledger, no BENCH record is written, and the
    exit code is 1.
    """
    import time

    from ..bench.schema import dump_record, wrap_result
    from ..traces.datasets import TRACE_NAMES
    from .figures import fig2_cells, fig2_collect, render_fig2
    from .parallel import SweepProgress, default_workers, run_cells_observed

    opts = _sweep_parser().parse_args(argv)
    workers = opts.workers if opts.workers is not None else default_workers()
    memories = defaults.memory_points_mb(
        defaults.BENCH_MEMORY_MB if opts.memory_axis == "bench" else None
    )
    trace_names = opts.workloads or list(TRACE_NAMES)
    names, memories, cells = fig2_cells(
        trace_names=trace_names, num_nodes=opts.nodes, memories_mb=memories
    )
    n_cells = len(cells)
    print(banner(f"sweep {opts.figure}"))
    print(f"cells             {n_cells} "
          f"({len(trace_names)} traces x {len(figures.ALL_SYSTEMS)} systems "
          f"x {len(memories)} memory points)")
    print(f"workers           {workers}")
    ledger = _open_ledger(opts)
    progress = SweepProgress(
        total=n_cells,
        path=opts.progress,
        stream=sys.stderr if opts.progress else None,
    )
    failures = []
    # Wall-clock is operator-facing progress reporting only; it never
    # feeds simulation state (results are a pure function of the cells).
    t0 = time.perf_counter()  # simlint: disable=SL02 -- elapsed-time report, not sim state
    results, outcomes = run_cells_observed(
        cells, workers=workers,
        progress=progress,
        artifacts_dir=(
            (opts.artifacts or opts.ledger + ".d") if ledger is not None
            else None
        ),
        profile=ledger is not None,
        failures=failures,
    )
    progress_summary = progress.summary()
    elapsed = time.perf_counter() - t0  # simlint: disable=SL02 -- elapsed-time report, not sim state
    print(f"elapsed           {elapsed:.1f} s wall "
          f"({n_cells / elapsed:.2f} cells/s)")
    if ledger is not None:
        _ledger_sweep_records(ledger, opts, outcomes, progress_summary,
                              workers, n_cells)
    if opts.progress:
        from ..obs.ledger import load_ledger as _load_jsonl
        from ..obs.reports import render_progress_report

        print()
        print(banner("sweep progress"))
        print(render_progress_report(_load_jsonl(opts.progress)))
        print(f"progress events   -> {opts.progress}")
    if failures:
        print(f"sweep: {len(failures)} cell(s) failed:", file=sys.stderr)
        for out in failures:
            print(f"  cell {out.info.index} [{out.info.coords()}] "
                  f"params {out.info.params_digest}: {out.error}",
                  file=sys.stderr)
        print("sweep: skipping BENCH record/render (incomplete matrix)",
              file=sys.stderr)
        return 1
    data = fig2_collect(names, memories, results)
    if opts.bench_out:
        record = wrap_result(
            opts.figure, data, seed=0, params=defaults.bench_params()
        )
        dump_record(record, opts.bench_out)
        print(f"trajectory record -> {opts.bench_out} "
              f"(params digest {record['params_digest']})")
    if opts.render:
        print()
        print(render_fig2(data))
    return 0


def _analyze_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments analyze",
        description="Offline analysis of a dumped run "
                    "(trace JSONL from `run --profile --trace`).",
    )
    p.add_argument("trace", metavar="TRACE", nargs="?", default=None,
                   help="span trace JSONL (from run --trace); optional "
                        "when only --cache output is requested")
    p.add_argument("metrics", metavar="METRICS", nargs="?", default=None,
                   help="metrics snapshot JSON (from run --metrics-out); "
                        "enables utilization-based bottleneck analysis")
    p.add_argument("--report", action="store_true",
                   help="print the critical-path attribution / bottleneck "
                        "report (default when no other output is requested)")
    p.add_argument("--json", metavar="FILE", default=None, dest="json_out",
                   help="write the attribution/bottleneck summary as JSON "
                        "to FILE ('-' for stdout) for CI consumption")
    p.add_argument("--cache", metavar="FILE", default=None,
                   help="render the cache-behavior report from a CacheScope "
                        "JSONL dump (run --cachestats)")
    p.add_argument("--perfetto", metavar="FILE", default=None,
                   help="write a Chrome trace-event JSON (Perfetto / "
                        "chrome://tracing) to FILE")
    p.add_argument("--timeseries", action="store_true",
                   help="print windowed throughput / utilization charts")
    p.add_argument("--timeseries-out", metavar="FILE", default=None,
                   help="write the windowed time series as JSON to FILE "
                        "('-' for stdout)")
    p.add_argument("--window-ms", type=_positive(float), default=None,
                   help="time-series window width (default: run length / 60)")
    p.add_argument("--top", type=_positive(int, or_zero=True), default=0,
                   metavar="K",
                   help="print the K slowest requests with span trees")
    p.add_argument("--critical", action="store_true",
                   help="print the cluster-wide critical-path profile "
                        "(per-phase critical seconds + top critical edges)")
    p.add_argument("--critical-out", metavar="FILE", default=None,
                   help="write the critical-path profile as JSON to FILE "
                        "('-' for stdout)")
    p.add_argument("--all-requests", action="store_true",
                   help="include warm-up requests, not just measured ones")
    return p


def analyze_command(argv) -> int:
    """``analyze`` subcommand: reports over dumped trace/metrics files."""
    from ..obs.analyze import attribute, load_jsonl

    opts = _analyze_parser().parse_args(argv)
    if opts.trace is None and not opts.cache:
        print("analyze: a TRACE file is required unless --cache is given",
              file=sys.stderr)
        return 2
    try:
        records = load_jsonl(opts.trace) if opts.trace else []
        metrics = None
        if opts.metrics:
            with open(opts.metrics, "r", encoding="utf-8") as fp:
                metrics = json.load(fp)
    except (OSError, ValueError) as exc:
        print(f"analyze: cannot read input: {exc}", file=sys.stderr)
        return 2

    with _json_stdout(opts.json_out, opts.critical_out,
                      opts.timeseries_out) as stdout:
        if opts.cache:
            from ..obs.cachestats import load_jsonl as load_cache_jsonl
            from ..obs.reports import render_cache_report

            try:
                snap = load_cache_jsonl(opts.cache)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"analyze: cannot read cache dump: {exc}",
                      file=sys.stderr)
                return 2
            print(banner(f"cache behavior: {opts.cache}"))
            print(render_cache_report(snap))
        if opts.trace is None:
            return 0

        measured_only = not opts.all_requests
        want_report = opts.report or not (
            opts.perfetto or opts.timeseries or opts.timeseries_out
            or opts.top or opts.json_out or opts.cache or opts.critical
            or opts.critical_out
        )
        if opts.json_out or want_report:
            attr = attribute(records, measured_only=measured_only)
        if opts.json_out:
            from ..obs.analyze import attribution_to_dict

            _write_json(attribution_to_dict(attr, metrics=metrics),
                        opts.json_out, "attribution json", stdout)
        if want_report:
            from ..obs.reports import render_profile_report

            print(banner(f"profile: {opts.trace}"))
            print(render_profile_report(attr, metrics=metrics))
        if opts.top:
            from ..obs.reports import render_top_requests

            print(banner(f"top {opts.top} slowest"))
            print(render_top_requests(
                records, k=opts.top, measured_only=measured_only
            ))
        if opts.critical or opts.critical_out:
            from ..obs.analyze import critical_profile

            profile = critical_profile(records, measured_only=measured_only)
            if opts.critical_out:
                _write_json(profile, opts.critical_out, "critical profile",
                            stdout)
            if opts.critical:
                from ..obs.reports import render_critical_report

                print(banner(f"critical path: {opts.trace}"))
                print(render_critical_report(profile))
        if opts.timeseries or opts.timeseries_out:
            from ..obs.timeseries import build_timeseries

            ts = build_timeseries(records, window_ms=opts.window_ms)
            if opts.timeseries_out:
                _write_json(ts, opts.timeseries_out, "time series", stdout)
            if opts.timeseries:
                from ..obs.reports import render_timeseries

                print(banner("time series"))
                print(render_timeseries(ts))
        if opts.perfetto:
            from ..obs.export import dump_chrome_trace

            dump_chrome_trace(records, opts.perfetto)
            print(f"chrome trace      -> {opts.perfetto} "
                  f"(open in ui.perfetto.dev or chrome://tracing)")
    return 0


def _diff_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments analyze diff",
        description="Differential attribution between two runs: a "
                    "phase-by-phase delta report naming the regressed "
                    "(or improved) phase, with a conservation check "
                    "(phase deltas sum to the mean-response delta).  "
                    "Inputs are `analyze --json` summaries or raw trace "
                    "JSONL dumps (sniffed automatically).",
    )
    p.add_argument("base", metavar="BASE",
                   help="baseline attribution JSON or trace JSONL")
    p.add_argument("current", metavar="CURRENT",
                   help="current attribution JSON or trace JSONL")
    p.add_argument("--json", metavar="FILE", default=None, dest="json_out",
                   help="write the diff report as JSON to FILE "
                        "('-' for stdout)")
    return p


def analyze_diff_command(argv) -> int:
    """``analyze diff`` subcommand: explain what changed between runs."""
    from ..obs.diff import diff_attributions, load_attribution
    from ..obs.reports import render_diff_report

    opts = _diff_parser().parse_args(argv)
    try:
        base = load_attribution(opts.base)
        current = load_attribution(opts.current)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"analyze diff: cannot read input: {exc}", file=sys.stderr)
        return 2
    report = diff_attributions(base, current)
    with _json_stdout(opts.json_out) as stdout:
        if opts.json_out:
            _write_json(report, opts.json_out, "diff json", stdout)
        print(banner(f"diff: {opts.base} -> {opts.current}"))
        print(render_diff_report(report))
    return 0


def _fleet_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments analyze fleet",
        description="Cross-cell fleet rollup over a sweep's run-ledger "
                    "slice: per-cell attribution with the exact "
                    "conservation check, binding-resource frequency, "
                    "sweep-wide SLO evaluation, and (memory x system x "
                    "trace) throughput heatmaps.",
    )
    p.add_argument("ledger", metavar="LEDGER",
                   help="run-ledger JSONL (from `sweep --ledger`)")
    p.add_argument("--sweep", metavar="RUN_ID", default=None,
                   help="roll up this sweep record (unique run-id prefix; "
                        "default: the latest sweep in the ledger)")
    p.add_argument("--slo", metavar="FILE", default=None,
                   help="judge every cell's p95/p99/availability against "
                        "this SLO spec JSON (window-level burn rates stay "
                        "per-run)")
    p.add_argument("--json", metavar="FILE", default=None, dest="json_out",
                   help="write the fleet report (schema kind 'fleet') as "
                        "JSON to FILE ('-' for stdout)")
    p.add_argument("--perfetto", metavar="FILE", default=None,
                   help="merge every cell's span trace into one "
                        "multi-process Chrome trace JSON (one process "
                        "lane group per cell) at FILE")
    return p


def analyze_fleet_command(argv) -> int:
    """``analyze fleet`` subcommand: cross-cell rollup over a ledger."""
    import os

    from ..obs.fleet import fleet_report
    from ..obs.ledger import load_ledger
    from ..obs.reports import render_fleet_report

    opts = _fleet_parser().parse_args(argv)
    slo_spec = _load_slo_spec(opts.slo)
    base_dir = os.path.dirname(os.path.abspath(opts.ledger))
    try:
        records = load_ledger(opts.ledger)
        report = fleet_report(records, sweep_id=opts.sweep, slo=slo_spec,
                              base_dir=base_dir)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"analyze fleet: {exc}", file=sys.stderr)
        return 2
    with _json_stdout(opts.json_out) as stdout:
        if opts.json_out:
            _write_json(report, opts.json_out, "fleet json", stdout)
        # Write the perfetto artifact before the chatty render so a reader
        # truncating stdout (`... | head`) can't kill the process between
        # artifact writes.
        if opts.perfetto:
            from ..obs.analyze import load_jsonl
            from ..obs.export import dump_chrome_trace_multi
            from ..obs.fleet import fleet_traces

            merged = [
                (label, load_jsonl(path)) for label, path in fleet_traces(
                    records, sweep_id=opts.sweep, base_dir=base_dir)
            ]
            dump_chrome_trace_multi(merged, opts.perfetto)
            print(f"fleet chrome trace -> {opts.perfetto} "
                  f"({len(merged)} cells merged; open in ui.perfetto.dev)")
        print(banner(f"fleet: {opts.ledger}"))
        print(render_fleet_report(report))
    return 0


#: Command words -> handler of the remaining arguments.  A longer entry
#: must precede any entry that is its prefix.
COMMANDS: dict[tuple[str, ...], Callable[[list[str]], int]] = {
    ("run",): run_command,
    ("chaos",): chaos_command,
    ("sweep",): sweep_command,
    ("analyze", "diff"): analyze_diff_command,
    ("analyze", "fleet"): analyze_fleet_command,
    ("analyze",): analyze_command,
}


def _configure_logging(args) -> list:
    """Strip ``-v``/``--verbose`` flags and configure the root logger."""
    level = 0
    kept = []
    for arg in args:
        if arg == "--verbose":
            level += 1
        elif arg.startswith("-") and len(arg) > 1 and set(arg[1:]) == {"v"}:
            level += len(arg) - 1
        else:
            kept.append(arg)
    logging.basicConfig(
        level=(logging.WARNING, logging.INFO)[min(level, 1)]
        if level < 2 else logging.DEBUG,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return kept


def main(argv=None) -> int:
    """Run a command, or render the requested artifacts to stdout;
    returns an exit code."""
    args = _configure_logging(list(sys.argv[1:] if argv is None else argv))
    for words, command in COMMANDS.items():
        if tuple(args[:len(words)]) == words:
            return command(args[len(words):])
    if not args or args == ["list"]:
        print(__doc__)
        print("artifacts:", " ".join(ARTIFACTS))
        print(f"scale={defaults.SCALE:g} requests={defaults.NUM_REQUESTS} "
              f"clients={defaults.NUM_CLIENTS}")
        return 0
    if args == ["all"]:
        args = list(ARTIFACTS)
    unknown = [a for a in args if a not in ARTIFACTS]
    if unknown:
        print(f"unknown artifact(s): {' '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {' '.join(ARTIFACTS)}", file=sys.stderr)
        return 2
    for name in args:
        print(banner(name))
        print(ARTIFACTS[name]())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
