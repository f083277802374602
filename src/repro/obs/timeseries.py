"""Windowed time series over a profiled trace.

Bins a run's span records into fixed-width windows of simulated time:

* **throughput** — request completions per window (and per second);
* **composition** — completions split by service class
  (local / remote / disk / coalesced);
* **per-device utilization** — busy-time integral of the service
  portions of ``cpu`` / ``nic`` / ``bus`` / ``disk`` phase spans,
  normalized by cluster capacity (request-path work only; background
  writebacks and forwards are unprofiled and excluded);
* **queue depth** — time-averaged number of request-path jobs queued
  per resource class.

Windows overlapping the warm-up prefix are flagged ``"warm": false``
(the boundary is inferred from the first measured client root), so the
steady-state portion the paper measures is directly visible.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable
from typing import Any

from ..sim.stats import WindowedSeries
from .analyze import build_trees, request_roots
from .profile import PHASE_SPAN

__all__ = ["build_timeseries"]

logger = logging.getLogger(__name__)

#: Resource classes tracked per window.
_RESOURCES = ("cpu", "nic", "bus", "disk")

#: Default number of windows when no width is given.
_DEFAULT_WINDOWS = 60


def _infer_warm_start(roots) -> float | None:
    """Earliest start among measured client roots, if warm-up is marked."""
    marked = [r for r in roots if "measured" in r.attrs]
    if not marked:
        return None
    measured = [r.start for r in marked if r.attrs["measured"]]
    return min(measured) if measured else None


def build_timeseries(
    records: Iterable[dict[str, Any]],
    window_ms: float | None = None,
) -> dict[str, Any]:
    """Aggregate a trace into a JSON-ready windowed time series."""
    roots, index = build_trees(records)
    reqs = request_roots(roots)
    spans = list(index.values())
    if not spans:
        return {"window_ms": window_ms or 0.0, "num_nodes": 0, "windows": []}

    t_end = max((s.end for s in spans if s.end is not None), default=0.0)
    if window_ms is None:
        window_ms = max(t_end / _DEFAULT_WINDOWS, 1e-6)
    num_nodes = 1 + max(
        (s.node for s in spans if s.node is not None), default=0
    )
    warm_start = _infer_warm_start(reqs)

    throughput = WindowedSeries(window_ms)
    by_class: dict[str, WindowedSeries] = {}
    busy = {res: WindowedSeries(window_ms) for res in _RESOURCES}
    queued = {res: WindowedSeries(window_ms) for res in _RESOURCES}

    for root in reqs:
        throughput.add(root.end)
        cls = root.attrs.get("cls") or "?"
        series = by_class.get(cls)
        if series is None:
            series = by_class[cls] = WindowedSeries(window_ms)
        series.add(root.end)

    for span in spans:
        if span.name != PHASE_SPAN or span.dur is None:
            continue
        attrs = span.attrs
        phase = attrs.get("p")
        if phase in ("cpu", "nic", "bus"):
            svc_start = span.start + attrs.get("q", 0.0)
            queued[phase].add_interval(span.start, min(svc_start, span.end))
            busy[phase].add_interval(min(svc_start, span.end), span.end)
        elif phase == "disk":
            svc = min(attrs.get("svc", span.dur), span.dur)
            svc_start = max(span.start, span.end - svc)
            queued["disk"].add_interval(span.start, svc_start)
            busy["disk"].add_interval(svc_start, span.end)

    first = 0
    last = max(throughput.window_range()[1], int(t_end // window_ms))
    windows: list[dict[str, Any]] = []
    for idx in range(first, last + 1):
        t0 = throughput.window_start(idx)
        completions = throughput.values(idx, idx)[0]
        windows.append({
            "t_ms": t0,
            "warm": warm_start is None or t0 >= warm_start,
            "completions": completions,
            "throughput_rps": completions / (window_ms / 1000.0),
            "by_class": {
                cls: series.values(idx, idx)[0]
                for cls, series in sorted(by_class.items())
            },
            "utilization": {
                res: busy[res].values(idx, idx)[0] / (window_ms * num_nodes)
                for res in _RESOURCES
            },
            "queue_depth": {
                res: queued[res].values(idx, idx)[0] / window_ms
                for res in _RESOURCES
            },
        })
    logger.info("time series: %d windows of %.3f ms", len(windows), window_ms)
    return {
        "window_ms": window_ms,
        "num_nodes": num_nodes,
        "warm_start_ms": warm_start,
        "windows": windows,
    }

