"""Offline trace analysis: span trees, critical paths and attribution.

Input is the tracer's JSONL (or its in-memory record list) from a
*profiled* run (``Observability(profile=True)``).  The decomposition
rests on two structural facts about the simulator:

* Protocol coroutines are **serial** — between two yields no simulated
  time passes — so the profiler's phase spans (name ``"ph"``) tile each
  span's duration exactly, telescoping with zero-duration gaps.
* Parallel fan-out happens only behind an ``all_of`` wrapped in a
  ``fetch`` phase; the spawned fetch spans are *siblings* of that phase
  under the same parent.  A backward walk from the end of the fetch
  interval — always stepping to the candidate span that ends latest but
  no later than the current frontier — recovers the serial chain that
  actually bounded the wait (the critical path), and any unexplained
  remainder is genuine waiting on another request's work (coalesce /
  peer / master wait).

One walk turns a request root into bucket-labelled pieces
(:class:`CriticalSegment`) that tile the root span.  Two reductions sit
on top of it:

* :func:`critical_path` keeps the non-empty pieces in time order —
  "where latency was *created*"; :func:`critical_profile` aggregates
  them cluster-wide, including the top-K critical phase→phase edges;
* :func:`decompose_request` sums every piece per bucket — "where time
  was *spent*"; :func:`attribute` does so per request over a trace.
  Zero-length pieces keep their bucket keys (``bus.queue: 0.0``).

By the tiling, each request's buckets sum to its root duration (and,
over measured client roots, the run's measured mean response time) up
to float tolerance.
"""

from __future__ import annotations

import json
import logging
import os
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

from .profile import PHASE_SPAN
from .schema import as_report

__all__ = [
    "PHASE_ORDER",
    "SpanNode",
    "load_jsonl",
    "build_trees",
    "request_roots",
    "CriticalSegment",
    "critical_path",
    "critical_profile",
    "decompose_request",
    "RequestProfile",
    "Attribution",
    "attribute",
    "binding_resource",
    "attribution_to_dict",
]

logger = logging.getLogger(__name__)

#: Canonical display order of attribution phases.
PHASE_ORDER: tuple[str, ...] = (
    "router",
    "cpu.queue", "cpu.service",
    "nic.queue", "nic.service",
    "bus.queue", "bus.service",
    "wire",
    "disk.queue", "disk.seek", "disk.transfer",
    "peer.wait", "master.wait", "coalesce.wait",
    "fault.detect", "retry.backoff",
    "other",
)

#: Bucket of each single-interval phase (profiler ``p`` attr); names not
#: listed here and not split by :func:`_walk` go to ``other``.
_PHASE_BUCKET: dict[str, str] = {
    "router": "router",
    "wire": "wire",
    "master_wait": "master.wait",
    "coalesce_wait": "coalesce.wait",
    "fault_detect": "fault.detect",
    "retry_wait": "retry.backoff",
}

#: Span names treated as per-request roots (profiled runs produce
#: ``client`` roots; plain traced runs produce ``request`` roots).
REQUEST_ROOT_NAMES = ("client", "request")

#: Absolute float slack for interval containment / chain stepping (ms).
_EPS = 1e-9


class SpanNode:
    """One span record wired into its trace tree."""

    __slots__ = ("rec", "parent", "children")

    def __init__(self, rec: dict[str, Any]) -> None:
        self.rec = rec
        self.parent: SpanNode | None = None
        self.children: list[SpanNode] = []

    @property
    def span_id(self) -> int:
        return self.rec["span"]

    @property
    def trace_id(self) -> int:
        return self.rec["trace"]

    @property
    def parent_id(self) -> int | None:
        return self.rec.get("parent")

    @property
    def name(self) -> str:
        return self.rec["name"]

    @property
    def node(self) -> int | None:
        return self.rec.get("node")

    @property
    def start(self) -> float:
        return self.rec["start"]

    @property
    def end(self) -> float | None:
        return self.rec.get("end")

    @property
    def dur(self) -> float | None:
        """Duration in ms, or None for unfinished spans."""
        end = self.end
        return None if end is None else end - self.start

    @property
    def attrs(self) -> dict[str, Any]:
        return self.rec.get("attrs", {})

    @property
    def unfinished(self) -> bool:
        return bool(self.rec.get("unfinished")) or self.end is None

    def walk(self) -> Iterator[SpanNode]:
        """Yield this node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def _record_problem(rec: object) -> str | None:
    """Why ``rec`` is not a span record, or None if it is one."""
    if not isinstance(rec, dict):
        return f"expected a span record object, got {type(rec).__name__}"
    missing = [k for k in ("trace", "span", "name", "start") if k not in rec]
    if missing:
        return "span record lacks " + ", ".join(repr(k) for k in missing)
    if not isinstance(rec["span"], int):
        return f"span id is not an integer: {rec['span']!r}"
    for key in ("start", "end"):
        value = rec.get(key)
        if not isinstance(value, (int, float)) and (key, value) != ("end", None):
            return f"{key!r} is not a number: {value!r}"
    return None


def load_jsonl(path: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """Read a tracer JSONL file into a list of span records.

    Raises ValueError naming ``path:line`` for a line that is not a
    JSON span record.
    """
    records: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            problem = _record_problem(rec)
            if problem is not None:
                raise ValueError(f"{path}:{lineno}: {problem}")
            records.append(rec)
    return records


def build_trees(
    records: Iterable[dict[str, Any]],
) -> tuple[list[SpanNode], dict[int, SpanNode]]:
    """Wire span records into trees; returns (roots, index by span id).

    Children are ordered by (start, span id); records whose parent is
    missing from the trace become roots (robust to partial dumps).
    """
    index: dict[int, SpanNode] = {}
    for rec in records:
        node = SpanNode(rec)
        index[node.span_id] = node
    roots: list[SpanNode] = []
    for node in index.values():
        pid = node.parent_id
        parent = index.get(pid) if pid is not None else None
        if parent is None:
            roots.append(node)
        else:
            node.parent = parent
            parent.children.append(node)
    for node in index.values():
        node.children.sort(key=lambda c: (c.start, c.span_id))
    roots.sort(key=lambda c: (c.start, c.span_id))
    return roots, index


def request_roots(
    roots: Iterable[SpanNode], measured_only: bool = False
) -> list[SpanNode]:
    """Finished per-request root spans (``client`` or ``request``).

    ``measured_only`` keeps roots whose ``measured`` attr is true (or
    absent — plain traced runs don't mark warm-up).
    """
    out = []
    for root in roots:
        if root.name not in REQUEST_ROOT_NAMES or root.dur is None:
            continue
        if measured_only and not root.attrs.get("measured", True):
            continue
        out.append(root)
    return out


# ---------------------------------------------------------------------------
# the request walk
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CriticalSegment:
    """One bucket-labelled interval of a request's decomposition."""

    #: Attribution bucket (``disk.queue``, ``cpu.service``, ...).
    phase: str
    #: Name of the span the interval came from (``"ph"`` for phases).
    name: str
    node: int | None
    start: float
    end: float

    @property
    def dur(self) -> float:
        return self.end - self.start


def _contains(p: SpanNode, c: SpanNode) -> bool:
    """True if finished span ``c`` lies within phase ``p``'s interval.

    Span ids are monotone in creation order, so a span created during a
    wait always has a higher id than the wait's phase span — which
    disambiguates exact-timestamp boundaries (zero-duration gaps).
    """
    p_end, c_end = p.end, c.end
    if p_end is None or c_end is None:
        return False
    return (
        p.span_id < c.span_id
        and p.start - _EPS <= c.start
        and c_end <= p_end + _EPS
    )


def _split(src: SpanNode, start: float,
           cuts: Iterable[tuple[str, float]],
           out: list[CriticalSegment]) -> None:
    """Append consecutive pieces of ``src`` from ``start`` to each cut."""
    for bucket, end in cuts:
        out.append(CriticalSegment(bucket, src.name, src.node, start, end))
        start = end


def _fill_gaps(src: SpanNode, lo: float, hi: float,
               spans: Iterable[SpanNode], bucket: str,
               out: list[CriticalSegment]) -> None:
    """Append ``bucket`` pieces for gaps wider than ``_EPS`` in [lo, hi]
    that ``spans`` leave uncovered."""
    covered = sorted((c.start, c.end) for c in spans if c.end is not None)
    cur = lo
    for start, end in [*covered, (hi, hi)]:
        if start - cur > _EPS:
            out.append(CriticalSegment(bucket, src.name, src.node, cur, start))
        cur = max(cur, end)


def _walk(span: SpanNode, out: list[CriticalSegment]) -> None:
    """Append ``span``'s pieces to ``out`` in walk order.

    A phase span is split by its stamps: ``q`` / ``svc`` / ``seek``
    place the service portion at the *end* of the wait, which is where
    the service center ran it.  Any other span is tiled by its serial
    children — phase spans plus sub-spans not inside a phase interval —
    with uncovered gaps going to ``other``.
    """
    s, e = span.start, span.end
    if e is None:  # unfinished: it bounded nothing
        return
    if span.name != PHASE_SPAN:
        children = [c for c in span.children if c.end is not None]
        phases = [c for c in children if c.name == PHASE_SPAN]
        serial = [
            c for c in children
            if not any(p is not c and _contains(p, c) for p in phases)
        ]
        for child in serial:
            _walk(child, out)
        _fill_gaps(span, s, e, serial, "other", out)
        return
    attrs = span.attrs
    name = attrs.get("p", "other")
    dur = e - s
    if name in ("cpu", "nic", "bus"):
        q = min(max(attrs.get("q", 0.0), 0.0), dur)
        _split(span, s, [(f"{name}.queue", s + q), (f"{name}.service", e)],
               out)
    elif name == "disk":
        svc = min(attrs.get("svc", dur), dur)
        seek = min(max(attrs.get("seek", 0.0), 0.0), svc)
        _split(span, s, [("disk.queue", e - svc),
                         ("disk.seek", e - svc + seek),
                         ("disk.transfer", e)], out)
    elif name == "fetch":
        _walk_fetch(span, s, e, out)
    else:
        _split(span, s, [(_PHASE_BUCKET.get(name, "other"), e)], out)


def _walk_fetch(p: SpanNode, s: float, e: float,
                out: list[CriticalSegment]) -> None:
    """Critical chain through a parallel fan-out wait [s, e].

    Walking backward from ``e``, always take the sibling span that ends
    latest but at or before the current frontier; the chosen spans are
    pairwise disjoint (each new frontier is the previous choice's
    start).  Time the chain leaves uncovered was spent waiting on work
    owned by *other* requests; it goes to ``coalesce.wait`` /
    ``peer.wait`` / ``disk.queue`` according to what the fan-out
    contained.
    """
    candidates: list[tuple[float, float, int, SpanNode]] = []
    for c in p.parent.children if p.parent is not None else []:
        c_end = c.end
        if (c is not p and c_end is not None and _contains(p, c)
                and c_end - c.start > 0.0):
            candidates.append((c_end, c_end - c.start, c.span_id, c))
    frontier = e
    chain: list[SpanNode] = []
    while True:
        fits = [t for t in candidates if t[0] <= frontier + _EPS]
        if not fits:
            break
        best = max(fits, key=lambda t: t[:3])
        candidates.remove(best)
        chain.append(best[3])
        frontier = best[3].start
        if frontier <= s + _EPS:
            break
    for c in chain:
        _walk(c, out)
    attrs = p.attrs
    if attrs.get("j"):
        bucket = "coalesce.wait"
    elif attrs.get("pe"):
        bucket = "peer.wait"
    else:
        bucket = "disk.queue"
    _fill_gaps(p, s, e, chain, bucket, out)


def critical_path(root: SpanNode) -> list[CriticalSegment]:
    """The ordered critical path of one finished request root.

    Segments are non-empty, non-overlapping, sorted by start time, and
    tile the root span exactly: their durations sum to the root
    duration up to float tolerance.
    """
    pieces: list[CriticalSegment] = []
    _walk(root, pieces)
    segs = [seg for seg in pieces if seg.dur > _EPS]
    segs.sort(key=lambda seg: (seg.start, seg.end))
    return segs


# ---------------------------------------------------------------------------
# attribution: per-bucket sums of the walk
# ---------------------------------------------------------------------------
@dataclass
class RequestProfile:
    """One request's phase decomposition."""

    trace_id: int
    root_name: str
    node: int | None
    cls: str | None
    start: float
    dur: float
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def residual(self) -> float:
        """Unattributed time (should be float noise only)."""
        return self.dur - sum(self.phases.values())


def decompose_request(root: SpanNode) -> RequestProfile:
    """Phase decomposition of one finished request root span."""
    pieces: list[CriticalSegment] = []
    _walk(root, pieces)
    phases: dict[str, float] = defaultdict(float)
    for seg in pieces:
        phases[seg.phase] += seg.dur
    return RequestProfile(
        trace_id=root.trace_id,
        root_name=root.name,
        node=root.node,
        cls=root.attrs.get("cls"),
        start=root.start,
        dur=root.dur or 0.0,
        phases=dict(phases),
    )


@dataclass
class Attribution:
    """Aggregate phase attribution over a set of requests."""

    requests: list[RequestProfile]

    @property
    def count(self) -> int:
        return len(self.requests)

    @property
    def mean_response_ms(self) -> float:
        """Mean span-tree root duration = mean response time."""
        if not self.requests:
            return 0.0
        return sum(r.dur for r in self.requests) / len(self.requests)

    def phase_means(self) -> dict[str, float]:
        """Mean per-request contribution of each phase (ms)."""
        if not self.requests:
            return {}
        sums: dict[str, float] = defaultdict(float)
        for r in self.requests:
            for phase, ms in r.phases.items():
                sums[phase] += ms
        n = len(self.requests)
        return {phase: total / n for phase, total in sums.items()}

    @property
    def mean_residual_ms(self) -> float:
        """Mean unattributed time per request (float noise)."""
        if not self.requests:
            return 0.0
        return sum(r.residual for r in self.requests) / len(self.requests)

    def by_class(self) -> dict[str, Attribution]:
        """Per-service-class sub-attributions ("local"/"remote"/...)."""
        groups: dict[str, list[RequestProfile]] = defaultdict(list)
        for r in self.requests:
            groups[r.cls or "?"].append(r)
        return {cls: Attribution(reqs) for cls, reqs in sorted(groups.items())}


def attribute(
    records: Iterable[dict[str, Any]], measured_only: bool = True
) -> Attribution:
    """Full-trace attribution: one :class:`RequestProfile` per request.

    ``measured_only`` drops warm-up requests (profiled client roots are
    marked; plain ``request`` roots are all kept).
    """
    roots, _index = build_trees(records)
    reqs = request_roots(roots, measured_only=measured_only)
    logger.info("attributing %d request roots (%d spans total)",
                len(reqs), len(roots))
    return Attribution([decompose_request(root) for root in reqs])


# ---------------------------------------------------------------------------
# cluster-wide critical-path profile
# ---------------------------------------------------------------------------
def _edge_key(a: CriticalSegment, b: CriticalSegment) -> str:
    a_node = "-" if a.node is None else str(a.node)
    b_node = "-" if b.node is None else str(b.node)
    return f"{a.phase}@{a_node} -> {b.phase}@{b_node}"


def critical_profile(
    records: Iterable[dict[str, Any]],
    top_edges: int = 10,
    measured_only: bool = True,
) -> dict[str, Any]:
    """Cluster-wide critical-path profile over a profiled trace.

    Returns a shared-schema ``critical`` report::

        {"schema_version": ..., "kind": "critical",
         "requests": N,
         "mean_critical_ms": ...,      # == mean response time
         "mean_residual_ms": ...,      # tiling error (float noise)
         "phase_critical_ms": {...},   # total critical ms per phase
         "phase_critical_share": {...},
         "top_edges": [{"edge": "disk.queue@3 -> disk.transfer@3",
                        "count": ..., "ms": ...}, ...]}

    The *edges* are consecutive critical-segment transitions, weighted
    by the downstream segment's duration — they name the hand-offs
    latency flows through, which is where a fix actually lands.
    """
    roots, _index = build_trees(records)
    reqs = request_roots(roots, measured_only=measured_only)
    phase_ms: dict[str, float] = defaultdict(float)
    edges: dict[str, dict[str, float]] = {}
    total_dur = 0.0
    total_attr = 0.0
    for root in reqs:
        path = critical_path(root)
        total_dur += root.dur or 0.0
        prev: CriticalSegment | None = None
        for seg in path:
            phase_ms[seg.phase] += seg.dur
            total_attr += seg.dur
            if prev is not None:
                key = _edge_key(prev, seg)
                stats = edges.get(key)
                if stats is None:
                    stats = edges[key] = {"count": 0, "ms": 0.0}
                stats["count"] += 1
                stats["ms"] += seg.dur
            prev = seg
    n = len(reqs)
    logger.info("critical profile over %d requests (%d edges)",
                n, len(edges))
    ranked = sorted(
        edges.items(), key=lambda kv: (-kv[1]["ms"], kv[0])
    )[:top_edges]
    return as_report("critical", {
        "requests": n,
        "mean_critical_ms": total_dur / n if n else 0.0,
        "mean_residual_ms": (total_dur - total_attr) / n if n else 0.0,
        "phase_critical_ms": dict(sorted(phase_ms.items())),
        "phase_critical_share": {
            phase: ms / total_attr if total_attr else 0.0
            for phase, ms in sorted(phase_ms.items())
        },
        "top_edges": [
            {"edge": key, "count": int(stats["count"]), "ms": stats["ms"]}
            for key, stats in ranked
        ],
    })


# ---------------------------------------------------------------------------
# binding resource (from a metrics snapshot)
# ---------------------------------------------------------------------------
#: Resource classes whose per-node utilization identifies the bottleneck.
RESOURCE_CLASSES = ("cpu", "nic", "bus", "disk")


def binding_resource(metrics: dict[str, Any]) -> dict[str, Any] | None:
    """Name the binding resource from a metrics snapshot.

    Scans ``collected`` entries shaped ``node<N>.<resource>`` for their
    ``utilization`` and returns the resource class with the highest
    cluster-mean utilization::

        {"resource": "disk", "mean": 0.74, "max": 0.83,
         "max_node": "node3",
         "per_resource": {"cpu": {"mean": ..., "max": ..., ...}, ...}}

    Returns None when the snapshot has no per-node utilizations.
    """
    per: dict[str, list[tuple[str, float]]] = defaultdict(list)
    for key, vals in metrics.get("collected", {}).items():
        if "." not in key or not isinstance(vals, dict):
            continue
        node_part, resource = key.split(".", 1)
        if resource in RESOURCE_CLASSES and "utilization" in vals:
            per[resource].append((node_part, float(vals["utilization"])))
    if not per:
        return None
    per_resource: dict[str, dict[str, Any]] = {}
    for resource, samples in per.items():
        max_node, max_util = max(samples, key=lambda s: (s[1], s[0]))
        per_resource[resource] = {
            "mean": sum(u for _n, u in samples) / len(samples),
            "max": max_util,
            "max_node": max_node,
        }
    winner = max(per_resource, key=lambda r: per_resource[r]["mean"])
    info = per_resource[winner]
    return {
        "resource": winner,
        "mean": info["mean"],
        "max": info["max"],
        "max_node": info["max_node"],
        "per_resource": per_resource,
    }


def attribution_to_dict(
    attr: Attribution, metrics: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Machine-readable attribution/bottleneck summary (``analyze --json``).

    The same quantities :func:`repro.obs.reports.render_profile_report`
    prints, as one JSON-ready dict CI and ``repro.bench.compare`` can
    consume without scraping tables.
    """
    out: dict[str, Any] = {
        "requests": attr.count,
        "mean_response_ms": attr.mean_response_ms,
        "mean_residual_ms": attr.mean_residual_ms,
        "phase_means_ms": dict(sorted(attr.phase_means().items())),
        "by_class": {
            cls: {
                "requests": sub.count,
                "mean_response_ms": sub.mean_response_ms,
                "phase_means_ms": dict(sorted(sub.phase_means().items())),
            }
            for cls, sub in attr.by_class().items()
        },
    }
    out["binding_resource"] = (
        binding_resource(metrics) if metrics is not None else None
    )
    return as_report("attribution", out)
