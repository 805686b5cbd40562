"""Traced run: benchmark-side spans around each layer's public functions.

:class:`LayerProbe` installs a ``repro.obs.Tracer`` with ``use_tracer`` —
so the program's own ``cell``, ``chain``, ``solve``, ``solve.seed``,
``service.compile`` and ``analyze.*`` spans record — and, for the same
scope, replaces public functions of each layer with wrappers that open a
span around the original. Everything is restored on exit; no span is
added inside ``src/``.

Wrappers patch the name where callers look it up: a function imported
into another module by name is patched in that module.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
from collections import defaultdict

#: (module, owner attribute or None, function name, span name).
TARGETS = (
    ("repro.api.scenario", "Scenario", "key", "api.scenario.key"),
    ("repro.api.service", "LibraService", "submit", "api.service.submit"),
    ("repro.explore.cache", "ResultCache", "get", "explore.cache.get"),
    ("repro.explore.cache", "ResultCache", "put", "explore.cache.put"),
    ("repro.explore.executor", None, "build_chains", "explore.chains.plan"),
    ("repro.explore", None, "run_sweep", "explore.executor.run_sweep"),
    ("repro.core.solver", None, "build_seeds", "core.solver.seed"),
    ("repro.strategy.space", "StrategySpace", "split", "strategy.space.split"),
    ("repro.strategy.search", None, "solve_point", "strategy.search.cell"),
    ("repro.strategy.frontier", None, "build_frontier", "strategy.frontier.build"),
    ("repro.serve.http", "ServeHandler", "do_GET", "serve.http.get"),
    ("repro.serve.http", "ServeHandler", "do_POST", "serve.http.post"),
)

#: Span that roots one computed op, per workload. ``bench.op`` is opened
#: by the benchmark around each serve request.
OP_ROOT = {
    "sweep": "cell",
    "costrategy": "strategy.search.cell",
    "serve": "bench.op",
}


def _annotate(span, args, result) -> None:
    """Attributes the layer metrics read off a wrapper span."""
    if span.name == "api.service.submit":
        span.set("kind", type(args[1]).__name__)
        if hasattr(result, "memo_hit"):
            span.set("memo_hit", bool(result.memo_hit))


class LayerProbe:
    """Scope in which the tracer and every layer wrapper are installed."""

    def __init__(self):
        from repro.obs import Tracer

        self.tracer = Tracer()

    def _wrap(self, original, name):
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
                _annotate(span, args, result)
                return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        import importlib

        from repro.obs import use_tracer

        restore = []
        try:
            for module_name, owner_name, attr, span_name in TARGETS:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                original = owner.__dict__[attr]
                restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span_name))
            with use_tracer(self.tracer):
                yield self.tracer
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def op(self):
        """A span around one serve request (the serve op root)."""
        return self.tracer.span(OP_ROOT["serve"])


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> dict[str, float]:
    """Per span name: total self time (duration minus direct children)."""
    by_tid = defaultdict(list)
    for span in spans:
        by_tid[span.tid].append(span)
    totals: dict[str, float] = defaultdict(float)
    for group in by_tid.values():
        group.sort(key=lambda s: (s.wall_at, -s.duration_s))
        for index, span in enumerate(group):
            child_time = 0.0
            end = span.wall_at + span.duration_s
            for other in group[index + 1:]:
                if other.wall_at >= end:
                    break
                if other.depth == span.depth + 1:
                    child_time += other.duration_s
            totals[span.name] += span.duration_s - child_time
    return dict(totals)


def unattributed_share(spans, root_name: str) -> float:
    """Share of op-root time that no other named span covers.

    For each root span, coverage is the union of the spans that start
    inside it — nested on its own thread, or on another thread, as a
    serve op's server-side work is — clipped to the root interval.
    """
    ordered = sorted(spans, key=lambda s: s.wall_at)
    starts = [span.wall_at for span in ordered]
    total = uncovered = 0.0
    for root in ordered:
        if root.name != root_name:
            continue
        lo, hi = root.wall_at, root.wall_at + root.duration_s
        intervals = [
            (span.wall_at, min(span.wall_at + span.duration_s, hi))
            for span in ordered[bisect.bisect_left(starts, lo):bisect.bisect_left(starts, hi)]
            if span is not root and (span.tid != root.tid or span.depth > root.depth)
        ]
        total += hi - lo
        uncovered += (hi - lo) - _union_length(intervals)
    return uncovered / total if total else 0.0


def _mean(spans, scale: float = 1e3) -> float:
    """Mean duration of ``spans`` in ms (``scale=1e6``: µs); 0 for none."""
    spans = list(spans)
    return sum(s.duration_s for s in spans) / len(spans) * scale if spans else 0.0


def layer_metrics(spans, workload: str) -> dict[str, float]:
    """Per-layer times read off the spans of the traced units."""
    named = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    # Top-level solver entry points: a PerfPerCost solve runs a PerfOpt
    # solve inside it, which is part of the outer call.
    top_solves = [s for s in named["solve"] if not _inside(s, named["solve"])]

    def solve_time_in(outer) -> float:
        return sum(c.duration_s for c in top_solves if _contains(outer, c))

    submit_overhead = [
        s.duration_s - solve_time_in(s)
        for s in named["api.service.submit"] if s.attrs.get("kind") == "OptimizeRequest"
    ]
    # Replays solve nothing; only sweeps that computed cells count.
    sweeps = [
        w for w in named["explore.executor.run_sweep"]
        if any(_contains(w, c) for c in named["cell"])
    ]
    sweep_cells = sum(1 for c in named["cell"] if any(_contains(w, c) for w in sweeps))
    analyses = [
        s for s in named["api.service.submit"] if s.attrs.get("kind") == "AnalyzeRequest"
    ]
    return {
        "api.scenario.key_us": _mean(named["api.scenario.key"], 1e6),
        "api.service.compile_ms": _mean(named["service.compile"]),
        "api.service.submit_overhead_ms": (
            sum(submit_overhead) / len(submit_overhead) * 1e3 if submit_overhead else 0.0
        ),
        "explore.cache.get_us": _mean(named["explore.cache.get"], 1e6),
        "explore.cache.put_us": _mean(named["explore.cache.put"], 1e6),
        "explore.chains.plan_ms": _mean(named["explore.chains.plan"]),
        "explore.executor.overhead_ms_per_cell": (
            sum(w.duration_s - solve_time_in(w) for w in sweeps) / sweep_cells * 1e3
            if sweep_cells else 0.0
        ),
        "core.solver.cold_ms": _mean(s for s in top_solves if s.attrs.get("warm") == "cold"),
        "core.solver.warm_ms": _mean(
            s for s in top_solves if s.attrs.get("warm") == "accepted"
        ),
        "core.solver.seed_ms": (
            sum(s.duration_s for s in named["core.solver.seed"]) / len(top_solves) * 1e3
            if top_solves else 0.0
        ),
        "strategy.space.split_ms": _mean(named["strategy.space.split"]),
        "strategy.search.cell_ms": _mean(named["strategy.search.cell"]),
        "strategy.frontier.build_ms": _mean(named["strategy.frontier.build"]),
        "analysis.structure_ms": _mean(named["analyze.structure"]),
        "analysis.whatif_ms": _mean(named["analyze.whatif"]),
        "analysis.memo_hit_ratio": (
            sum(bool(s.attrs.get("memo_hit")) for s in analyses) / len(analyses)
            if analyses else 0.0
        ),
        "bench.unattributed_share": unattributed_share(spans, OP_ROOT[workload]),
    }


def _contains(outer, inner) -> bool:
    if outer is inner:
        return False
    return (
        outer.wall_at <= inner.wall_at
        and inner.wall_at + inner.duration_s <= outer.wall_at + outer.duration_s + 1e-9
    )


def _inside(span, candidates) -> bool:
    return any(
        other.tid == span.tid and other.depth < span.depth and _contains(other, span)
        for other in candidates
    )
