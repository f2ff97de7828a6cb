"""In-memory span tracing around the library's module-level entry points.

The library is not edited: :meth:`Tracer.replacements` lists wrappers for
the module attributes the pipeline calls through (``harness.schedule_cdl``,
``cdl.allocate_cdl_power``, ``numerics.solve_linear``, ...), and
:func:`patched` swaps them in for the duration of a traced run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field

from d2dcache import cdl, cli, harness, ndl, numerics


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    drop_seed: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@contextlib.contextmanager
def patched(replacements):
    """Set ``module.attr = value`` for each triple, restoring on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    for module, attr, value in replacements:
        setattr(module, attr, value)
    try:
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _describe_cdl_power(args, kwargs, result):
    if result is None:
        return {"infeasible": True}
    return {"iterations": result.iterations, "converged": result.converged}


def _describe_removal(args, kwargs, result):
    return {
        "selected": len(args[0]),
        "kept": len(result.kept),
        "iterations": result.iterations,
    }


def _describe_dca(args, kwargs, result):
    # a one-point trajectory means the start powers came back unchanged
    return {
        "iterations": result.iterations,
        "no_gain": len(result.objective_trajectory) == 1,
    }


# (module, attribute, span name, describe(args, kwargs, result) -> attrs).
# The attribute is the name the caller looks up at call time, so functions
# imported into harness/cli are wrapped there, not in their home module.
TRACED_CALLS = (
    (cli, "main", "cli.main", None),
    (cli, "run_sweep", "harness.run_sweep", None),
    (cli, "write_results", "harness.write_results", None),
    (harness, "write_results", "harness.write_results", None),
    (harness, "run_cell", "harness.run_cell", None),
    (harness, "aggregate_metrics", "harness.aggregate_metrics", None),
    (harness, "run_drop", "harness.run_drop", None),
    (harness, "build_topology", "topology.build_topology", None),
    (harness, "build_content_state", "content.build_content_state", None),
    (harness, "schedule_cdl", "cdl.schedule_cdl", None),
    (cdl, "allocate_cdl_power", "cdl.allocate_cdl_power", _describe_cdl_power),
    (numerics, "gs_residual", "numerics.gs_residual", None),
    (numerics, "zf_precoder", "numerics.zf_precoder", None),
    (numerics, "projected_dual_ascent", "numerics.projected_dual_ascent", None),
    (harness, "schedule_ndl", "ndl.schedule_ndl", None),
    (ndl, "build_candidates", "ndl.build_candidates", None),
    (ndl, "nt_nr_decision", "ndl.nt_nr_decision", None),
    (ndl, "select_links", "ndl.select_links", None),
    (numerics, "max_weight_matching", "numerics.max_weight_matching", None),
    (ndl, "link_gain_matrix", "ndl.link_gain_matrix", None),
    (ndl, "check_and_remove", "ndl.check_and_remove", _describe_removal),
    (numerics, "solve_linear", "numerics.solve_linear", None),
    (ndl, "dc_power_allocation", "ndl.dc_power_allocation", _describe_dca),
)

DROP_SPAN = "harness.run_drop"


class Tracer:
    """Collects spans in memory; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def replacements(self):
        return [
            (module, attr, self.wrap(getattr(module, attr), name, describe))
            for module, attr, name, describe in TRACED_CALLS
        ]

    def wrap(self, function, name, describe=None):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent_id, seed = stack[-1] if stack else (None, None)
            if name == DROP_SPAN:
                seed = int(args[1])  # run_drop(config, seed, ...)
            span_id = next(tracer._ids)
            attrs = {}
            stack.append((span_id, seed))
            start = time.perf_counter_ns()
            try:
                result = function(*args, **kwargs)
                if describe is not None:
                    attrs = describe(args, kwargs, result)
                return result
            except Exception as exc:
                attrs = {"error": type(exc).__name__}
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, name, start, end, parent_id, seed, attrs)
                )

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def write_jsonl(spans, path) -> None:
    """One JSON object per span, in id order."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in sorted(spans, key=lambda s: s.span_id):
            record = {
                "id": span.span_id,
                "name": span.name,
                "start_ns": span.start_ns,
                "end_ns": span.end_ns,
                "parent": span.parent,
                "drop_seed": span.drop_seed,
            }
            record.update(span.attrs)
            handle.write(json.dumps(record) + "\n")


def self_times_ns(spans) -> dict[int, int]:
    """Span duration minus the time its direct children cover.

    Children of one span run on the parent's thread, one after another, so
    their durations do not overlap and can simply be subtracted.
    """
    own = {span.span_id: span.duration_ns for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration_ns
    return own


def percentile(values, q: int) -> float:
    """The q-th percentile (statistics' exclusive method); 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[q - 1])


def _share(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


# span name -> metric prefix reported as ``<prefix>.self_ms_per_drop``
SELF_TIME_LAYERS = (
    "topology.build_topology",
    "content.build_content_state",
    "cdl.schedule_cdl",
    "cdl.allocate_cdl_power",
    "numerics.projected_dual_ascent",
    "numerics.zf_precoder",
    "numerics.solve_linear",
    "numerics.max_weight_matching",
    "ndl.schedule_ndl",
    "ndl.build_candidates",
    "ndl.nt_nr_decision",
    "ndl.select_links",
    "ndl.link_gain_matrix",
    "ndl.check_and_remove",
    "ndl.dc_power_allocation",
    "harness.run_drop",
)

CALL_COUNT_LAYERS = (
    "cdl.schedule_cdl",
    "cdl.allocate_cdl_power",
    "numerics.gs_residual",
    "numerics.solve_linear",
)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by metric name (no units)."""
    own = self_times_ns(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    drops = named(DROP_SPAN)
    num_drops = len(drops)
    drop_ns = sum(span.duration_ns for span in drops)
    out: dict[str, float] = {}

    for name in SELF_TIME_LAYERS:
        total = sum(own[span.span_id] for span in named(name))
        out[f"{name}.self_ms_per_drop"] = _share(total / 1e6, num_drops)
    for name in CALL_COUNT_LAYERS:
        out[f"{name}.calls_per_drop"] = _share(len(named(name)), num_drops)
    for name in ("cdl.allocate_cdl_power", "ndl.dc_power_allocation"):
        inclusive = sum(span.duration_ns for span in named(name))
        out[f"{name}.total_share"] = _share(inclusive, drop_ns)

    power = named("cdl.allocate_cdl_power")
    feasible = [s for s in power if "iterations" in s.attrs]
    dual_iters = [s.attrs["iterations"] for s in feasible]
    out["cdl.allocate_cdl_power.infeasible_share"] = _share(
        sum(1 for s in power if s.attrs.get("infeasible")), len(power)
    )
    out["cdl.dual_iterations_p50"] = percentile(dual_iters, 50)
    out["cdl.dual_iterations_p95"] = percentile(dual_iters, 95)
    out["cdl.unconverged_share"] = _share(
        sum(1 for s in feasible if not s.attrs["converged"]), len(feasible)
    )

    for name in ("numerics.zf_precoder", "numerics.solve_linear"):
        calls = named(name)
        # both signal a rank-deficient system by raising
        out[f"{name}.singular_share"] = _share(
            sum(1 for s in calls if "error" in s.attrs), len(calls)
        )

    removal = named("ndl.check_and_remove")
    out["ndl.removal_iterations_per_drop"] = _share(
        sum(s.attrs["iterations"] for s in removal), num_drops
    )
    out["ndl.links_kept_share"] = _share(
        sum(s.attrs["kept"] for s in removal), sum(s.attrs["selected"] for s in removal)
    )
    dca = named("ndl.dc_power_allocation")
    dca_iters = [s.attrs["iterations"] for s in dca]
    out["ndl.dca_iterations_p50"] = percentile(dca_iters, 50)
    out["ndl.dca_iterations_p95"] = percentile(dca_iters, 95)
    out["ndl.dca_no_gain_share"] = _share(
        sum(1 for s in dca if s.attrs["no_gain"]), len(dca)
    )

    for name in ("harness.aggregate_metrics", "harness.write_results"):
        calls = named(name)
        out[f"{name}.self_ms"] = _share(
            sum(own[s.span_id] for s in calls) / 1e6, len(calls)
        )
    mains = named("cli.main")
    sweeps = {s.parent: s.duration_ns for s in named("harness.run_sweep")}
    out["cli.overhead_ms"] = _share(
        sum(s.duration_ns - sweeps.get(s.span_id, 0) for s in mains) / 1e6, len(mains)
    )
    return out
