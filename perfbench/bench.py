"""Workloads, timed and traced passes, and the metrics they report.

Each workload is a closed loop: one thread runs work units (a
``harness.run_cell`` chunk of drops, or one ``cli.main`` sweep) one after
another until the time is up, and drop i of a cell uses seed + i.  Between
units, with the clock stopped, every drop of the unit goes through
:mod:`checker`.  A second pass replays units with workers=1 and must
reproduce their ``results.csv`` byte for byte: all of them, traced by
:mod:`tracer`, for the per-layer metrics, or only the first as a spot check
otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from d2dcache import cli, harness

import checker
import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                  # "cell": harness.run_cell; "sweep": cli.main sweep
    workers: int
    unit_drops: int            # drops per cell in one work unit
    min_units: int             # units always run; quality is measured on these
    num_users: int = 30
    beta: float = 1.2
    mode: str = "coop"
    betas: tuple = ()
    user_counts: tuple = ()

    def cells(self) -> int:
        return 1 if self.kind == "cell" else 2 * len(self.betas) * len(self.user_counts)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="coop_k30",
            why="the paper's calibrated cell; CDL power allocation dominates, "
            "so it exercises any CDL-solver change",
            kind="cell", workers=1, unit_drops=8, min_units=30,
            num_users=30, beta=1.2, mode="coop",
        ),
        Workload(
            name="nocoop_k100",
            why="no CDL work (control for CDL changes); the only load where NDL "
            "roles, matching and removal are large next to DCA",
            kind="cell", workers=1, unit_drops=8, min_units=30,
            num_users=100, beta=0.6, mode="nocoop",
        ),
        Workload(
            name="sweep_w2",
            why="cli sweep over both modes with workers=2: drop-level parallelism, "
            "config loading and CSV emission, coop and nocoop cells mixed",
            kind="sweep", workers=2, unit_drops=3, min_units=13,
            betas=(0.6, 1.2), user_counts=(20, 40),
        ),
    )
}


def workload_config(workload: Workload) -> harness.SimConfig:
    """The generated experiment config; the only input the program receives
    besides the drop seeds."""
    config = harness.SimConfig(
        num_users=workload.num_users,
        zipf_beta=workload.beta,
        mode=workload.mode,
        drops=workload.unit_drops,
        workers=workload.workers,
    )
    if workload.kind == "sweep":
        config.betas = list(workload.betas)
        config.user_counts = list(workload.user_counts)
    config.validate()
    return config


def warm_up(config: harness.SimConfig) -> None:
    """One small drop per mode, so lazy imports and first-call costs in numpy
    and scipy are paid before timing starts.  The seed is fixed: set-up time
    should not depend on the workload seed."""
    for mode in harness.MODES:
        harness.run_drop(config, 0, num_users=10, beta=config.zipf_beta, mode=mode)


class DropTimer:
    """Wall time of each ``harness.run_drop`` call; safe under worker threads
    because ``list.append`` is atomic."""

    def __init__(self):
        self.ms: list[float] = []

    def replacements(self):
        run_drop = harness.run_drop

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return run_drop(*args, **kwargs)
            finally:
                self.ms.append((time.perf_counter() - start) * 1e3)

        return [(harness, "run_drop", timed)]


class DropCapture:
    """Keeps the full ``DropResult`` of each drop so it can be checked after
    its work unit returns."""

    def __init__(self):
        self.pending: list = []   # (cell key, DropResult)

    def replacements(self):
        simulate_drop = harness.simulate_drop

        def capture(config, seed, **cell):
            drop = simulate_drop(config, seed, **cell)
            key = (seed, cell.get("mode", config.mode), cell.get("num_users"), cell.get("beta"))
            self.pending.append((key, drop))
            return drop

        return [(harness, "simulate_drop", capture)]


class UnitRunner:
    """Runs work unit j of a workload, drop seeds seed + j * unit_drops
    onward, and leaves its results.csv in ``out/unitJJJ``."""

    def __init__(self, workload: Workload, seed: int, out: Path):
        self.workload = workload
        self.config = workload_config(workload)
        self.seed = seed
        self.out = out

    def run(self, index: int, workers: int) -> list[dict]:
        w = self.workload
        unit_dir = self.out / f"unit{index:03d}"
        unit_dir.mkdir(parents=True, exist_ok=True)
        config = dataclasses.replace(
            self.config, base_seed=self.seed + index * w.unit_drops, workers=workers
        )
        if w.kind == "cell":
            rows = [harness.run_cell(config, num_users=w.num_users, beta=w.beta, mode=w.mode)]
            harness.write_results(rows, unit_dir / "results.csv")
            return rows
        config_path = unit_dir / "config.json"
        config_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["sweep", "--config", str(config_path), "--out", str(unit_dir)])
        if status != 0:
            raise RuntimeError(f"d2dcache sweep exited with status {status}")
        return harness.read_results(unit_dir / "results.csv")


@dataclass
class PassResult:
    rows: dict                 # unit index -> results rows, or None if it raised
    errors: list = dataclasses.field(default_factory=list)
    busy_s: float = 0.0        # wall time spent inside work units
    failed_drops: set = dataclasses.field(default_factory=set)


def run_units(runner: UnitRunner, indices, workers: int, replacements, keep_going=None):
    """Runs units in order under the given patches, checking each unit's
    drops after it returns; only the units themselves are timed.

    ``indices`` is an iterable of unit indices; with ``keep_going`` (a
    predicate on the pass so far) it is consumed until that returns False.
    """
    capture = DropCapture()
    result = PassResult({})
    with tracer.patched(capture.replacements() + replacements):
        for index in indices:
            if keep_going is not None and not keep_going(result):
                break
            start = time.perf_counter()
            try:
                result.rows[index] = runner.run(index, workers)
            except Exception:
                result.errors.append(traceback.format_exc())
                result.rows[index] = None
            result.busy_s += time.perf_counter() - start
            for key, drop in capture.pending:
                problems = checker.check_drop(drop, runner.config, key[1])
                if problems:
                    result.failed_drops.add(key)
                    result.errors.append(f"drop {key}: " + "; ".join(problems))
            capture.pending.clear()
    return result


def same_csvs(left: Path, right: Path, indices) -> bool:
    """Each listed unit's results.csv exists in both passes with identical bytes."""
    for index in indices:
        a = left / f"unit{index:03d}" / "results.csv"
        b = right / f"unit{index:03d}" / "results.csv"
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            return False
    return bool(indices)


def quality(rows: list) -> tuple[float, float]:
    """Drop-weighted mean throughput (Mb/s) and served users (CRs + NRs)."""
    drops = sum(row["drops"] for row in rows)
    throughput = sum(row["mean_throughput_bps"] * row["drops"] for row in rows)
    served = sum(
        (row["mean_served_crs"] + row["mean_served_nrs"]) * row["drops"] for row in rows
    )
    return throughput / drops / 1e6, served / drops


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its finished children (Linux
    reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, out: Path):
    """Timed pass, then the replay: traced over every unit with ``trace``,
    otherwise of the first unit only.

    Returns (metrics, report): ``metrics`` maps name -> value for the mode's
    metric set; ``report`` holds the counts and correctness verdict.
    """
    timer = DropTimer()
    timed = run_units(
        UnitRunner(workload, seed, out / "timed"), itertools.count(), workload.workers,
        timer.replacements(),
        keep_going=lambda r: len(r.rows) < workload.min_units or r.busy_s < seconds,
    )
    rss = peak_rss_mb()
    units = len(timed.rows)
    spans = tracer.Tracer()
    replayed = list(range(units)) if trace else [0]
    replay = run_units(
        UnitRunner(workload, seed, out / "replay"), replayed, 1,
        spans.replacements() if trace else [],
    )

    drops_per_unit = workload.unit_drops * workload.cells()
    attempted = units * drops_per_unit
    # a unit that raised loses all its drops; otherwise count checker findings
    broken = {i for p in (timed, replay) for i, rows in p.rows.items() if rows is None}
    failed = min(
        attempted,
        len(broken) * drops_per_unit + len(timed.failed_drops | replay.failed_drops),
    )
    completed = attempted - len(broken) * drops_per_unit
    drops_per_s = completed / timed.busy_s

    if trace:
        metrics = tracer.layer_metrics(spans.spans)
        busy_ns = sum(s.duration_ns for s in spans.spans if s.name == tracer.DROP_SPAN)
        metrics["harness.drop_ms_p95"] = tracer.percentile(timer.ms, 95)
        metrics["harness.parallel_efficiency"] = busy_ns / 1e9 / (
            timed.busy_s * workload.workers
        )
        metrics["trace_overhead_share"] = 1.0 - (completed / replay.busy_s) / drops_per_s
        metrics["checker.failed_drop_share"] = failed / attempted
        tracer.write_jsonl(spans.spans, out / "spans.jsonl")
    else:
        quality_rows = [
            row for i in range(min(units, workload.min_units)) if timed.rows[i] is not None
            for row in timed.rows[i]
        ]
        throughput, served = quality(quality_rows) if quality_rows else (0.0, 0.0)
        metrics = {
            "drops_per_s": drops_per_s,
            "drop_ms_p50": statistics.median(timer.ms),
            "peak_rss_mb": rss,
            "mean_throughput_mbps": throughput,
            "mean_served_users": served,
            "ok_drop_share": 1.0 - failed / attempted,
        }
    report = {
        "attempted": attempted,
        "failed": failed,
        "failed_drop_share": failed / attempted,
        "drop_samples": len(timer.ms),
        "units": units,
        "timed_busy_s": timed.busy_s,
        "replayed_units": len(replayed),
        "replay_busy_s": replay.busy_s,
        "csv_identical": same_csvs(out / "timed", out / "replay", replayed),
        "errors": timed.errors + replay.errors,
    }
    return metrics, report


def machine() -> dict:
    """Where the numbers came from; they compare only on like hardware."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "d2dcache").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }
