"""Monte Carlo driver: configuration, drop execution, the no-cooperation
baseline, parameter sweeps, aggregation and CSV emission."""

from __future__ import annotations

import csv
import dataclasses
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cdl import CdlConfig, CdlSchedule, schedule_cdl
from .content import (
    CLASS_CELLULAR,
    CLASS_SELF_SATISFIED,
    Catalog,
    ContentState,
    build_content_state,
)
from .ndl import NdlConfig, NdlSchedule, schedule_ndl
from .topology import SimGeometry, Topology, build_topology

MODES = ("coop", "nocoop")

METRIC_FIELDS = (
    "served_crs",
    "served_nrs",
    "cdl_sum_rate_bps",
    "ndl_sum_rate_bps",
    "throughput_bps",
    "self_satisfied",
    "cellular",
    "removal_iterations",
)

CSV_COLUMNS = ("beta", "K", "mode", "drops") + tuple(
    f"{stat}_{name}" for name in METRIC_FIELDS for stat in ("mean", "stderr")
)


@dataclass
class SimConfig:
    """Full experiment description; scalar cell fields drive single runs,
    the ``betas``/``user_counts`` lists drive sweeps."""

    # hotspot and catalog
    side_m: float = 100.0
    num_files: int = 200
    cache_size: int = 10
    num_popular: int = 100
    # single-run cell
    num_users: int = 30
    zipf_beta: float = 1.2
    mode: str = "coop"
    # sweep axes
    betas: list = field(default_factory=lambda: [0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6])
    user_counts: list = field(default_factory=lambda: [20, 30, 40])
    # radio parameters
    pmax_dbm: float = 23.0
    noise_dbm: float = -90.0
    cdl_bandwidth_hz: float = 10e6
    ndl_bandwidth_hz: float = 10e6
    d2d_radius_m: float = 30.0
    rmin_bps_per_hz: float = 3.0
    sus_epsilon: float = 0.75
    allow_full_rank: bool = True
    weight_mode: str = "reciprocal"
    # experiment control
    drops: int = 500
    base_seed: int = 1
    workers: int = 1

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.drops < 1:
            raise ValueError("drops must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.betas or not self.user_counts:
            raise ValueError("betas and user_counts must be non-empty")
        self.geometry().validate()
        self.catalog().validate()
        self.cdl_config().validate()
        self.ndl_config().validate()

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path) -> "SimConfig":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def geometry(self, num_users: int | None = None) -> SimGeometry:
        return SimGeometry(
            side_m=self.side_m,
            num_users=self.num_users if num_users is None else num_users,
            d2d_radius_m=self.d2d_radius_m,
        )

    def catalog(self, beta: float | None = None) -> Catalog:
        return Catalog(
            num_files=self.num_files,
            cache_size=self.cache_size,
            num_popular=self.num_popular,
            zipf_beta=self.zipf_beta if beta is None else beta,
        )

    def cdl_config(self) -> CdlConfig:
        return CdlConfig(
            bandwidth_hz=self.cdl_bandwidth_hz,
            epsilon=self.sus_epsilon,
            rmin_bps_per_hz=self.rmin_bps_per_hz,
            pmax_dbm=self.pmax_dbm,
            noise_dbm=self.noise_dbm,
            allow_full_rank=self.allow_full_rank,
        )

    def ndl_config(self, bandwidth_hz: float | None = None) -> NdlConfig:
        return NdlConfig(
            bandwidth_hz=self.ndl_bandwidth_hz if bandwidth_hz is None else bandwidth_hz,
            radius_m=self.d2d_radius_m,
            rmin_bps_per_hz=self.rmin_bps_per_hz,
            pmax_dbm=self.pmax_dbm,
            noise_dbm=self.noise_dbm,
            weight_mode=self.weight_mode,
        )


@dataclass
class DropMetrics:
    """Scalar outcomes of one Monte Carlo drop."""

    served_crs: int = 0
    served_nrs: int = 0
    cdl_sum_rate_bps: float = 0.0
    ndl_sum_rate_bps: float = 0.0
    throughput_bps: float = 0.0
    self_satisfied: int = 0
    cellular: int = 0
    removal_iterations: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class DropResult:
    """One drop with all intermediate state kept for inspection."""

    topology: Topology
    content: ContentState
    cdl_schedule: CdlSchedule
    ndl_schedule: NdlSchedule
    metrics: DropMetrics


def run_pipeline(
    topology: Topology,
    content: ContentState,
    config: SimConfig,
    mode: str,
) -> DropResult:
    """Schedule CDLs then NDLs on a fixed (topology, content) realization."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "coop":
        # band split is preset and fixed, even on drops with no coop group
        ndl_bandwidth = config.ndl_bandwidth_hz
        if content.coop_group is not None:
            cdl_schedule = schedule_cdl(
                content.caching_sets[content.coop_group],
                content.demand_sets[content.coop_group],
                topology,
                config.cdl_config(),
            )
        else:
            cdl_schedule = CdlSchedule.empty()
    else:
        cdl_schedule = CdlSchedule.empty()
        ndl_bandwidth = config.cdl_bandwidth_hz + config.ndl_bandwidth_hz

    # Users carrying an established CDL are busy; an empty CDL frees everyone.
    excluded: set[int] = set()
    if cdl_schedule.num_served > 0:
        excluded = set(cdl_schedule.transmitters.tolist())
        excluded.update(cdl_schedule.receivers.tolist())

    ndl_schedule = schedule_ndl(
        topology, content, config.ndl_config(ndl_bandwidth), excluded
    )

    cdl_rate = cdl_schedule.sum_rate_bps
    ndl_rate = ndl_schedule.sum_rate_bps
    metrics = DropMetrics(
        served_crs=cdl_schedule.num_served,
        served_nrs=ndl_schedule.num_served,
        cdl_sum_rate_bps=cdl_rate,
        ndl_sum_rate_bps=ndl_rate,
        throughput_bps=cdl_rate + ndl_rate,
        self_satisfied=content.classes.count(CLASS_SELF_SATISFIED),
        cellular=content.classes.count(CLASS_CELLULAR),
        removal_iterations=ndl_schedule.removal_iterations,
    )
    return DropResult(topology, content, cdl_schedule, ndl_schedule, metrics)


def simulate_drop(
    config: SimConfig,
    seed: int,
    *,
    num_users: int | None = None,
    beta: float | None = None,
    mode: str | None = None,
) -> DropResult:
    """Run the full per-drop pipeline: topology, content, CDLs, then NDLs.

    Deterministic in (config, seed); coop and nocoop runs with the same seed
    share the topology and content realization and differ only in scheduling.
    """
    mode = config.mode if mode is None else mode
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    geometry = config.geometry(num_users)
    geometry.validate()
    catalog = config.catalog(beta)
    catalog.validate()

    rng = np.random.default_rng(seed)
    topology = build_topology(geometry, rng)
    content = build_content_state(
        catalog, rng, topology.distances, config.d2d_radius_m, cooperate=mode == "coop"
    )
    return run_pipeline(topology, content, config, mode)


def run_drop(config: SimConfig, seed: int, **cell) -> DropMetrics:
    """Metrics of one cooperative-mode drop (or the configured mode)."""
    return simulate_drop(config, seed, **cell).metrics


def run_nocoop_drop(config: SimConfig, seed: int, **cell) -> DropMetrics:
    """Baseline drop: every group runs the NDL pipeline over the whole band."""
    cell.pop("mode", None)
    return simulate_drop(config, seed, mode="nocoop", **cell).metrics


def aggregate_metrics(metrics_list) -> dict:
    """Mean and standard error of every metric over a list of drops."""
    out: dict[str, float] = {}
    count = len(metrics_list)
    for name in METRIC_FIELDS:
        values = np.array([getattr(m, name) for m in metrics_list], dtype=float)
        out[f"mean_{name}"] = float(values.mean()) if count else 0.0
        out[f"stderr_{name}"] = (
            float(values.std(ddof=1) / np.sqrt(count)) if count > 1 else 0.0
        )
    return out


def run_cell(
    config: SimConfig,
    *,
    num_users: int,
    beta: float,
    mode: str,
    drops: int | None = None,
) -> dict:
    """Aggregate one (beta, K, mode) cell over its configured drops.

    Drop seeds are ``base_seed + drop_index``; drops may execute on a thread
    pool, with aggregation done in drop order for bit-stable output.
    """
    drops = config.drops if drops is None else drops

    def one(index: int) -> DropMetrics:
        return run_drop(
            config, config.base_seed + index, num_users=num_users, beta=beta, mode=mode
        )

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            metrics = list(pool.map(one, range(drops)))
    else:
        metrics = [one(index) for index in range(drops)]

    row: dict = {"beta": beta, "K": num_users, "mode": mode, "drops": drops}
    row.update(aggregate_metrics(metrics))
    return row


def run_sweep(config: SimConfig, modes=MODES) -> list[dict]:
    """Cells for every (beta, K, mode) combination in a fixed row order."""
    rows = []
    for beta in config.betas:
        for num_users in config.user_counts:
            for mode in modes:
                rows.append(
                    run_cell(config, num_users=num_users, beta=beta, mode=mode)
                )
    return rows


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # repr round-trips float64 exactly and never uses locale separators
    return repr(float(value))


def write_results(rows, path) -> Path:
    """Emit the results table as CSV with a fixed column order."""
    if not rows:
        raise ValueError("results table is empty")
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([_format_value(row[col]) for col in CSV_COLUMNS])
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
    return path


def read_results(path) -> list[dict]:
    """Parse a results CSV back into the in-memory row form."""
    rows = []
    with open(path, encoding="utf-8", newline="") as handle:
        for record in csv.DictReader(handle):
            row: dict = {
                "beta": float(record["beta"]),
                "K": int(record["K"]),
                "mode": record["mode"],
                "drops": int(record["drops"]),
            }
            for column in CSV_COLUMNS[4:]:
                row[column] = float(record[column])
            rows.append(row)
    return rows
