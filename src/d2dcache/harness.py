"""Monte Carlo driver: configuration, drop execution, service-class counts,
the no-cooperation baseline, parameter sweeps, aggregation and CSV emission."""

from __future__ import annotations

import csv
import dataclasses
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cdl import CdlConfig, CdlSchedule, schedule_cdl
from .content import Catalog, ContentState, build_content_state
from .ndl import NdlConfig, NdlSchedule, cachers_in_range, schedule_ndl
from .topology import FieldError, SimGeometry, Topology, build_topology

MODES = ("coop", "nocoop")


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


# the CSV columns follow DropMetrics' field order
METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(DropMetrics))

CSV_COLUMNS = ("beta", "K", "mode", "drops") + tuple(
    f"{stat}_{name}" for name in METRIC_FIELDS for stat in ("mean", "stderr")
)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # json.load also gives NaN and Infinity: the sub-configs refuse them
    return _is_integer(value) or isinstance(value, (float, np.floating))


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
    # accepted and validated so saved configs and --workers keep working;
    # drops always run serially in the calling thread
    workers: int = 1

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_integer(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not _is_real(value):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if f.type == "bool" and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be true or false, got {value!r}")
        if not isinstance(self.user_counts, list) or not all(
            map(_is_integer, self.user_counts)
        ):
            raise ValueError(
                f"user_counts must be a list of integers, got {self.user_counts!r}"
            )
        if not isinstance(self.betas, list) or not all(map(_is_real, self.betas)):
            raise ValueError(f"betas must be a list of numbers, got {self.betas!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.drops < 1:
            raise ValueError("drops must be >= 1")
        # drop seeds are base_seed + i, and numpy seeds must be non-negative
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.betas or not self.user_counts:
            raise ValueError("betas and user_counts must be non-empty")
        # every sweep cell is checked before the first one runs, each axis
        # entry under the key and index the user wrote
        self.geometry()
        for i, num_users in enumerate(self.user_counts):
            with _under_keys(num_users=f"user_counts[{i}]"):
                self.geometry(num_users)
        self.catalog()
        for i, beta in enumerate(self.betas):
            with _under_keys(zipf_beta=f"betas[{i}]"):
                self.catalog(beta)
        self.cdl_config()
        self.ndl_config()
        # the nocoop baseline gives its NDLs both bands
        self.ndl_config(self.cdl_bandwidth_hz + self.ndl_bandwidth_hz)

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        if not isinstance(data, dict):
            raise ValueError(
                f"config must be a JSON object, got {type(data).__name__}"
            )
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
        with _under_keys(bandwidth_hz="cdl_bandwidth_hz", epsilon="sus_epsilon"):
            return CdlConfig(
                bandwidth_hz=self.cdl_bandwidth_hz,
                epsilon=self.sus_epsilon,
                rmin_bps_per_hz=self.rmin_bps_per_hz,
                pmax_dbm=self.pmax_dbm,
                noise_dbm=self.noise_dbm,
                allow_full_rank=self.allow_full_rank,
            )

    def ndl_config(self, bandwidth_hz: float | None = None) -> NdlConfig:
        band_key = "ndl_bandwidth_hz" if bandwidth_hz is None else "bandwidth_hz"
        with _under_keys(bandwidth_hz=band_key, radius_m="d2d_radius_m"):
            return NdlConfig(
                bandwidth_hz=self.ndl_bandwidth_hz if bandwidth_hz is None else bandwidth_hz,
                radius_m=self.d2d_radius_m,
                rmin_bps_per_hz=self.rmin_bps_per_hz,
                pmax_dbm=self.pmax_dbm,
                noise_dbm=self.noise_dbm,
                weight_mode=self.weight_mode,
            )


@contextmanager
def _under_keys(**keys):
    """Raise a sub-config's FieldError again under the key ``keys`` gives it."""
    try:
        yield
    except FieldError as exc:
        if exc.name not in keys:
            raise
        raise FieldError(keys[exc.name], exc.value, exc.rule) from None


@dataclass
class DropResult:
    """One drop with all intermediate state kept for inspection."""

    topology: Topology
    content: ContentState
    cdl_schedule: CdlSchedule
    ndl_schedule: NdlSchedule
    metrics: DropMetrics


def count_service_classes(
    content: ContentState, in_range: np.ndarray
) -> tuple[int, int]:
    """Numbers of self-satisfied and cellular users before scheduling.

    ``in_range`` is the drop's :func:`ndl.cachers_in_range` mask for the D2D
    radius; its diagonal marks the users that cache the group they request.
    A cellular user requests a popular group that no cacher within the radius
    holds.  A requester of the cooperative group is not cellular while anyone
    caches that group: it is a CR candidate regardless of distance.
    """
    groups = content.requested_group
    d2d = in_range.any(axis=0)
    group = content.coop_group
    if group is not None and (content.cached_group == group).any():
        d2d |= groups == group
    self_satisfied = np.count_nonzero(in_range.diagonal())
    cellular = np.count_nonzero(~d2d & (groups >= 0))
    return int(self_satisfied), int(cellular)


def run_pipeline(
    topology: Topology,
    content: ContentState,
    config: SimConfig,
    mode: str,
) -> DropResult:
    """Schedule CDLs then NDLs on a fixed (topology, content) realization.

    Both link configs are built from ``config``, and so checked, in either mode.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    cdl_config = config.cdl_config()
    ndl_config = config.ndl_config()
    if mode == "coop":
        # band split is preset and fixed, even on drops with no coop group
        group = content.coop_group
        if group is not None:
            cdl_schedule = schedule_cdl(
                np.flatnonzero(content.cached_group == group),
                np.flatnonzero(content.unserved & (content.requested_group == group)),
                topology,
                cdl_config,
            )
        else:
            cdl_schedule = CdlSchedule.empty()
    else:
        cdl_schedule = CdlSchedule.empty()
        ndl_config = config.ndl_config(config.cdl_bandwidth_hz + config.ndl_bandwidth_hz)

    # Users carrying an established CDL are busy; an empty CDL frees everyone.
    excluded = ()
    if cdl_schedule.num_served > 0:
        excluded = np.concatenate((cdl_schedule.transmitters, cdl_schedule.receivers))

    in_range = cachers_in_range(content, topology.distances, ndl_config.radius_m)
    ndl_schedule = schedule_ndl(topology, content, ndl_config, in_range, excluded)

    self_satisfied, cellular = count_service_classes(content, in_range)
    cdl_rate = cdl_schedule.sum_rate_bps
    ndl_rate = ndl_schedule.sum_rate_bps
    metrics = DropMetrics(
        served_crs=cdl_schedule.num_served,
        served_nrs=ndl_schedule.num_served,
        cdl_sum_rate_bps=cdl_rate,
        ndl_sum_rate_bps=ndl_rate,
        throughput_bps=cdl_rate + ndl_rate,
        self_satisfied=self_satisfied,
        cellular=cellular,
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
    The cell's geometry and catalog check themselves when built, and
    :func:`run_pipeline` builds the link configs and checks the mode.
    """
    mode = config.mode if mode is None else mode
    geometry = config.geometry(num_users)
    catalog = config.catalog(beta)
    rng = np.random.default_rng(seed)
    topology = build_topology(geometry, rng)
    content = build_content_state(
        catalog, rng, geometry.num_users, cooperate=mode == "coop"
    )
    return run_pipeline(topology, content, config, mode)


def run_drop(config: SimConfig, seed: int, **cell) -> DropMetrics:
    """Metrics of one drop in the cell's mode, else the configured one."""
    return simulate_drop(config, seed, **cell).metrics


def aggregate_metrics(metrics_list) -> dict:
    """Mean and standard error of every metric over a list of drops.

    Reduced along the rows of one (fields x drops) array: that keeps the bits
    of each field's own reduction, which reducing (drops x fields) along
    columns does not."""
    count = len(metrics_list)
    values = np.array(
        [[getattr(m, name) for m in metrics_list] for name in METRIC_FIELDS], dtype=float
    )
    zeros = np.zeros(len(METRIC_FIELDS))
    means = values.mean(axis=1) if count else zeros
    stderrs = values.std(axis=1, ddof=1) / np.sqrt(count) if count > 1 else zeros
    # keyed by the CSV column strings themselves, which every row then shares
    stats = np.column_stack((means, stderrs)).ravel()  # mean, stderr per field
    return dict(zip(CSV_COLUMNS[4:], stats.tolist()))


def run_cell(
    config: SimConfig,
    *,
    num_users: int,
    beta: float,
    mode: str,
) -> dict:
    """Aggregate one (beta, K, mode) cell over its configured drops.

    Drop seeds are ``base_seed + drop_index``; drops run one after another in
    the calling thread, in seed order, whatever ``config.workers`` says.  A
    drop's ``ArithmeticError`` is raised again, same type, naming seed and cell.
    """
    drops = config.drops
    if drops < 1:
        raise ValueError("drops must be >= 1")
    cell = dict(num_users=num_users, beta=beta, mode=mode)
    metrics = []
    for seed in range(config.base_seed, config.base_seed + drops):
        try:
            metrics.append(run_drop(config, seed, **cell))
        except ArithmeticError as exc:
            where = f"drop seed {seed} of cell K={num_users}, beta={beta}, mode={mode}"
            raise type(exc)(f"{where}: {exc}") from exc
    # float: a beta of 1 and of 1.0 write the same file
    row: dict = {"beta": float(beta), "K": num_users, "mode": mode, "drops": drops}
    row.update(aggregate_metrics(metrics))
    return row


def run_sweep(config: SimConfig) -> list[dict]:
    """Cells for every (beta, K, mode) combination in a fixed row order."""
    rows = []
    for beta in config.betas:
        for num_users in config.user_counts:
            for mode in MODES:
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
