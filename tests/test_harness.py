import dataclasses
import json
import math
import re
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from d2dcache import cdl, harness
from d2dcache.cdl import CdlConfig
from d2dcache.content import Catalog, ContentState
from d2dcache.harness import (
    CSV_COLUMNS,
    DropMetrics,
    SimConfig,
    aggregate_metrics,
    read_results,
    run_cell,
    run_drop,
    run_pipeline,
    run_sweep,
    simulate_drop,
    write_results,
)
from d2dcache.ndl import NdlConfig, build_candidates, cachers_in_range, sinrs
from d2dcache.topology import SimGeometry, Topology


def small_config(**overrides):
    defaults = dict(num_users=15, zipf_beta=1.0, drops=3, base_seed=7)
    defaults.update(overrides)
    return SimConfig(**defaults)


def make_content(cached, requested, num_groups, coop_group=None):
    """Content from per-user cached and requested groups (-1: no popular request)."""
    return ContentState(np.array(cached), np.array(requested), num_groups, coop_group)


def manual_topology():
    positions = np.array(
        [[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0], [50.0, 50.0], [50.0, 60.0]]
    )
    diff = positions[:, None, :] - positions[None, :, :]
    distances = np.sqrt((diff**2).sum(axis=-1))
    channels = np.full((6, 6), 1e-9 + 0j)
    np.fill_diagonal(channels, 0.0)
    channels[0, 2] = 1e-5
    channels[1, 2] = 1e-5
    channels[0, 3] = 2e-5
    channels[1, 3] = 1e-5
    channels[4, 5] = 1e-4
    return Topology(positions=positions, distances=distances, channels=channels)


def test_manual_six_user_drop_traces_through_pipeline():
    """Hand-built drop with a closed-form outcome for both pipelines."""
    topo = manual_topology()
    # groups: 0 is cooperative; users 0/1 cache it, 2/3 request it;
    # user 4 caches group 1 and serves user 5 over a 10 m link
    content = make_content([0, 0, 1, 1, 1, 2], [-1, -1, 0, 0, -1, 1], 3, coop_group=0)
    config = SimConfig(
        num_users=6, rmin_bps_per_hz=0.5, sus_epsilon=0.4, allow_full_rank=False
    )
    result = run_pipeline(topo, content, config, "coop")

    # CDL: both CTs, one admitted CR (loop stops one short of |CT|); user 3 has
    # the stronger channel so it wins the first selection round
    assert result.cdl_schedule.transmitters.tolist() == [0, 1]
    assert result.cdl_schedule.receivers.tolist() == [3]
    pmax = 10.0 ** ((23.0 - 30.0) / 10.0)
    noise = 1e-12
    h = np.array([2e-5, 1e-5])
    norm_sq = float(h @ h)
    wsq = h**2 / norm_sq
    stream_power = pmax / wsq.max()  # peak budget of the loaded transmitter
    gain = float(wsq @ h**2)
    expected_cdl = 10e6 * np.log2(1.0 + stream_power * gain / noise)
    assert result.cdl_schedule.powers_w[0] == pytest.approx(stream_power, rel=1e-9)
    assert result.metrics.cdl_sum_rate_bps == pytest.approx(expected_cdl, rel=1e-9)

    # NDL: only the 4 -> 5 link survives (other group-1 cachers are busy or
    # out of range) and max-min power on a single link is the peak power
    assert result.ndl_schedule.links == [(4, 5)]
    expected_ndl = 10e6 * np.log2(1.0 + pmax * 1e-8 / noise)
    assert result.metrics.ndl_sum_rate_bps == pytest.approx(expected_ndl, rel=1e-9)
    assert result.metrics.removal_iterations == 0

    m = result.metrics
    assert (m.served_crs, m.served_nrs) == (1, 1)
    assert m.throughput_bps == pytest.approx(expected_cdl + expected_ndl, rel=1e-9)
    assert m.self_satisfied == 0 and m.cellular == 0


def test_nocoop_serves_coop_group_demand_via_ndl():
    topo = manual_topology()
    content = make_content([0, 0, 1, 1, 1, 2], [-1, -1, 0, 0, -1, 1], 3)
    config = SimConfig(num_users=6)
    result = run_pipeline(topo, content, config, "nocoop")
    links = result.ndl_schedule.links
    # the isolated group-1 pair always survives; the group-0 requesters are
    # served by group-0 cachers over the shared band, pruned to one link by
    # their mutual interference
    assert (4, 5) in links
    others = [link for link in links if link != (4, 5)]
    assert len(others) == 1
    tx, rx = others[0]
    assert tx in (0, 1) and rx in (2, 3)


def test_degenerate_drop_yields_zero_metrics():
    # two users, each self-satisfied: no demand anywhere
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    diff = positions[:, None, :] - positions[None, :, :]
    distances = np.sqrt((diff**2).sum(axis=-1))
    topo = Topology(positions, distances, np.full((2, 2), 1e-5 + 0j))
    content = make_content([0, 0], [0, 0], 2)
    config = SimConfig(num_users=2)
    result = run_pipeline(topo, content, config, "coop")
    m = result.metrics
    assert m.served_crs == 0 and m.served_nrs == 0
    assert m.throughput_bps == 0.0
    assert m.self_satisfied == 2


def test_run_drop_deterministic():
    config = small_config()
    assert run_drop(config, 123) == run_drop(config, 123)


def test_modes_share_topology_and_content():
    config = small_config()
    coop = simulate_drop(config, 55, mode="coop")
    nocoop = simulate_drop(config, 55, mode="nocoop")
    assert np.array_equal(coop.topology.positions, nocoop.topology.positions)
    assert np.array_equal(coop.topology.channels, nocoop.topology.channels)
    assert np.array_equal(coop.content.cached_group, nocoop.content.cached_group)
    assert np.array_equal(coop.content.requested_group, nocoop.content.requested_group)
    assert nocoop.metrics.served_crs == 0
    assert nocoop.metrics.cdl_sum_rate_bps == 0.0
    assert nocoop.content.coop_group is None


def test_nocoop_single_pair_uses_whole_band():
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    diff = positions[:, None, :] - positions[None, :, :]
    distances = np.sqrt((diff**2).sum(axis=-1))
    channels = np.array([[0.0, 1e-4], [1e-9, 0.0]], dtype=complex)
    topo = Topology(positions, distances, channels)
    content = make_content([0, 1], [-1, 0], 2)
    config = SimConfig(num_users=2)
    result = run_pipeline(topo, content, config, "nocoop")
    pmax = 10.0 ** ((23.0 - 30.0) / 10.0)
    expected = (10e6 + 10e6) * np.log2(1.0 + pmax * 1e-8 / 1e-12)
    assert result.metrics.throughput_bps == pytest.approx(expected, rel=1e-9)
    assert result.metrics.ndl_sum_rate_bps == result.metrics.throughput_bps


def test_nocoop_drops_satisfy_constraints():
    config = small_config(num_users=25)
    for seed in range(5):
        result = simulate_drop(config, 900 + seed, mode="nocoop")
        sched = result.ndl_schedule
        if sched.num_served == 0:
            continue
        achieved = sinrs(sched.powers_w, sched.gain_matrix, config.ndl_config().noise_w)
        assert np.all(achieved >= sched.sinr_targets * (1 - 1e-6))
        assert np.all(sched.powers_w <= config.ndl_config().pmax_w * (1 + 1e-9))


def test_drop_level_bounds_and_rate_floors():
    config = small_config(num_users=25, zipf_beta=0.8)
    floor_c = config.rmin_bps_per_hz * config.cdl_bandwidth_hz
    floor_n = config.rmin_bps_per_hz * config.ndl_bandwidth_hz
    for seed in range(6):
        result = simulate_drop(config, 300 + seed)
        content = result.content
        if content.coop_group is not None:
            coop = content.coop_group
            assert result.metrics.served_crs <= len(content.demand_sets[coop])
            # cooperative participants come only from the coop group's sets
            assert set(result.cdl_schedule.transmitters.tolist()) == set(
                int(u) for u in content.caching_sets[coop]
            )
            assert set(result.cdl_schedule.receivers.tolist()) <= set(
                int(u) for u in content.demand_sets[coop]
            )
        m = result.metrics
        assert m.throughput_bps == m.cdl_sum_rate_bps + m.ndl_sum_rate_bps
        excluded = set()
        if result.cdl_schedule.num_served > 0:
            excluded = set(result.cdl_schedule.transmitters.tolist()) | set(
                result.cdl_schedule.receivers.tolist()
            )
        in_range = cachers_in_range(
            content, result.topology.distances, config.d2d_radius_m
        )
        supplies = build_candidates(content, in_range, excluded)
        assert result.metrics.served_nrs <= supplies.any(axis=0).sum()
        assert np.all(result.cdl_schedule.rates_bps >= floor_c * (1 - 1e-6))
        assert np.all(result.ndl_schedule.rates_bps >= floor_n * (1 - 1e-6))


@pytest.mark.parametrize("num_users, beta", [(30, 1.2), (100, 0.6)])
def test_schedules_hand_their_certified_quantities_forward(num_users, beta):
    """The CDL powers and rates equal a fresh power solve on the returned
    precoder, and the NDL rates equal the rates at the returned powers, bit
    for bit: the quantities a schedule hands forward change nothing."""
    config = SimConfig()
    cdl_config = config.cdl_config()
    served = Counter()
    for mode in harness.MODES:
        ndl_band = config.ndl_bandwidth_hz
        if mode == "nocoop":
            ndl_band += config.cdl_bandwidth_hz
        ndl_config = config.ndl_config(ndl_band)
        for seed in range(1, 41):
            result = simulate_drop(
                config, seed, num_users=num_users, beta=beta, mode=mode
            )
            schedule = result.cdl_schedule
            if schedule.num_served:
                w_bar = schedule.precoder.normalized
                wsq = np.abs(w_bar) ** 2
                gains = cdl.effective_gains(schedule.channel_matrix, wsq)
                p_min = cdl.qos_floor_powers(
                    gains,
                    wsq,
                    pmax_w=cdl_config.pmax_w,
                    noise_w=cdl_config.noise_w,
                    sinr_targets=cdl_config.sinr_target,
                )
                fresh = cdl.allocate_cdl_power(
                    gains,
                    wsq,
                    p_min,
                    pmax_w=cdl_config.pmax_w,
                    noise_w=cdl_config.noise_w,
                )
                rates = cdl_config.bandwidth_hz * np.log2(
                    1.0 + fresh.powers_w * gains / cdl_config.noise_w
                )
                assert np.array_equal(schedule.powers_w, fresh.powers_w)
                assert np.array_equal(schedule.rates_bps, rates)
                served["cdl"] += 1
            links = result.ndl_schedule
            achieved = sinrs(links.powers_w, links.gain_matrix, ndl_config.noise_w)
            rates = ndl_config.bandwidth_hz * np.log2(1.0 + achieved)
            assert np.array_equal(links.rates_bps, rates)
            served[mode] += links.num_served > 0
    assert min(served["cdl"], served["coop"], served["nocoop"]) >= 30, served


# --- aggregation and CSV -------------------------------------------------------------


def test_single_drop_cell_equals_drop_metrics():
    config = small_config(drops=1)
    row = run_cell(config, num_users=config.num_users, beta=config.zipf_beta, mode="coop")
    metrics = run_drop(config, config.base_seed)
    assert row["drops"] == 1
    for name, value in dataclasses.asdict(metrics).items():
        assert row[f"mean_{name}"] == pytest.approx(value)
        assert row[f"stderr_{name}"] == 0.0


@pytest.mark.parametrize("drops", [0, -3])
def test_run_cell_rejects_fewer_than_one_drop(drops):
    config = small_config()
    with pytest.raises(ValueError, match="drops must be >= 1"):
        run_cell(
            config,
            num_users=config.num_users,
            beta=config.zipf_beta,
            mode="coop",
            drops=drops,
        )


def test_stderr_shrinks_like_inverse_sqrt_two():
    rng = np.random.default_rng(0)
    base = [DropMetrics(throughput_bps=float(v)) for v in rng.normal(10.0, 2.0, 400)]
    half = aggregate_metrics(base[:200])["stderr_throughput_bps"]
    full = aggregate_metrics(base)["stderr_throughput_bps"]
    assert full / half == pytest.approx(1.0 / np.sqrt(2.0), rel=0.15)


@pytest.mark.parametrize("drops", [1, 2, 7, 8, 9, 40, 500])
def test_aggregate_metrics_matches_per_field_reduction(drops):
    """The one (fields x drops) reduction keeps the bits of reducing each
    field on its own."""
    rng = np.random.default_rng(drops)
    metrics = [
        DropMetrics(
            served_crs=int(rng.integers(0, 8)),
            served_nrs=int(rng.integers(0, 30)),
            cdl_sum_rate_bps=float(rng.exponential(3e8)),
            ndl_sum_rate_bps=float(rng.exponential(2e8)),
            throughput_bps=float(rng.lognormal(19.0, 1.5)),
            self_satisfied=int(rng.integers(0, 5)),
            cellular=int(rng.integers(0, 40)),
            removal_iterations=int(rng.integers(0, 20)),
        )
        for _ in range(drops)
    ]
    expected = {}
    for name in harness.METRIC_FIELDS:
        values = np.array([getattr(m, name) for m in metrics], dtype=float)
        expected[f"mean_{name}"] = float(values.mean())
        expected[f"stderr_{name}"] = (
            float(values.std(ddof=1) / np.sqrt(drops)) if drops > 1 else 0.0
        )
    got = aggregate_metrics(metrics)
    assert list(got) == list(expected)
    assert tuple(got) == CSV_COLUMNS[4:]
    for key, value in expected.items():
        assert type(got[key]) is float
        assert np.float64(got[key]).tobytes() == np.float64(value).tobytes(), key


def test_write_results_round_trip(tmp_path):
    config = small_config(drops=2)
    rows = [run_cell(config, num_users=10, beta=0.8, mode="coop")]
    rows.append(run_cell(config, num_users=10, beta=0.8, mode="nocoop"))
    path = write_results(rows, tmp_path / "results.csv")
    header = path.read_text().splitlines()[0].split(",")
    assert header[:4] == ["beta", "K", "mode", "drops"]
    assert header[-2:] == ["mean_removal_iterations", "stderr_removal_iterations"]
    assert len(header) == 20
    parsed = read_results(path)
    assert parsed == rows


def test_write_results_serializes_zeros_and_locale_free(tmp_path):
    row = {col: 0 for col in CSV_COLUMNS}
    row.update(beta=0.8, K=10, mode="coop", drops=1)
    path = write_results([row], tmp_path / "zeros.csv")
    text = path.read_text()
    lines = text.strip().splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert all(cell != "" for cell in cells)
    assert "," not in text.replace(",", "", text.count(","))  # csv separators only
    for cell in cells[4:]:
        float(cell)  # every metric cell parses as a plain float


def test_write_results_rejects_empty():
    with pytest.raises(ValueError):
        write_results([], "unused.csv")


def test_sweep_rows_and_worker_invariance():
    config = small_config(num_users=8, drops=2)
    config.betas = [0.8, 1.2]
    config.user_counts = [8]
    serial = run_sweep(config)
    assert [(r["beta"], r["K"], r["mode"]) for r in serial] == [
        (0.8, 8, "coop"),
        (0.8, 8, "nocoop"),
        (1.2, 8, "coop"),
        (1.2, 8, "nocoop"),
    ]
    config.workers = 3
    with_workers = run_sweep(config)
    assert with_workers == serial


GOLDEN_SWEEP = Path(__file__).parent / "data" / "golden_sweep.csv"
COUNT_METRICS = ("served_crs", "served_nrs", "self_satisfied", "cellular", "removal_iterations")


def test_sweep_matches_golden_results():
    """An 8-cell sweep reproduces the committed results table.

    Counts must match exactly; rates and standard errors within rel 1e-9, so
    a different BLAS build does not break the test.  A change that alters
    results by design regenerates the file with ``write_results``.
    """
    config = SimConfig(betas=[0.6, 1.2], user_counts=[20, 40], drops=25, base_seed=101)
    rows = run_sweep(config)
    golden = read_results(GOLDEN_SWEEP)
    assert len(rows) == len(golden) == 8
    exact = ("beta", "K", "mode", "drops") + tuple(f"mean_{n}" for n in COUNT_METRICS)
    for got, want in zip(rows, golden):
        for column in CSV_COLUMNS:
            if column in exact:
                assert got[column] == want[column], column
            else:
                assert got[column] == pytest.approx(want[column], rel=1e-9), column


def test_drops_run_in_calling_thread_in_seed_order(monkeypatch):
    calls = []
    real_run_drop = harness.run_drop

    def recording_run_drop(config, seed, **cell):
        calls.append((threading.get_ident(), seed))
        return real_run_drop(config, seed, **cell)

    monkeypatch.setattr(harness, "run_drop", recording_run_drop)
    config = small_config(num_users=8, drops=5, workers=4)
    run_cell(config, num_users=8, beta=1.0, mode="coop")
    assert calls == [(threading.get_ident(), 7 + i) for i in range(5)]

    calls.clear()
    config.betas = [0.8, 1.2]
    config.user_counts = [8, 10]
    rows = run_sweep(config)
    assert {ident for ident, _ in calls} == {threading.get_ident()}
    seeds = [seed for _, seed in calls]
    assert seeds == list(range(7, 12)) * len(rows)


def test_failed_drop_fails_its_cell_naming_the_seed(monkeypatch):
    def failing_run_drop(config, seed, **cell):
        if seed == 9:
            raise FloatingPointError("certificate failed")
        return real_run_drop(config, seed, **cell)

    real_run_drop = harness.run_drop
    monkeypatch.setattr(harness, "run_drop", failing_run_drop)
    config = small_config(num_users=8, drops=5)
    with pytest.raises(FloatingPointError) as info:
        run_cell(config, num_users=8, beta=1.0, mode="coop")
    message = str(info.value)
    assert "seed 9" in message and "K=8" in message and "beta=1.0" in message
    assert "mode=coop" in message and "certificate failed" in message
    assert isinstance(info.value.__cause__, FloatingPointError)


def test_run_drop_nocoop_mode():
    config = small_config()
    direct = simulate_drop(config, 11, mode="nocoop").metrics
    assert run_drop(config, 11, mode="nocoop") == direct
    assert config.mode == "coop"


# --- configuration -------------------------------------------------------------------


def test_config_json_round_trip(tmp_path):
    config = small_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    loaded = SimConfig.from_json_file(path)
    assert dataclasses.asdict(loaded) == dataclasses.asdict(config)


def test_readme_config_block_matches_defaults():
    """The README's documented config is SimConfig's defaults, key for key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.DOTALL).group(1)
    documented = json.loads(re.sub(r"//[^\n]*", "", block))
    assert documented == SimConfig().to_dict()


def test_config_rejects_unknown_keys():
    # dca_max_iters configured the iterative NDL power solver, now exact
    for data in ({"num_userz": 10}, {"dca_max_iters": 100}):
        with pytest.raises(ValueError, match="unknown config keys"):
            SimConfig.from_dict(data)


def test_config_validation_errors():
    with pytest.raises(ValueError):
        SimConfig(mode="both").validate()
    with pytest.raises(ValueError):
        SimConfig(drops=0).validate()
    with pytest.raises(ValueError):
        SimConfig(betas=[]).validate()
    with pytest.raises(ValueError, match="base_seed must be >= 0"):
        SimConfig(base_seed=-1).validate()
    SimConfig(base_seed=0).validate()
    small_config().validate()
    # a JSON integer is a valid value for a float field
    small_config(pmax_dbm=23, zipf_beta=1, betas=[1, 0.5]).validate()
    # a sub-config field fed by a key of another name is refused under the key
    for extra, message in (
        ({"ndl_bandwidth_hz": 0}, "ndl_bandwidth_hz = 0 must be finite and > 0"),
        ({"cdl_bandwidth_hz": -1.0}, "cdl_bandwidth_hz = -1.0 must be finite and > 0"),
        ({"d2d_radius_m": math.inf}, "d2d_radius_m = inf must lie in"),
        ({"sus_epsilon": 1.5}, r"sus_epsilon = 1.5 must lie in \(0, 1\)"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            SimConfig(**extra).validate()
    # each band is finite, but the nocoop baseline's sum of the two is not
    with pytest.raises(ValueError, match="bandwidth_hz = inf"):
        SimConfig(cdl_bandwidth_hz=1e308, ndl_bandwidth_hz=1e308).validate()


# radio settings whose linear value overflows, or underflows to 0, and the
# derived field that validation names
OUT_OF_RANGE_RADIO = [
    ({"rmin_bps_per_hz": 1024.0}, "sinr_target"),
    ({"rmin_bps_per_hz": 1e-17}, "sinr_target"),
    ({"pmax_dbm": 4000.0}, "pmax_w"),
    ({"noise_dbm": 4000.0}, "noise_w"),
    ({"noise_dbm": -4000.0}, "noise_w"),
]


@pytest.mark.parametrize("extra, field", OUT_OF_RANGE_RADIO)
def test_config_rejects_out_of_range_radio_values(extra, field):
    config = SimConfig(**extra)
    with pytest.raises(ValueError, match=f"{field} = .* must be finite and > 0"):
        config.validate()
    for build_link_config in (config.cdl_config, config.ndl_config):
        with pytest.raises(ValueError, match=field):
            build_link_config()


# link settings that SimConfig.validate refuses; a library caller may never
# call it, so run_pipeline builds, and so checks, the link configs itself
BAD_LINK_SETTINGS = [
    {"noise_dbm": float("-inf")},
    {"cdl_bandwidth_hz": -1.0},
    {"ndl_bandwidth_hz": 0.0},
    {"sus_epsilon": 1.5},
    {"pmax_dbm": 1e6},
]


@pytest.mark.parametrize("mode", harness.MODES)
@pytest.mark.parametrize("extra", BAD_LINK_SETTINGS)
def test_simulate_drop_rejects_bad_link_configs(extra, mode):
    with pytest.raises(ValueError):
        simulate_drop(SimConfig(num_users=30, **extra), 3, mode=mode)


@pytest.mark.parametrize("mode", harness.MODES)
@pytest.mark.parametrize("extra", BAD_LINK_SETTINGS)
def test_run_pipeline_rejects_bad_link_configs(extra, mode):
    drop = simulate_drop(SimConfig(num_users=30), 3, mode=mode)
    with pytest.raises(ValueError):
        run_pipeline(drop.topology, drop.content, SimConfig(num_users=30, **extra), mode)


SUB_CONFIGS = (SimGeometry, Catalog, CdlConfig, NdlConfig)


def float_fields(cls):
    return [f.name for f in dataclasses.fields(cls) if f.init and f.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls, name", [(cls, name) for cls in SUB_CONFIGS for name in float_fields(cls)]
)
def test_sub_configs_refuse_non_finite_values(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


@pytest.mark.parametrize("cls", SUB_CONFIGS)
def test_sub_configs_are_frozen(cls):
    config = cls()
    assert float_fields(cls)
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, f.name, getattr(config, f.name))
