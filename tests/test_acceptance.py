"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import filecmp
import time

import numpy as np
import pytest

from d2dcache import cdl, ndl, numerics
from d2dcache.cli import main
from d2dcache.harness import SimConfig, run_cell
from reference import min_power_vector

NOISE = 1e-12
PMAX = 10.0 ** ((23.0 - 30.0) / 10.0)

TREND_BETAS = (0.8, 1.2, 1.6)
TREND_USERS = 30
TREND_DROPS = 500


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {tag} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def random_channels(rng, m, n):
    d = rng.uniform(15.0, 80.0, (m, n))
    amp = np.sqrt(10 ** (-(37.6 + 36.8 * np.log10(d)) / 10) / 2)
    return amp * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))


def random_link_gains(rng, n):
    gains = rng.uniform(0.05, 1.0, (n, n)) * 1e-10
    gains[np.arange(n), np.arange(n)] = rng.uniform(0.3, 5.0, n) * 1e-9
    return gains


def test_criterion_1_zfbf_orthogonality():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, m + 1))
        h = random_channels(rng, m, n)
        prec = numerics.zf_precoder(h)
        for k in range(n):
            for j in range(n):
                if k == j:
                    continue
                cross = abs(np.vdot(h[:, j], prec.normalized[:, k]))
                scale = np.linalg.norm(h[:, j]) * np.linalg.norm(prec.normalized[:, k])
                worst = max(worst, cross / scale)
    elapsed = time.perf_counter() - start
    report(
        1,
        "ZFBF orthogonality suite",
        worst < 1e-9 and elapsed < 10.0,
        f"max cross-term {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_cdl_power_oracle():
    rng = np.random.default_rng(202)
    gamma = 2.0**0.5 - 1.0
    start = time.perf_counter()
    checked = 0
    worst_ratio = np.inf
    feasible_ok = True
    while checked < 200:
        h = random_channels(rng, 2, 2)
        try:
            prec = numerics.zf_precoder(h)
        except numerics.PrecoderSingularError:
            continue
        wsq = np.abs(prec.normalized) ** 2
        gains = cdl.effective_gains(h, wsq)
        p_min = cdl.qos_floor_powers(
            gains, wsq, pmax_w=PMAX, noise_w=NOISE, sinr_targets=gamma
        )
        if p_min is None:
            continue
        res = cdl.allocate_cdl_power(gains, wsq, p_min, pmax_w=PMAX, noise_w=NOISE)
        feasible_ok &= bool(np.all(wsq @ res.powers_w <= PMAX * (1 + 1e-6)))
        feasible_ok &= bool(
            np.all(res.powers_w * gains / NOISE >= gamma * (1 - 1e-6))
        )
        caps = np.min(np.where(wsq > 0, PMAX / wsq, np.inf), axis=0)
        axis0 = np.linspace(0.0, caps[0], 200)
        axis1 = np.linspace(0.0, caps[1], 200)
        p0, p1 = np.meshgrid(axis0, axis1, indexing="ij")
        feas = (
            (wsq[0, 0] * p0 + wsq[0, 1] * p1 <= PMAX)
            & (wsq[1, 0] * p0 + wsq[1, 1] * p1 <= PMAX)
            & (p0 * gains[0] / NOISE >= gamma)
            & (p1 * gains[1] / NOISE >= gamma)
        )
        obj = np.where(
            feas,
            np.log2(1 + p0 * gains[0] / NOISE) + np.log2(1 + p1 * gains[1] / NOISE),
            -np.inf,
        )
        best = float(obj.max())
        if not np.isfinite(best):
            continue
        got = float(np.sum(np.log2(1 + res.powers_w * gains / NOISE)))
        worst_ratio = min(worst_ratio, got / best)
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        "CDL power-allocation oracle",
        worst_ratio >= 0.99 and feasible_ok and elapsed < 60.0,
        f"worst objective ratio {worst_ratio:.4f}, constraints ok={feasible_ok}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_link_check_exactness():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 500:
        n = int(rng.integers(2, 7))
        gains = random_link_gains(rng, n)
        targets = rng.uniform(0.3, 3.0, n)
        links = [(i, n + i) for i in range(n)]
        admitted = ndl.check_and_remove(links, gains, NOISE, targets, np.inf)
        if admitted.iterations > 0:
            continue
        achieved = ndl.sinrs(admitted.min_powers_w, gains, NOISE)
        worst = max(worst, float(np.max(np.abs(achieved / targets - 1.0))))
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        "link-check exactness",
        worst < 1e-6 and elapsed < 10.0,
        f"worst SINR mismatch {worst:.2e}, {elapsed:.1f}s",
    )


def matching_weight(edges, pairs) -> float:
    lookup = {(left, right): weight for left, right, weight in edges}
    return float(sum(lookup[pair] for pair in pairs))


def brute_force_matching_weight(edges) -> float:
    adjacency = {}
    for left, right, weight in edges:
        adjacency.setdefault(left, []).append((right, weight))
    lefts = sorted(adjacency)

    def recurse(idx, used):
        if idx == len(lefts):
            return 0.0
        best = recurse(idx + 1, used)
        for right, weight in adjacency[lefts[idx]]:
            if right not in used:
                best = max(best, weight + recurse(idx + 1, used | {right}))
        return best

    return recurse(0, frozenset())


def test_criterion_4_matching_oracle():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    exact = True
    for _ in range(300):
        nl = int(rng.integers(1, 9))
        nr = int(rng.integers(1, 9))
        edges = []
        for i in range(nl):
            for j in range(nr):
                if rng.random() < 0.5:
                    edges.append((i, j, float(rng.integers(0, 1000))))
        left, right, weights = zip(*edges) if edges else ((), (), ())
        pairs = numerics.max_weight_matching(left, right, weights)
        exact &= matching_weight(edges, pairs) == brute_force_matching_weight(edges)
    elapsed = time.perf_counter() - start
    report(
        4,
        "matching oracle",
        exact and elapsed < 30.0,
        f"exact totals on 300 graphs, {elapsed:.1f}s",
    )


def bisection_max_min_sinr(gains, noise, pmax, rel_tol=1e-13):
    """Largest common SINR whose minimum-power vector fits the power box."""
    lo, hi = 0.0, float(np.min(pmax * np.diag(gains) / noise))
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        p = min_power_vector(gains, noise, mid)
        if p is not None and np.all(p >= 0.0) and np.all(p <= pmax):
            lo = mid
        else:
            hi = mid
    return lo


def test_criterion_5_dca_certificate_and_oracle():
    rng = np.random.default_rng(505)
    gamma = 2.0**0.5 - 1.0
    start = time.perf_counter()
    certified = True
    worst_gap = 0.0
    worst_ratio = np.inf
    grid_checked = 0
    total = 0
    while total < 200:
        n = 2 if total < 60 else int(rng.integers(2, 9))
        gains = random_link_gains(rng, n)
        p_start = min_power_vector(gains, NOISE, gamma)
        if p_start is None or np.any(p_start < 0) or np.any(p_start > PMAX):
            continue
        res = ndl.dc_power_allocation(gains, NOISE, PMAX, gamma)
        achieved = ndl.sinrs(res.powers_w, gains, NOISE)
        certified &= bool(
            np.all(res.powers_w >= 0.0)
            and abs(np.max(res.powers_w) / PMAX - 1.0) <= numerics.TOL.power_feasibility_rel
            and np.all(np.abs(achieved - res.sinr) <= numerics.TOL.sinr_match_rel * res.sinr)
            and res.sinr >= gamma * (1.0 - numerics.TOL.sinr_match_rel)
        )
        oracle = bisection_max_min_sinr(gains, NOISE, PMAX)
        worst_gap = max(worst_gap, abs(res.sinr - oracle) / oracle)
        if n == 2:
            axis = np.linspace(0.0, PMAX, 300)
            p0, p1 = np.meshgrid(axis, axis, indexing="ij")
            s0 = p0 * gains[0, 0] / (p1 * gains[1, 0] + NOISE)
            s1 = p1 * gains[1, 1] / (p0 * gains[0, 1] + NOISE)
            best = float(np.minimum(np.log2(1 + s0), np.log2(1 + s1)).max())
            got = float(np.min(np.log2(1 + achieved)))
            worst_ratio = min(worst_ratio, got / best)
            grid_checked += 1
        total += 1
    elapsed = time.perf_counter() - start
    report(
        5,
        "max-min power certificate + oracles",
        certified and worst_gap <= 1e-9 and worst_ratio >= 0.98 and elapsed < 60.0,
        f"certified={certified}, worst bisection gap {worst_gap:.1e}, "
        f"worst grid ratio {worst_ratio:.4f} ({grid_checked} two-link instances), "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_removal_loop_soundness():
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    sound = True
    removals_fired = 0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        # heavily coupled layout with stiff targets: usually over-subscribed
        gains = rng.uniform(0.2, 1.0, (n, n)) * 1e-9
        gains[np.arange(n), np.arange(n)] = rng.uniform(0.5, 3.0, n) * 1e-9
        targets = np.full(n, 7.0)
        links = [(i, n + i) for i in range(n)]
        out = ndl.check_and_remove(links, gains, NOISE, targets, PMAX)
        sound &= out.iterations <= n
        removals_fired += out.iterations > 0
        if out.kept:
            sound &= bool(np.all(out.min_powers_w >= 0.0))
            sound &= bool(np.all(out.min_powers_w <= PMAX * (1 + 1e-6)))
            achieved = ndl.sinrs(out.min_powers_w, out.gain_matrix, NOISE)
            sound &= float(np.max(np.abs(achieved / out.sinr_targets - 1.0))) < 1e-6
    elapsed = time.perf_counter() - start
    report(
        6,
        "removal-loop soundness",
        sound and elapsed < 30.0,
        f"{removals_fired}/500 instances required removal, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def trend_sweep():
    config = SimConfig(drops=TREND_DROPS)
    start = time.perf_counter()
    cells = {}
    for beta in TREND_BETAS:
        for mode in ("coop", "nocoop"):
            cells[(beta, mode)] = run_cell(
                config, num_users=TREND_USERS, beta=beta, mode=mode
            )
    return cells, time.perf_counter() - start


def test_criterion_7_served_users_trend(trend_sweep):
    cells, elapsed = trend_sweep
    lines = []
    gap_ok = True
    for beta in TREND_BETAS:
        row = cells[(beta, "coop")]
        crs, nrs = row["mean_served_crs"], row["mean_served_nrs"]
        lines.append(
            f"beta={beta}: CRs={crs:.3f}+-{row['stderr_served_crs']:.3f} "
            f"NRs={nrs:.3f}+-{row['stderr_served_nrs']:.3f}"
        )
        gap_ok &= crs > nrs
    cr_means = [cells[(b, "coop")]["mean_served_crs"] for b in TREND_BETAS]
    monotone = all(b >= a for a, b in zip(cr_means, cr_means[1:]))
    report(
        7,
        "served-users trend",
        gap_ok and monotone and elapsed < 600.0,
        "; ".join(lines) + f"; CR means {['%.3f' % c for c in cr_means]}, "
        f"sweep {elapsed:.0f}s",
    )


def test_criterion_8_sum_rate_trend(trend_sweep):
    cells, _ = trend_sweep
    lines = []
    ok = True
    for beta in TREND_BETAS:
        row = cells[(beta, "coop")]
        rc, rn = row["mean_cdl_sum_rate_bps"], row["mean_ndl_sum_rate_bps"]
        lines.append(f"beta={beta}: CDL={rc/1e6:.1f}M NDL={rn/1e6:.1f}M")
        ok &= rc > rn
    report(8, "sum-rate trend", ok, "; ".join(lines))


def test_criterion_9_cooperation_gain(trend_sweep):
    cells, elapsed = trend_sweep
    lines = []
    exceeds = True
    for beta in (1.2, 1.6):
        coop = cells[(beta, "coop")]["mean_throughput_bps"]
        nocoop = cells[(beta, "nocoop")]["mean_throughput_bps"]
        lines.append(f"beta={beta}: coop={coop/1e6:.1f}M nocoop={nocoop/1e6:.1f}M")
        exceeds &= coop > nocoop
    coop_means = [cells[(b, "coop")]["mean_throughput_bps"] for b in TREND_BETAS]
    monotone = all(b >= a for a, b in zip(coop_means, coop_means[1:]))
    report(
        9,
        "cooperation throughput gain",
        exceeds and monotone and elapsed < 900.0,
        "; ".join(lines)
        + f"; coop means {[f'{c/1e6:.1f}M' for c in coop_means]}, sweep {elapsed:.0f}s",
    )


def test_criterion_10_determinism(tmp_path):
    import json

    start = time.perf_counter()
    config = dict(
        betas=[0.8, 1.2],
        user_counts=[10, 20],
        drops=25,
        base_seed=11,
        num_users=10,
        zipf_beta=0.8,
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for run, workers in (("a", 1), ("b", 4), ("c", 1)):
        out = tmp_path / run
        code = main(
            [
                "sweep",
                "--config", str(config_path),
                "--workers", str(workers),
                "--out", str(out),
            ]
        )
        assert code == 0
        outputs.append(out / "results.csv")
    identical = filecmp.cmp(outputs[0], outputs[1], shallow=False) and filecmp.cmp(
        outputs[0], outputs[2], shallow=False
    )
    elapsed = time.perf_counter() - start
    report(
        10,
        "sweep determinism",
        identical and elapsed < 1200.0,
        f"3 runs byte-identical across worker counts, {elapsed:.0f}s",
    )
