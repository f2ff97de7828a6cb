import math

import numpy as np
import pytest

from d2dcache import harness, ndl
from d2dcache.content import ContentState, derive_group_sets
from d2dcache.ndl import (
    NdlConfig,
    build_candidates,
    check_and_remove,
    dc_power_allocation,
    link_gain_matrix,
    min_power_vector,
    ndl_rates,
    nt_nr_decision,
    receive_cost,
    schedule_ndl,
    select_links,
    sinrs,
    transmit_cost,
)
from d2dcache.numerics import TOL
from d2dcache.topology import SimGeometry, Topology, build_topology
from d2dcache.content import build_content_state, Catalog

NOISE = 1e-12
PMAX = 0.2
GAMMA = 2.0**0.5 - 1.0


def topology_with(channels, positions=None):
    k = channels.shape[0]
    if positions is None:
        positions = np.zeros((k, 2))
    diff = positions[:, None, :] - positions[None, :, :]
    distances = np.sqrt((diff**2).sum(axis=-1))
    return Topology(positions=positions, distances=distances, channels=channels)


def topology_with_gains(gains, positions=None):
    return topology_with(np.sqrt(np.asarray(gains, dtype=float)) + 0j, positions)


def content_from(cache, request, coop_group=None):
    cache = np.asarray(cache, dtype=np.int8)
    request = np.asarray(request, dtype=np.int8)
    caching, demand = derive_group_sets(cache, request)
    mode = np.zeros(cache.shape[1], dtype=np.int8)
    if coop_group is not None:
        mode[coop_group] = 1
    groups = np.full(cache.shape[0], -1)
    rows, cols = np.nonzero(request)
    groups[rows] = cols
    return ContentState(
        cache=cache,
        request=request,
        requested_file=groups + 1,
        requested_group=groups,
        mode=mode,
        coop_group=coop_group,
        caching_sets=caching,
        demand_sets=demand,
        classes=[],
    )


# --- candidate construction -----------------------------------------------------


def test_no_cacher_in_range_means_no_receivers():
    positions = np.array([[0.0, 0.0], [90.0, 90.0]])
    topo = topology_with(np.full((2, 2), 1e-5 + 0j), positions)
    content = content_from([[1, 0], [0, 1]], [[0, 0], [1, 0]])
    cands = build_candidates(topo, content, radius_m=30.0)
    assert cands.suppliers == {}


def test_supplier_within_radius_is_candidate():
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    topo = topology_with(np.full((2, 2), 1e-5 + 0j), positions)
    content = content_from([[1, 0], [0, 1]], [[0, 0], [1, 0]])
    cands = build_candidates(topo, content, radius_m=30.0)
    assert cands.suppliers == {1: [0]}


def test_candidates_match_bruteforce_scan():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k, g = 10, 3
        positions = rng.uniform(0, 100, (k, 2))
        topo = topology_with(np.full((k, k), 1e-5 + 0j), positions)
        cache = np.zeros((k, g), dtype=np.int8)
        cache[np.arange(k), rng.integers(0, g, k)] = 1
        request = np.zeros((k, g), dtype=np.int8)
        req_groups = rng.integers(-1, g, k)
        for u, rg in enumerate(req_groups):
            if rg >= 0:
                request[u, rg] = 1
        coop = int(rng.integers(0, g))
        content = content_from(cache, request, coop_group=coop)
        excluded = set(rng.choice(k, size=2, replace=False).tolist())
        cands = build_candidates(topo, content, 30.0, excluded)
        # independent pairwise scan
        expected = {}
        for j in range(k):
            rg = req_groups[j]
            if rg < 0 or rg == coop or cache[j, rg] == 1 or j in excluded:
                continue
            near = [
                i
                for i in range(k)
                if i != j
                and i not in excluded
                and cache[i, rg] == 1
                and topo.distances[i, j] < 30.0
            ]
            if near:
                expected[j] = sorted(near)
        assert cands.suppliers == expected


def test_excluded_users_never_appear():
    positions = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
    topo = topology_with(np.full((3, 3), 1e-5 + 0j), positions)
    content = content_from(
        [[1, 0], [0, 1], [1, 0]], [[0, 1], [1, 0], [0, 1]]
    )
    cands = build_candidates(topo, content, 30.0, excluded={0})
    assert 0 not in cands.suppliers
    assert all(0 not in txs for txs in cands.suppliers.values())


# --- phase I: transmitter/receiver decision ----------------------------------------


def ambiguous_setup(gain_uv, gain_vu, cross=1e-14):
    """Users 0 and 1 cache each other's requested group: both ambiguous."""
    gains = np.full((2, 2), cross)
    gains[0, 1] = gain_uv
    gains[1, 0] = gain_vu
    topo = topology_with_gains(gains, np.array([[0.0, 0.0], [5.0, 0.0]]))
    content = content_from([[1, 0], [0, 1]], [[0, 1], [1, 0]])
    return topo, content


def test_costs_degenerate_cases():
    topo, content = ambiguous_setup(1e-9, 1e-9)
    cands = build_candidates(topo, content, 30.0)
    empty = type(cands)({})
    assert math.isinf(transmit_cost(0, empty, topo, NOISE, GAMMA))
    assert math.isinf(receive_cost(0, empty, topo, NOISE, GAMMA))


def test_tie_resolves_to_receiver():
    topo, content = ambiguous_setup(2e-9, 2e-9)
    cands = build_candidates(topo, content, 30.0)
    assert cands.ambiguous == [0, 1]
    resolved, outcome = nt_nr_decision(cands, topo, NOISE, GAMMA)
    # a mutually ambiguous pair is an exact cost tie, so both stay receivers
    assert outcome.alpha[0] == pytest.approx(outcome.beta[0])
    assert outcome.roles[0] == "receiver"
    assert outcome.roles[1] == "receiver"
    # with both suppliers reassigned to receivers the lists empty out
    assert resolved.suppliers == {0: [], 1: []}


def four_user_ambiguous_setup(gain_02, gain_03, gain_10, gain_12, gain_13):
    """User 0 caches g0 and requests g1 (ambiguous: supplies 2, supplied by 1);
    user 1 is a pure supplier of g1; users 2 and 3 are plain receivers."""
    gains = np.full((4, 4), 1e-14)
    gains[0, 2] = gain_02   # 0 serving its best requester
    gains[0, 3] = gain_03   # interference 0 causes as a transmitter
    gains[1, 0] = gain_10   # supplier of 0
    gains[1, 2] = gain_12   # interference 0's supplier causes
    gains[1, 3] = gain_13
    positions = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    topo = topology_with_gains(gains, positions)
    cache = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    request = [[0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]]
    content = content_from(cache, request)
    return topo, content


def test_cheap_transmitter_role_wins():
    # strong serving channel and weak leakage as NT; expensive, leaky supplier
    topo, content = four_user_ambiguous_setup(
        gain_02=1e-8, gain_03=1e-13, gain_10=1e-11, gain_12=1e-9, gain_13=1e-9
    )
    cands = build_candidates(topo, content, 30.0)
    assert cands.ambiguous == [0]
    resolved, outcome = nt_nr_decision(cands, topo, NOISE, GAMMA)
    assert outcome.alpha[0] < outcome.beta[0]
    assert outcome.roles[0] == "transmitter"
    assert 0 not in resolved.suppliers
    assert 0 in resolved.suppliers[2]


def test_cheap_receiver_role_wins():
    # serving as NT would blast user 3; being served is nearly interference-free
    topo, content = four_user_ambiguous_setup(
        gain_02=1e-10, gain_03=1e-8, gain_10=1e-8, gain_12=1e-14, gain_13=1e-14
    )
    cands = build_candidates(topo, content, 30.0)
    resolved, outcome = nt_nr_decision(cands, topo, NOISE, GAMMA)
    assert outcome.alpha[0] > outcome.beta[0]
    assert outcome.roles[0] == "receiver"
    assert 0 in resolved.suppliers
    assert all(0 not in txs for txs in resolved.suppliers.values())


def test_costs_match_independent_recomputation():
    rng = np.random.default_rng(1)
    for _ in range(10):
        k = 8
        positions = rng.uniform(0, 60, (k, 2))
        channels = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) * 1e-5
        np.fill_diagonal(channels, 0.0)
        topo = topology_with(channels, positions)
        cache = np.zeros((k, 2), dtype=np.int8)
        cache[np.arange(k), rng.integers(0, 2, k)] = 1
        request = np.zeros((k, 2), dtype=np.int8)
        for u in range(k):
            g = rng.integers(0, 2)
            if cache[u, g] == 0:
                request[u, g] = 1
        content = content_from(cache, request)
        cands = build_candidates(topo, content, 60.0)
        _, outcome = nt_nr_decision(cands, topo, NOISE, GAMMA)
        receivers = cands.receivers
        for u in cands.ambiguous:
            served = [j for j in receivers if u in cands.suppliers[j]]
            v = max(served, key=lambda j: (topo.gain(u, j), -j))
            alpha = (
                NOISE * GAMMA / topo.gain(u, v)
                * sum(topo.gain(u, w) for w in receivers if w not in (u, v))
            )
            tau = max(cands.suppliers[u], key=lambda i: (topo.gain(i, u), -i))
            beta = (
                NOISE * GAMMA / topo.gain(tau, u)
                * sum(topo.gain(tau, w) for w in receivers if w not in (u, tau))
            )
            assert outcome.alpha[u] == pytest.approx(alpha, rel=1e-12)
            assert outcome.beta[u] == pytest.approx(beta, rel=1e-12)


def test_phase_one_preserves_non_ambiguous_candidates():
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = 12
        positions = rng.uniform(0, 80, (k, 2))
        channels = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) * 1e-5
        np.fill_diagonal(channels, 0.0)
        topo = topology_with(channels, positions)
        cache = np.zeros((k, 3), dtype=np.int8)
        cache[np.arange(k), rng.integers(0, 3, k)] = 1
        request = np.zeros((k, 3), dtype=np.int8)
        for u in range(k):
            g = rng.integers(0, 3)
            if cache[u, g] == 0:
                request[u, g] = 1
        content = content_from(cache, request)
        cands = build_candidates(topo, content, 50.0)
        resolved, outcome = nt_nr_decision(cands, topo, NOISE, GAMMA)
        non_ambiguous = set(cands.receivers) - set(cands.ambiguous)
        assert non_ambiguous <= set(resolved.receivers)
        for u, role in outcome.roles.items():
            assert u in cands.ambiguous


# --- phase II: link selection -------------------------------------------------------


def test_single_pair_selected_directly():
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    topo = topology_with(np.full((2, 2), 1e-5 + 0j), positions)
    content = content_from([[1, 0], [0, 1]], [[0, 0], [1, 0]])
    cands = build_candidates(topo, content, 30.0)
    assert select_links(cands, topo) == [(0, 1)]


def shared_transmitter_setup(gain_a, gain_b):
    gains = np.full((3, 3), 1e-14)
    gains[0, 1] = gain_a
    gains[0, 2] = gain_b
    topo = topology_with_gains(gains, np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]))
    content = content_from(
        [[1, 0], [0, 1], [0, 1]], [[0, 0], [1, 0], [1, 0]]
    )
    return topo, content


def test_shared_transmitter_weight_modes():
    topo, content = shared_transmitter_setup(1e-8, 1e-9)
    cands = build_candidates(topo, content, 30.0)
    # reciprocal weights favor the weaker channel, gain weights the stronger
    assert select_links(cands, topo, "reciprocal") == [(0, 2)]
    assert select_links(cands, topo, "gain") == [(0, 1)]
    with pytest.raises(ValueError):
        select_links(cands, topo, "other")


def test_matching_respects_one_to_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        k = 10
        positions = rng.uniform(0, 50, (k, 2))
        channels = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) * 1e-5
        np.fill_diagonal(channels, 0.0)
        topo = topology_with(channels, positions)
        cache = np.zeros((k, 2), dtype=np.int8)
        cache[np.arange(k), rng.integers(0, 2, k)] = 1
        request = np.zeros((k, 2), dtype=np.int8)
        for u in range(k):
            g = rng.integers(0, 2)
            if cache[u, g] == 0:
                request[u, g] = 1
        content = content_from(cache, request)
        cands = build_candidates(topo, content, 50.0)
        resolved, _ = nt_nr_decision(cands, topo, NOISE, GAMMA)
        links = select_links(resolved, topo)
        txs = [tx for tx, _ in links]
        rxs = [rx for _, rx in links]
        assert len(set(txs)) == len(txs)
        assert len(set(rxs)) == len(rxs)
        assert set(txs).isdisjoint(rxs)
        for tx, rx in links:
            assert tx in resolved.suppliers[rx]


# --- link checking -------------------------------------------------------------------


def test_min_power_single_link():
    gains = np.array([[4e-9]])
    p = min_power_vector(gains, NOISE, GAMMA)
    assert p[0] == pytest.approx(NOISE * GAMMA / 4e-9, rel=1e-12)


def test_min_power_decoupled_links():
    gains = np.diag([2e-9, 5e-9])
    p = min_power_vector(gains, NOISE, np.array([GAMMA, 2 * GAMMA]))
    assert p[0] == pytest.approx(NOISE * GAMMA / 2e-9, rel=1e-12)
    assert p[1] == pytest.approx(NOISE * 2 * GAMMA / 5e-9, rel=1e-12)


def test_min_power_reproduces_targets():
    rng = np.random.default_rng(4)
    done = 0
    while done < 25:
        n = int(rng.integers(2, 5))
        gains = rng.uniform(0.5, 2.0, (n, n)) * 1e-11
        gains[np.arange(n), np.arange(n)] = rng.uniform(1.0, 5.0, n) * 1e-9
        targets = rng.uniform(0.3, 3.0, n)
        p = min_power_vector(gains, NOISE, targets)
        if p is None or np.any(p < 0):
            continue
        achieved = sinrs(p, gains, NOISE)
        assert np.max(np.abs(achieved / targets - 1.0)) < 1e-6
        done += 1


def test_min_power_singular_system():
    gains = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert min_power_vector(gains, NOISE, np.array([1.0, 1.0])) is None


def test_min_power_rejects_nonpositive_targets():
    gains = np.diag([1e-9, 2e-9]) + 1e-13
    with pytest.raises(ValueError):
        min_power_vector(gains, NOISE, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        NdlConfig(rmin_bps_per_hz=0.0).validate()


def two_link_feasible(gains, targets, pmax):
    """Closed-form feasibility of a 2-link admission."""
    det = gains[0, 0] * gains[1, 1] / (targets[0] * targets[1]) - gains[1, 0] * gains[0, 1]
    if det <= 0:
        return False
    p0 = (NOISE * gains[1, 1] / targets[1] + NOISE * gains[1, 0]) / det
    p1 = (NOISE * gains[0, 0] / targets[0] + NOISE * gains[0, 1]) / det
    return 0 <= p0 <= pmax and 0 <= p1 <= pmax


def test_removal_keeps_feasible_sets_untouched():
    gains = np.diag([1e-9, 2e-9]) + 1e-13
    links = [(0, 2), (1, 3)]
    out = check_and_remove(links, gains, NOISE, GAMMA, PMAX)
    assert out.iterations == 0
    assert out.kept == links


def test_removal_two_colocated_links():
    # strong mutual coupling at a stiff target: jointly infeasible
    targets = np.array([15.0, 15.0])
    gains = np.array([[1e-9, 0.8e-9], [0.9e-9, 1.2e-9]])
    assert not two_link_feasible(gains, targets, PMAX)
    links = [(0, 2), (1, 3)]
    out = check_and_remove(links, gains, NOISE, targets, PMAX)
    assert out.iterations == 1
    assert len(out.kept) == 1
    assert np.all(out.min_powers_w <= PMAX) and np.all(out.min_powers_w >= 0)
    assert sinrs(out.min_powers_w, out.gain_matrix, NOISE)[0] == pytest.approx(
        out.sinr_targets[0], rel=1e-6
    )


def test_removal_deterministic_and_strictly_shrinking():
    rng = np.random.default_rng(9)
    n = 5
    gains = rng.uniform(0.2, 1.0, (n, n)) * 1e-9
    gains[np.arange(n), np.arange(n)] = rng.uniform(0.5, 2.0, n) * 1e-9
    targets = np.full(n, 12.0)
    links = [(i, n + i) for i in range(n)]
    first = check_and_remove(links, gains, NOISE, targets, PMAX)
    second = check_and_remove(links, gains, NOISE, targets, PMAX)
    assert first.kept == second.kept
    assert np.array_equal(first.min_powers_w, second.min_powers_w)
    assert len(first.kept) == n - first.iterations


def test_removal_terminates_within_link_count():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        gains = rng.uniform(0.2, 1.0, (n, n)) * 1e-9  # heavy coupling
        gains[np.arange(n), np.arange(n)] = rng.uniform(0.5, 2.0, n) * 1e-9
        targets = np.full(n, 10.0)
        links = [(i, n + i) for i in range(n)]
        out = check_and_remove(links, gains, NOISE, targets, PMAX)
        assert out.iterations <= n
        if out.kept:
            achieved = sinrs(out.min_powers_w, out.gain_matrix, NOISE)
            assert np.all(achieved / out.sinr_targets > 1 - 1e-6)
            assert np.all(out.min_powers_w <= PMAX * (1 + 1e-6))


def loop_removal(links, gains, noise, targets, pmax):
    """Reference removal loop: scores summed pair by pair."""
    kept, gains, targets = list(links), gains.copy(), targets.copy()
    while True:
        n = len(kept)
        powers = min_power_vector(gains, noise, targets)
        if powers is not None and np.all(powers >= 0.0) and np.all(
            powers <= pmax * (1.0 + TOL.power_feasibility_rel)
        ):
            return kept
        own_min = noise * targets / np.diag(gains)
        tolerance = targets / pmax
        scores = [
            max(
                own_min[u] * sum(tolerance[v] * gains[u, v] for v in range(n) if v != u),
                tolerance[u] * sum(own_min[v] * gains[v, u] for v in range(n) if v != u),
            )
            for u in range(n)
        ]
        worst = int(np.argmax(scores))
        kept.pop(worst)
        keep = [v for v in range(n) if v != worst]
        gains, targets = gains[np.ix_(keep, keep)], targets[keep]


def test_removal_matches_pairwise_loop():
    rng = np.random.default_rng(11)
    fired = 0
    for _ in range(300):
        n = int(rng.integers(2, 12))
        gains = rng.uniform(0.05, 1.0, (n, n)) * 10.0 ** rng.uniform(-11, -9)
        gains[np.arange(n), np.arange(n)] = rng.uniform(0.5, 3.0, n) * 1e-9
        targets = rng.uniform(2.0, 15.0, n)
        links = [(i, n + i) for i in range(n)]
        out = check_and_remove(links, gains, NOISE, targets, PMAX)
        assert out.kept == loop_removal(links, gains, NOISE, targets, PMAX)
        fired += out.iterations > 0
    assert fired > 100


# --- rates and max-min power allocation ------------------------------------------------


def test_rate_zero_power_is_zero():
    gains = np.diag([1e-9, 1e-9]) + 1e-13
    rates = ndl_rates(np.zeros(2), gains, NOISE, 10e6)
    assert np.all(rates == 0.0)


def test_rate_single_link_formula():
    gains = np.array([[3e-9]])
    rate = ndl_rates(np.array([0.1]), gains, NOISE, 10e6)[0]
    assert rate == pytest.approx(10e6 * np.log2(1 + 0.1 * 3e-9 / NOISE), rel=1e-12)


def test_rates_match_direct_recomputation():
    rng = np.random.default_rng(6)
    n = 4
    gains = rng.uniform(0.5, 2.0, (n, n)) * 1e-11
    gains[np.arange(n), np.arange(n)] = rng.uniform(1.0, 5.0, n) * 1e-9
    p = rng.uniform(0.01, PMAX, n)
    rates = ndl_rates(p, gains, NOISE, 10e6)
    for j in range(n):
        interference = sum(p[i] * gains[i, j] for i in range(n) if i != j)
        gamma = p[j] * gains[j, j] / (interference + NOISE)
        assert rates[j] == pytest.approx(10e6 * np.log2(1 + gamma), rel=1e-12)


def assert_power_certificate(res, gains, targets, noise=NOISE, pmax=PMAX):
    """Powers in the box with one at pmax, every SINR at the optimum, the
    optimum no lower than the targets."""
    assert np.all(res.powers_w >= 0.0)
    assert abs(np.max(res.powers_w / pmax) - 1.0) <= TOL.power_feasibility_rel
    achieved = sinrs(res.powers_w, gains, noise)
    assert np.all(np.abs(achieved - res.sinr) <= TOL.sinr_match_rel * res.sinr)
    assert res.sinr >= np.max(targets) * (1.0 - TOL.sinr_match_rel)


def test_dca_single_link_full_power():
    gains = np.array([[2e-9]])
    res = dc_power_allocation(gains, NOISE, PMAX, GAMMA)
    assert res.powers_w[0] == pytest.approx(PMAX, rel=1e-12)
    assert res.sinr == pytest.approx(PMAX * 2e-9 / NOISE, rel=1e-12)


def test_dca_symmetric_links_get_equal_power():
    gains = np.array([[2e-9, 2e-10], [2e-10, 2e-9]])
    res = dc_power_allocation(gains, NOISE, PMAX, GAMMA)
    assert res.powers_w[0] == pytest.approx(res.powers_w[1], rel=1e-9)
    assert res.powers_w[0] == pytest.approx(PMAX, rel=1e-9)


def test_dca_zero_cross_gain_is_weakest_snr():
    diag = np.array([1e-9, 3e-9, 2e-9])
    res = dc_power_allocation(np.diag(diag), NOISE, PMAX, GAMMA)
    assert res.sinr == pytest.approx(np.min(PMAX * diag / NOISE), rel=1e-12)
    assert res.powers_w == pytest.approx(res.sinr * NOISE / diag, rel=1e-12)
    assert res.iterations == 3
    assert_power_certificate(res, np.diag(diag), GAMMA)


def test_dca_certified_and_never_below_targets():
    rng = np.random.default_rng(7)
    done = 0
    while done < 25:
        n = int(rng.integers(2, 9))
        gains = rng.uniform(0.1, 1.0, (n, n)) * 1e-11
        gains[np.arange(n), np.arange(n)] = rng.uniform(0.5, 5.0, n) * 1e-9
        start = min_power_vector(gains, NOISE, GAMMA)
        if start is None or np.any(start < 0) or np.any(start > PMAX):
            continue
        res = dc_power_allocation(gains, NOISE, PMAX, GAMMA)
        assert_power_certificate(res, gains, GAMMA)
        assert res.iterations == n
        assert res.objective_trajectory == pytest.approx(
            [np.log2(1 + GAMMA), np.log2(1 + res.sinr)], rel=1e-15
        )
        done += 1


def test_dca_rejects_targets_above_the_optimum():
    gains = np.array([[2e-9]])
    with pytest.raises(ArithmeticError):
        dc_power_allocation(gains, NOISE, PMAX, 2.0 * PMAX * 2e-9 / NOISE)


def test_dca_two_link_grid_oracle():
    rng = np.random.default_rng(8)
    done = 0
    while done < 10:
        gains = rng.uniform(0.05, 1.0, (2, 2)) * 1e-10
        gains[np.arange(2), np.arange(2)] = rng.uniform(0.5, 5.0, 2) * 1e-9
        start = min_power_vector(gains, NOISE, GAMMA)
        if start is None or np.any(start < 0) or np.any(start > PMAX):
            continue
        res = dc_power_allocation(gains, NOISE, PMAX, GAMMA)
        axis = np.linspace(0.0, PMAX, 300)
        p1, p2 = np.meshgrid(axis, axis, indexing="ij")
        s1 = p1 * gains[0, 0] / (p2 * gains[1, 0] + NOISE)
        s2 = p2 * gains[1, 1] / (p1 * gains[0, 1] + NOISE)
        best = np.minimum(np.log2(1 + s1), np.log2(1 + s2)).max()
        ours = float(np.min(np.log2(1 + sinrs(res.powers_w, gains, NOISE))))
        assert ours >= 0.98 * best
        # the grid is feasible, so the exact optimum cannot lose to it
        assert ours >= best * (1.0 - 1e-12)
        done += 1


# --- full pipeline ---------------------------------------------------------------------


def test_schedule_ndl_invariants_on_random_drops():
    config = NdlConfig()
    catalog = Catalog(zipf_beta=0.8)
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        topo = build_topology(SimGeometry(num_users=25), rng)
        content = build_content_state(catalog, rng, topo.distances, 30.0)
        excluded = set()
        if content.coop_group is not None:
            excluded = set(
                int(u) for u in content.caching_sets[content.coop_group]
            )
        schedule = schedule_ndl(topo, content, config, excluded)
        txs, rxs = schedule.transmitters, schedule.receivers
        assert set(txs).isdisjoint(rxs)
        assert len(set(rxs)) == len(rxs) and len(set(txs)) == len(txs)
        assert not (set(txs) | set(rxs)) & excluded
        for tx, rx in schedule.links:
            assert topo.distances[tx, rx] < config.radius_m
            g = content.requested_group[rx]
            assert content.mode[g] == 0
            assert content.cache[tx, g] == 1
        if schedule.num_served:
            achieved = sinrs(schedule.powers_w, schedule.gain_matrix, config.noise_w)
            assert np.all(achieved >= schedule.sinr_targets * (1 - 1e-6))
            assert np.all(schedule.powers_w <= config.pmax_w * (1 + 1e-9))
            at_min = sinrs(schedule.min_powers_w, schedule.gain_matrix, config.noise_w)
            assert np.max(np.abs(at_min / schedule.sinr_targets - 1.0)) < 1e-6


def test_pipeline_ndl_power_is_certified(monkeypatch):
    solve = ndl.dc_power_allocation
    calls = []

    def recording(gains, noise_w, pmax_w, sinr_targets):
        result = solve(gains, noise_w, pmax_w, sinr_targets)
        calls.append((gains, noise_w, pmax_w, sinr_targets, result))
        return result

    monkeypatch.setattr(ndl, "dc_power_allocation", recording)
    config = harness.SimConfig()
    for mode in harness.MODES:
        for seed in range(1, 21):
            harness.run_drop(config, seed, num_users=30, beta=1.2, mode=mode)
    assert len(calls) > 20
    for gains, noise_w, pmax_w, targets, result in calls:
        assert_power_certificate(result, gains, targets, noise_w, pmax_w)


def test_link_gain_matrix_orientation():
    channels = np.zeros((4, 4), dtype=complex)
    channels[0, 1] = 2.0
    channels[2, 3] = 3.0
    channels[0, 3] = 0.5
    channels[2, 1] = 0.25
    topo = topology_with(channels)
    links = [(0, 1), (2, 3)]
    gains = link_gain_matrix(links, topo)
    assert gains[0, 0] == pytest.approx(4.0)
    assert gains[1, 1] == pytest.approx(9.0)
    assert gains[0, 1] == pytest.approx(0.25)   # tx of link 0 into rx of link 1
    assert gains[1, 0] == pytest.approx(0.0625)
    rng = np.random.default_rng(10)
    channels = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    topo = topology_with(channels)
    links = [(0, 4), (7, 2), (3, 8), (5, 1)]
    gains = link_gain_matrix(links, topo)
    for i, (tx, _) in enumerate(links):
        for j, (_, rx) in enumerate(links):
            assert gains[i, j] == topo.gain(tx, rx)


def test_config_validation():
    NdlConfig().validate()
    with pytest.raises(ValueError):
        NdlConfig(weight_mode="nope").validate()
    with pytest.raises(ValueError):
        NdlConfig(radius_m=0).validate()
