import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcache.content import (
    Catalog,
    ContentState,
    build_content_state,
    draw_requests,
    file_request_probs,
    place_caches,
    select_coop_group,
)
from d2dcache.harness import count_service_classes
from d2dcache.ndl import cachers_in_range
from d2dcache.topology import FieldError

DEFAULT = Catalog(num_files=200, cache_size=10, num_popular=100, zipf_beta=0.8)


def group_prob_oracle(group: int, catalog: Catalog) -> float:
    """Direct summation of the two partial sums defining the group probability."""
    lo = group * catalog.cache_size + 1
    hi = (group + 1) * catalog.cache_size
    num = math.fsum(eta ** (-catalog.zipf_beta) for eta in range(lo, hi + 1))
    den = math.fsum(t ** (-catalog.zipf_beta) for t in range(1, catalog.num_files + 1))
    return num / den


def zipf_group_prob(group: int, catalog: Catalog) -> float:
    """Probability that one request falls inside the given (0-based) group,
    from the file probabilities the request draw uses."""
    lo = group * catalog.cache_size
    return float(file_request_probs(catalog)[lo : lo + catalog.cache_size].sum())


def test_zipf_uniform_case():
    cat = Catalog(zipf_beta=0.0)
    for g in range(cat.num_groups):
        assert zipf_group_prob(g, cat) == pytest.approx(10 / 200)


def test_zipf_matches_summation_oracle_and_decreases():
    p0 = zipf_group_prob(0, DEFAULT)
    p1 = zipf_group_prob(1, DEFAULT)
    assert p0 == pytest.approx(group_prob_oracle(0, DEFAULT), rel=1e-12)
    assert p1 == pytest.approx(group_prob_oracle(1, DEFAULT), rel=1e-12)
    assert p0 > p1


def test_zipf_total_below_one_with_unpopular_tail():
    total = sum(zipf_group_prob(g, DEFAULT) for g in range(DEFAULT.num_groups))
    assert total < 1.0


@given(beta=st.floats(0.05, 3.0), g=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_zipf_strictly_decreasing_for_positive_beta(beta, g):
    cat = Catalog(zipf_beta=beta)
    assert zipf_group_prob(g, cat) > zipf_group_prob(g + 1, cat)


def test_place_caches_single_group():
    cat = Catalog(num_files=20, cache_size=10, num_popular=10)
    cached = place_caches(5, cat, np.random.default_rng(0))
    assert cached.shape == (5,)
    assert np.all(cached == 0)


def test_place_caches_concentration():
    cached = place_caches(10_000, DEFAULT, np.random.default_rng(1))
    counts = np.bincount(cached, minlength=DEFAULT.num_groups)
    assert counts.size == DEFAULT.num_groups
    assert np.all(np.abs(counts - 1000) <= 100)


def test_place_caches_deterministic():
    a = place_caches(100, DEFAULT, np.random.default_rng(5))
    b = place_caches(100, DEFAULT, np.random.default_rng(5))
    assert np.array_equal(a, b)


def drawn_ranks(num_users, catalog, seed):
    """The 1-based file ranks ``draw_requests`` draws from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    probs = file_request_probs(catalog)
    return rng.choice(catalog.num_files, size=num_users, p=probs) + 1


@pytest.mark.parametrize("beta", [0.0, 0.4, 0.8, 1.2, 2.0, 50.0])
def test_requests_equal_choice_with_zipf_probs(beta):
    """The cached-CDF draw picks the files, and leaves the generator in the
    state, that ``rng.choice(..., p=file_request_probs(catalog))`` does."""
    catalogs = (
        Catalog(zipf_beta=beta),
        Catalog(num_files=60, cache_size=5, num_popular=30, zipf_beta=beta),
    )
    for catalog in catalogs:
        for num_users in (2, 30, 100):
            for seed in range(40):
                rng = np.random.default_rng(seed)
                requested = draw_requests(num_users, catalog, rng)
                ref_rng = np.random.default_rng(seed)
                probs = file_request_probs(catalog)
                files = ref_rng.choice(catalog.num_files, size=num_users, p=probs)
                want = np.where(
                    files < catalog.num_popular, files // catalog.cache_size, -1
                )
                assert np.array_equal(requested, want)
                assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_requests_degenerate_zipf():
    cat = Catalog(zipf_beta=50.0)
    requested = draw_requests(200, cat, np.random.default_rng(2))
    assert np.all(drawn_ranks(200, cat, 2) == 1)
    assert np.all(requested == 0)


def test_requests_group_frequency_matches_oracle():
    requested = draw_requests(100_000, DEFAULT, np.random.default_rng(3))
    freq = (requested == 0).mean()
    assert abs(freq - zipf_group_prob(0, DEFAULT)) < 0.01


def test_request_row_structure():
    cat = DEFAULT
    requested = draw_requests(500, cat, np.random.default_rng(4))
    files = drawn_ranks(500, cat, 4)
    assert requested.shape == (500,)
    for k in range(500):
        rank = int(files[k])
        if rank > cat.num_popular:
            assert requested[k] == -1
        else:
            # files 1..10 form group 0, 11..20 group 1, ...
            assert requested[k] == (rank - 1) // cat.cache_size


def test_cache_rows_are_one_hot_and_sets_disjoint():
    rng = np.random.default_rng(6)
    cached = place_caches(300, DEFAULT, rng)
    requested = draw_requests(300, DEFAULT, rng)
    state = ContentState(cached, requested, DEFAULT.num_groups)
    assert state.cache.shape == (300, DEFAULT.num_groups)
    assert np.all(state.cache.sum(axis=1) == 1)
    assert np.array_equal(state.cache.argmax(axis=1), cached)
    for caching, demand in zip(state.caching_sets, state.demand_sets):
        assert set(caching).isdisjoint(demand)


def classify(state, distances, radius):
    """(self-satisfied, cellular) user counts of one drop."""
    return count_service_classes(state, cachers_in_range(state, distances, radius))


def label_counts(labels):
    return labels.count("self-satisfied"), labels.count("cellular")


def three_user_instance():
    # user 0 caches g0 and requests g1; user 1 caches g1; user 2 caches g0, requests g0
    cached = np.array([0, 1, 0])
    requested = np.array([1, -1, 0])
    distances = np.array(
        [[0.0, 10.0, 50.0], [10.0, 0.0, 45.0], [50.0, 45.0, 0.0]]
    )
    return cached, requested, distances


def test_classify_self_satisfied():
    cached, requested, distances = three_user_instance()
    self_satisfied, _ = classify(ContentState(cached, requested, 2), distances, 30.0)
    assert self_satisfied == 1  # user 2


def test_classify_d2d_with_supplier_in_range():
    cached, requested, distances = three_user_instance()
    # user 0 is d2d (user 1 caches g1 at 10 m) and user 1 idle: neither is cellular
    assert classify(ContentState(cached, requested, 2), distances, 30.0) == (1, 0)


def test_classify_cellular_without_cooperation():
    cached, requested, distances = three_user_instance()
    distances[0, 1] = distances[1, 0] = 80.0  # push the only supplier out of range
    assert classify(ContentState(cached, requested, 2), distances, 30.0) == (1, 1)


def test_classify_coop_group_requester_is_d2d_regardless_of_range():
    cached, requested, distances = three_user_instance()
    distances[0, 1] = distances[1, 0] = 80.0
    assert classify(ContentState(cached, requested, 2, 1), distances, 30.0) == (1, 0)


def classify_loop(cache, request, distances, d2d_radius_m, coop_group=None):
    """Reference class labels, one user at a time."""
    groups = request.argmax(axis=1)
    classes = []
    for k in range(cache.shape[0]):
        g = int(groups[k])
        if request[k].sum() == 0:
            classes.append("idle-beyond-popular")
        elif cache[k, g] == 1:
            classes.append("self-satisfied")
        else:
            cachers = np.flatnonzero(cache[:, g])
            if coop_group is not None and g == coop_group and cachers.size > 0:
                classes.append("d2d")
            elif np.any(distances[k, cachers] < d2d_radius_m):
                classes.append("d2d")
            else:
                classes.append("cellular")
    return classes


def random_distances(rng, k):
    positions = rng.uniform(0, 100, (k, 2))
    return np.sqrt(((positions[:, None] - positions[None]) ** 2).sum(-1))


def test_classify_matches_per_user_loop():
    rng = np.random.default_rng(9)
    catalog = Catalog(num_files=60, cache_size=5, num_popular=30, zipf_beta=0.8)
    for trial in range(300):
        k = int(rng.integers(2, 40))
        cached = place_caches(k, catalog, rng)
        requested = draw_requests(k, catalog, rng)
        distances = random_distances(rng, k)
        coop = None if trial % 3 == 0 else int(rng.integers(0, catalog.num_groups))
        radius = float(rng.uniform(5.0, 60.0))
        expected = classify_loop(
            one_hot(cached, catalog.num_groups),
            one_hot(requested, catalog.num_groups),
            distances,
            radius,
            coop,
        )
        state = ContentState(cached, requested, catalog.num_groups, coop)
        assert classify(state, distances, radius) == label_counts(expected)


def test_select_coop_group_examples():
    assert select_coop_group(np.array([3, 7, 2])) == 1
    assert select_coop_group(np.array([5, 5, 1])) == 0  # tie -> lowest index
    assert select_coop_group(np.zeros(3, dtype=int)) is None


@given(sizes=st.lists(st.integers(0, 9), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_select_coop_group_matches_bruteforce(sizes):
    got = select_coop_group(np.array(sizes))
    if max(sizes) == 0:
        assert got is None
        return
    best = max(sizes)
    assert sizes[got] == best
    assert all(sizes[i] < best for i in range(got))


def test_build_content_state_modes():
    rng = np.random.default_rng(8)
    state = build_content_state(DEFAULT, rng, 30, cooperate=True)
    if state.coop_group is not None:
        assert state.mode.sum() == 1
        assert state.mode[state.coop_group] == 1
        assert len(state.demand_sets[state.coop_group]) == max(
            len(s) for s in state.demand_sets
        )
    rng2 = np.random.default_rng(8)
    state2 = build_content_state(DEFAULT, rng2, 30, cooperate=False)
    assert state2.coop_group is None
    assert state2.mode.sum() == 0
    # identical draws regardless of the cooperate flag
    assert np.array_equal(state.cached_group, state2.cached_group)
    assert np.array_equal(state.requested_group, state2.requested_group)


# --- references: the one-hot draws and list-based views the vectors replaced ---------


def one_hot(groups, num_groups):
    """K x G indicator matrix of per-user groups, with an all-zero row for -1."""
    return (np.asarray(groups)[:, None] == np.arange(num_groups)).astype(np.int8)


def one_hot_caches(num_users, catalog, rng):
    """Each user caches one group drawn uniformly; the K x G one-hot matrix."""
    groups = rng.integers(0, catalog.num_groups, size=num_users)
    cache = np.zeros((num_users, catalog.num_groups), dtype=np.int8)
    cache[np.arange(num_users), groups] = 1
    return cache


def one_hot_requests(num_users, catalog, rng):
    """K x G group-request matrix, all-zero row beyond the popular set."""
    probs = file_request_probs(catalog)
    files = rng.choice(catalog.num_files, size=num_users, p=probs) + 1
    request = np.zeros((num_users, catalog.num_groups), dtype=np.int8)
    popular = np.flatnonzero(files <= catalog.num_popular)
    request[popular, (files[popular] - 1) // catalog.cache_size] = 1
    return request


def reference_group_sets(cache, request):
    """Caching sets M_g and unserved-demand sets N_g, one group at a time."""
    num_groups = cache.shape[1]
    caching = [np.flatnonzero(cache[:, g]) for g in range(num_groups)]
    demand = [
        np.flatnonzero((request[:, g] == 1) & (cache[:, g] == 0))
        for g in range(num_groups)
    ]
    return caching, demand


def reference_requested_groups(request):
    """Per-user requested group index, -1 where the request row is all zero."""
    groups = np.full(request.shape[0], -1, dtype=int)
    rows, cols = np.nonzero(request)
    groups[rows] = cols
    return groups


def reference_classes(cache, request, distances, d2d_radius_m, coop_group=None):
    """String class labels, from one K x G "cacher of the group in range" matrix."""
    groups = reference_requested_groups(request)
    users = np.arange(cache.shape[0])
    group = np.maximum(groups, 0)
    cached = cache == 1
    near_cacher = (distances < d2d_radius_m) @ cached
    coop_reachable = (groups == coop_group) & cached.any(axis=0)[group]
    classes = np.select(
        [groups < 0, cached[users, group], coop_reachable | near_cacher[users, group]],
        ["idle-beyond-popular", "self-satisfied", "d2d"],
        "cellular",
    )
    return classes.tolist()


def reference_coop_group(demand_sets):
    """Most demanded group by set size, or None when every set is empty."""
    sizes = [len(s) for s in demand_sets]
    if max(sizes, default=0) == 0:
        return None
    return int(np.argmax(sizes))


def test_vector_draws_consume_generator_like_one_hot_draws():
    catalogs = [
        DEFAULT,
        Catalog(num_files=20, cache_size=10, num_popular=10),  # one group
        Catalog(num_files=50, cache_size=1, num_popular=30),
        Catalog(num_files=40, cache_size=5, num_popular=40, zipf_beta=1.2),
    ]
    for catalog, seed in itertools.product(catalogs, range(200)):
        k = 1 + seed % 60
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        cached = place_caches(k, catalog, rng)
        requested = draw_requests(k, catalog, rng)
        cache = one_hot_caches(k, catalog, ref)
        request = one_hot_requests(k, catalog, ref)
        assert np.array_equal(cached, cache.argmax(axis=1))
        assert np.array_equal(requested, reference_requested_groups(request))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_derived_views_match_list_references():
    rng = np.random.default_rng(23)
    catalogs = [
        DEFAULT,
        Catalog(zipf_beta=1.6),
        Catalog(num_files=20, cache_size=10, num_popular=10),  # one group
    ]
    draws = 0
    for k, catalog, cooperate in itertools.product(
        (2, 20, 30, 100), catalogs, (True, False)
    ):
        for _ in range(45):
            # the references draw one-hot matrices from a copy of the generator
            ref = copy.deepcopy(rng)
            state = build_content_state(catalog, rng, k, cooperate)
            cache = one_hot_caches(k, catalog, ref)
            request = one_hot_requests(k, catalog, ref)
            caching, demand = reference_group_sets(cache, request)
            assert len(state.caching_sets) == len(state.demand_sets) == len(caching)
            for got, want in zip(state.caching_sets, caching):
                assert np.array_equal(got, want)
            for got, want in zip(state.demand_sets, demand):
                assert np.array_equal(got, want)
            coop = reference_coop_group(demand) if cooperate else None
            assert state.coop_group == coop
            mode = np.zeros(catalog.num_groups, dtype=np.int8)
            if coop is not None:
                mode[coop] = 1
            assert np.array_equal(state.mode, mode)
            assert np.array_equal(state.cache, cache)
            assert np.array_equal(
                state.requested_group, reference_requested_groups(request)
            )
            distances = random_distances(rng, k)
            radius = float(rng.uniform(1.0, 150.0))
            labels = reference_classes(cache, request, distances, radius, coop)
            assert classify(state, distances, radius) == label_counts(labels)
            draws += 1
    assert draws >= 1000


def test_catalog_validation():
    Catalog(num_files=10, cache_size=10, num_popular=10)
    with pytest.raises(ValueError):
        Catalog(num_popular=300)
    with pytest.raises(ValueError):
        Catalog(num_popular=95)
    with pytest.raises(ValueError):
        Catalog(num_popular=5)
    with pytest.raises(ValueError):
        Catalog(cache_size=0)
    # a FieldError, so a caller can name the value by its own key
    with pytest.raises(FieldError, match="zipf_beta") as refused:
        Catalog(zipf_beta=-0.1)
    assert (refused.value.name, refused.value.value) == ("zipf_beta", -0.1)
