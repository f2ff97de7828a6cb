from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcache import harness, numerics
from d2dcache.numerics import (
    TOL,
    PrecoderSingularError,
    SingularSystemError,
    certify_solution,
    gs_residual,
    max_weight_matching,
    projected_dual_ascent,
    solve_linear,
    zf_precoder,
)
from reference import assignment_matching


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --- zero-forcing precoder ---------------------------------------------------


def test_zf_identity_channels():
    prec = zf_precoder(np.eye(3, dtype=complex))
    assert np.allclose(prec.matrix, np.eye(3))
    assert np.allclose(prec.norms_sq, 1.0)


def test_zf_single_receiver_scalar_case():
    rng = np.random.default_rng(0)
    h = random_complex(rng, (4, 1))
    prec = zf_precoder(h)
    norm_sq = np.linalg.norm(h) ** 2
    assert np.allclose(prec.matrix, h / norm_sq)
    projection = (h.conj().T @ prec.normalized)[0, 0]
    assert projection.imag == pytest.approx(0.0, abs=1e-12)
    assert projection.real > 0


def test_zf_inverse_residual():
    rng = np.random.default_rng(1)
    h = random_complex(rng, (3, 2))
    prec = zf_precoder(h)
    residual = np.max(np.abs(h.conj().T @ prec.matrix - np.eye(2)))
    assert residual < 1e-9


def test_zf_cross_talk_suppressed():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = rng.integers(2, 7)
        n = rng.integers(1, m + 1)
        h = random_complex(rng, (m, n))
        prec = zf_precoder(h)
        for k in range(n):
            for j in range(n):
                if k == j:
                    continue
                cross = abs(np.vdot(h[:, j], prec.normalized[:, k]))
                scale = np.linalg.norm(h[:, j]) * np.linalg.norm(prec.normalized[:, k])
                assert cross / scale < TOL.orthogonality


def test_zf_rejects_rank_deficiency():
    h = np.ones((3, 2), dtype=complex)  # duplicate columns
    with pytest.raises(PrecoderSingularError):
        zf_precoder(h)
    with pytest.raises(PrecoderSingularError):
        zf_precoder(np.ones((2, 3), dtype=complex))  # more receivers than transmitters


def test_zf_rejects_nearly_duplicate_columns():
    rng = np.random.default_rng(8)
    h = random_complex(rng, (4, 3))
    h[:, 2] = h[:, 1] + 1e-12
    with pytest.raises(PrecoderSingularError):
        zf_precoder(h)


def test_zf_residual_certificate_fires(monkeypatch):
    rng = np.random.default_rng(9)
    h = random_complex(rng, (4, 3))
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-6))
    with pytest.raises(PrecoderSingularError):
        zf_precoder(h)


# condition number above which the SVD-guarded references refuse a system
SVD_CONDITION_LIMIT = 1e12


def svd_guarded_zf(h):
    """Reference precoder matrix: refused (None) when the SVD condition number
    of the Gram matrix exceeds ``SVD_CONDITION_LIMIT``, with no residual check."""
    gram = h.conj().T @ h
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.linalg.cond(gram) > SVD_CONDITION_LIMIT:
            return None
    return h @ np.linalg.solve(gram, np.eye(h.shape[1], dtype=complex))


def zf_verdict_against_reference(h):
    """(reference refuses, zf_precoder refuses); equal matrices when both accept."""
    ref = svd_guarded_zf(h)
    try:
        ours = zf_precoder(h).matrix
    except PrecoderSingularError:
        return ref is None, True
    if ref is not None:
        assert ours.tobytes() == ref.tobytes()
    return ref is None, False


def test_zf_matches_svd_guarded_reference_on_random_channels():
    # criterion 1's draws: path-loss scaled channels, 2..6 antennas
    rng = np.random.default_rng(101)
    disagreements = 0
    for _ in range(5000):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, m + 1))
        d = rng.uniform(15.0, 80.0, (m, n))
        amp = np.sqrt(10 ** (-(37.6 + 36.8 * np.log10(d)) / 10) / 2)
        ref_refuses, refuses = zf_verdict_against_reference(amp * random_complex(rng, (m, n)))
        disagreements += ref_refuses != refuses
    assert disagreements == 0


def test_zf_matches_svd_guarded_reference_on_pipeline_drops(monkeypatch):
    precoder = numerics.zf_precoder
    seen = Counter()

    def comparing(h):
        ref_refuses, refuses = zf_verdict_against_reference(h)
        seen["calls"] += 1
        seen["disagreements"] += ref_refuses != refuses
        return precoder(h)

    monkeypatch.setattr(numerics, "zf_precoder", comparing)
    config = harness.SimConfig()
    for num_users, beta in ((30, 1.2), (20, 0.6), (40, 1.6)):
        for seed in range(1, 201):
            harness.run_drop(config, seed, num_users=num_users, beta=beta, mode="coop")
    assert seen["calls"] > 1000
    assert seen["disagreements"] == 0, seen


# --- Gram-Schmidt residual ---------------------------------------------------


def test_gs_empty_basis_returns_input():
    h = np.array([1.0 + 2j, 3.0])
    assert np.array_equal(gs_residual(h, []), h)


def test_gs_parallel_vector_vanishes():
    rng = np.random.default_rng(3)
    b = random_complex(rng, 5)
    h = (2.0 - 1.5j) * b
    res = gs_residual(h, [b])
    assert np.linalg.norm(res) < 1e-9 * np.linalg.norm(h)


def test_gs_residual_orthogonal_to_basis():
    rng = np.random.default_rng(4)
    for _ in range(30):
        dim = rng.integers(3, 8)
        basis = []
        for _ in range(rng.integers(1, dim)):
            v = random_complex(rng, dim)
            basis.append(gs_residual(v, basis))
        h = random_complex(rng, dim)
        res = gs_residual(h, basis)
        for b in basis:
            assert abs(np.vdot(b, res)) < 1e-9 * np.linalg.norm(b) * np.linalg.norm(h)


def test_gs_reconstruction_identity():
    rng = np.random.default_rng(5)
    dim = 6
    basis = []
    for _ in range(3):
        v = random_complex(rng, dim)
        basis.append(gs_residual(v, basis))
    h = random_complex(rng, dim)
    res = gs_residual(h, basis)
    rebuilt = res + sum(
        (np.vdot(b, h) / np.vdot(b, b).real) * b for b in basis
    )
    assert np.allclose(rebuilt, h, atol=1e-12)


# --- linear solve ------------------------------------------------------------


def random_admission_system(rng, n):
    """An admission-type Z-matrix: -G^T off the diagonal, G_ii / gamma on it,
    with targets low enough to keep it a nonsingular M-matrix."""
    gains = rng.uniform(0.05, 1.0, (n, n)) * 1e-11
    gains[np.arange(n), np.arange(n)] = rng.uniform(0.5, 3.0, n) * 1e-9
    a = -gains.T
    np.fill_diagonal(a, np.diag(gains) / rng.uniform(1.0, 15.0, n))
    return a


def test_solve_identity():
    b = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(solve_linear(np.eye(3), b), b)


def test_solve_diagonal():
    a = np.diag([2.0, 4.0])
    b = np.array([2.0, 2.0])
    assert np.allclose(solve_linear(a, b), [1.0, 0.5])


def test_solve_rejects_systems_outside_its_contract():
    # the certificate proves nothing unless A is a Z-matrix and b > 0
    with pytest.raises(ValueError, match="right-hand side"):
        solve_linear(np.eye(3), np.array([1.0, -2.0, 3.0]))
    with pytest.raises(ValueError, match="right-hand side"):
        solve_linear(np.eye(2), np.array([1.0, 0.0]))
    nearly = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(ValueError, match="Z-matrix"):
        solve_linear(nearly, np.ones(2))
    with pytest.raises(ValueError, match="non-finite"):
        solve_linear(np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError, match="square"):
        solve_linear(np.ones((2, 3)), np.ones(2))


def test_solve_random_residual():
    rng = np.random.default_rng(6)
    for n in range(1, 21):
        a = random_admission_system(rng, n)
        b = rng.uniform(0.5, 2.0, n) * 1e-12
        x = solve_linear(a, b)
        assert x.tobytes() == np.linalg.solve(a, b).tobytes()
        # the componentwise certificate: x >= 0, Ax > 0, |Ax - b| <= t Ax
        y = a @ x
        assert np.all(x >= 0.0) and np.all(y > 0.0)
        assert np.all(np.abs(y - b) <= TOL.forward_error_rel * y)


def test_solve_residual_certificate_fires(monkeypatch):
    a = np.array([[4.0, -1.0], [-2.0, 3.0]])
    b = np.array([1.0, 2.0])
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-6))
    with pytest.raises(SingularSystemError):
        solve_linear(a, b)


def test_certify_accepts_the_solve_and_refuses_a_perturbed_one():
    rng = np.random.default_rng(8)
    a = random_admission_system(rng, 5)
    b = rng.uniform(0.5, 2.0, 5)
    x = np.linalg.solve(a, b)
    assert certify_solution(a, b, x) <= TOL.forward_error_rel
    # a relative perturbation of 1e-6 gives t of about 1e-6
    with pytest.raises(SingularSystemError, match="forward-error bound"):
        certify_solution(a, b, x * (1.0 + 1e-6))
    negative = x.copy()
    negative[2] = -negative[2]
    with pytest.raises(SingularSystemError, match="negative entry"):
        certify_solution(a, b, negative)
    # x >= 0 whose image is not positive: no M-matrix certificate
    with pytest.raises(SingularSystemError, match="not positive"):
        certify_solution(np.array([[1.0, -2.0], [0.0, 1.0]]), np.ones(2), np.ones(2))


def test_solve_rejects_singular_and_ill_conditioned():
    with pytest.raises(SingularSystemError):
        solve_linear(np.zeros((2, 2)), np.ones(2))
    # nonsingular with x < 0: no M-matrix, refused
    with pytest.raises(SingularSystemError, match="negative entry"):
        solve_linear(np.array([[1.0, -1.0], [-1.0, 1.0 - 1e-9]]), np.ones(2))
    # condition number near 4e15, yet an M-matrix whose solve is accurate:
    # the stored entry is 1 + d with d = 5 * 2**-52, so x* = ((2 + d) / d, 2 / d)
    nearly = np.array([[1.0, -1.0], [-1.0, 1.0 + 1e-15]])
    x = solve_linear(nearly, np.ones(2))
    d = Fraction(nearly[1, 1]) - 1
    exact = [(2 + d) / d, 2 / d]
    assert x[1] == pytest.approx(1.8014e15, rel=1e-4)
    for computed, want in zip(x, exact):
        assert abs(Fraction(computed) - want) <= Fraction(TOL.forward_error_rel) * want


# --- maximum weight bipartite matching ----------------------------------------


def match(edges):
    """:func:`max_weight_matching` on a list of (left, right, weight) triples."""
    left, right, weights = zip(*edges) if edges else ((), (), ())
    return max_weight_matching(left, right, weights)


def matching_weight(edges, pairs) -> float:
    """Total weight of the given (left, right) pairs."""
    lookup = {(left, right): weight for left, right, weight in edges}
    return float(sum(lookup[pair] for pair in pairs))


def brute_force_matching_weight(edges) -> float:
    """Exhaustive search over all matchings."""
    adjacency = {}
    for left, right, weight in edges:
        adjacency.setdefault(left, []).append((right, weight))
    lefts = sorted(adjacency)

    def recurse(idx, used):
        if idx == len(lefts):
            return 0.0
        best = recurse(idx + 1, used)  # leave this left vertex unmatched
        for right, weight in adjacency[lefts[idx]]:
            if right not in used:
                best = max(best, weight + recurse(idx + 1, used | {right}))
        return best

    return recurse(0, frozenset())


def test_matching_single_edge():
    assert match([(0, 0, 2.5)]) == [(0, 0)]


def test_matching_dominant_diagonal():
    edges = [(0, 0, 3.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]
    pairs = match(edges)
    assert pairs == [(0, 0), (1, 1)]
    assert matching_weight(edges, pairs) == 6.0


def test_matching_prefers_weight_over_cardinality():
    edges = [(0, 0, 10.0), (0, 1, 1.0), (1, 0, 1.0)]
    pairs = match(edges)
    assert matching_weight(edges, pairs) == 10.0


def test_matching_rejects_bad_edges():
    for weight, kind in ((float("nan"), "NaN"), (-1.0, "negative"), (np.inf, "infinite")):
        with pytest.raises(ValueError, match=f"edge with {kind} weight"):
            match([(0, 0, 1.0), (1, 1, weight)])


def test_matching_edge_list_rejects_bad_input():
    for left, right, weights in (
        ([0, 1], [0], [1.0, 2.0]),
        ([0], [0], [1.0, 2.0]),
        ([[0]], [[0]], [[1.0]]),
    ):
        with pytest.raises(ValueError, match="aligned 1-D arrays"):
            max_weight_matching(left, right, weights)
    for left, right in (([-1], [0]), ([0], [-1]), ([0, -2], [1, 0])):
        with pytest.raises(ValueError, match="vertex ids must be non-negative"):
            max_weight_matching(left, right, [1.0] * len(left))
    assert max_weight_matching([], [], []) == []
    # empty rows and columns below the largest id are simply unmatched
    assert max_weight_matching([7, 3], [2, 9], [1.0, 1.0]) == [(3, 9), (7, 2)]


def test_matching_equals_bruteforce_seeded():
    rng = np.random.default_rng(7)
    for _ in range(100):
        nl, nr = rng.integers(1, 9, size=2)
        edges = []
        for i in range(nl):
            for j in range(nr):
                if rng.random() < 0.5:
                    edges.append((i, j, float(rng.integers(0, 1000))))
        pairs = match(edges)
        rights = [j for _, j in pairs]
        lefts = [i for i, _ in pairs]
        assert len(set(rights)) == len(rights) and len(set(lefts)) == len(lefts)
        assert matching_weight(edges, pairs) == brute_force_matching_weight(edges)


@pytest.mark.parametrize(
    "num_left, num_right, empty_rows, empty_cols",
    [(12, 7, 0, 0), (7, 12, 0, 0), (15, 15, 4, 0), (15, 15, 0, 4), (40, 30, 5, 5)],
)
def test_matching_equals_assignment_reference(num_left, num_right, empty_rows, empty_cols):
    """Pair for pair the same matching as scipy's rectangular assignment, on
    graphs with continuous weights, a larger left or right side, and rows or
    columns without an edge.  The weights span eight decades, about the
    spread of a drop's link gains; over sixteen, a light edge can fall below
    the rounding of the total, and two optimal matchings tie."""
    rng = np.random.default_rng(num_left * 100 + num_right + 7 * empty_rows + empty_cols)
    for _ in range(200):
        is_edge = rng.random((num_left, num_right)) < rng.uniform(0.05, 0.9)
        is_edge[rng.choice(num_left, empty_rows, replace=False), :] = False
        is_edge[:, rng.choice(num_right, empty_cols, replace=False)] = False
        scale = 10.0 ** rng.integers(-4, 5, size=(num_left, num_right))
        weights = rng.exponential(size=is_edge.shape) * scale
        left, right = np.nonzero(is_edge)
        edge_weights = weights[left, right]
        pairs = max_weight_matching(left, right, edge_weights)
        assert pairs == assignment_matching(left, right, edge_weights)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_matching_equals_bruteforce_property(data):
    nl = data.draw(st.integers(1, 5))
    nr = data.draw(st.integers(1, 5))
    edges = []
    for i in range(nl):
        for j in range(nr):
            if data.draw(st.booleans()):
                edges.append((i, j, data.draw(st.floats(0.0, 100.0))))
    pairs = match(edges)
    got = matching_weight(edges, pairs)
    want = brute_force_matching_weight(edges)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_matching_ignores_edge_order_and_lighter_copies(data):
    """The pairs depend on the edge set alone: shuffling the edges, or
    repeating one with a weight no larger than its own, leaves them as they
    were, ties included, and their total is the brute-force optimum."""
    vertex = st.integers(0, 6)
    any_weight = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 100.0))
    keys = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=14, unique=True))
    edges = [(i, j, data.draw(any_weight)) for i, j in keys]
    pairs = match(edges)
    assert pairs == sorted(pairs)
    assert match(data.draw(st.permutations(edges))) == pairs
    i, j, weight = data.draw(st.sampled_from(edges))
    position = data.draw(st.integers(0, len(edges)))
    copy = (i, j, data.draw(st.floats(0.0, weight)))
    assert match(edges[:position] + [copy] + edges[position:]) == pairs
    got = matching_weight(edges, pairs)
    want = brute_force_matching_weight(edges)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


# --- projected dual ascent -----------------------------------------------------


def test_dual_ascent_zero_gradient_fixed_point():
    result = projected_dual_ascent(lambda m: np.zeros_like(m), np.array([1.0, 2.0]))
    assert result.converged
    assert result.iterations == 1
    assert np.array_equal(result.multipliers, [1.0, 2.0])


def test_dual_ascent_projection_clamps_at_zero():
    result = projected_dual_ascent(
        lambda m: np.array([5.0]), np.array([0.01]), max_iters=50
    )
    assert np.all(result.multipliers >= 0.0)
    assert result.multipliers[0] == 0.0


def test_dual_ascent_converges_to_scalar_kkt_point():
    # max log2(1 + p*g/n) s.t. p <= pmax: optimal multiplier 1/(ln2*(n/g + pmax))
    gain, noise, pmax = 4.0, 1.0, 2.0
    lam_star = 1.0 / (np.log(2.0) * (noise / gain + pmax))

    def gradient(lam):
        with np.errstate(divide="ignore"):
            p = np.where(lam > 0, 1.0 / (np.log(2.0) * lam) - noise / gain, 50.0)
        p = np.clip(p, 0.0, 50.0)
        return pmax - p

    result = projected_dual_ascent(gradient, np.array([1.0]), max_iters=5000)
    assert result.multipliers[0] == pytest.approx(lam_star, rel=1e-3)


def test_dual_ascent_rejects_nonpositive_steps():
    with pytest.raises(ValueError):
        projected_dual_ascent(
            lambda m: m, np.array([1.0]), step_schedule=lambda t: 0.0, max_iters=3
        )
