"""Shared numerical kernels: ZF precoding, Gram-Schmidt residuals, linear solves,
maximum-weight bipartite matching and a projected dual-ascent helper."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class Tolerances:
    """Single source of truth for the tolerances shared by solvers and tests."""

    zf_residual: float = 1e-9       # max |H^H W - I| entry
    orthogonality: float = 1e-9     # normalized cross-correlation of ZF directions
    linsolve_rel: float = 1e-8      # ||Ax - b|| relative to ||b||
    # declare a real system numerically singular when LAPACK's 1-norm condition
    # estimate (xGECON on the LU factors) exceeds this
    condition_limit: float = 1e12
    power_feasibility_rel: float = 1e-6   # slack allowed on power/QoS constraints
    sinr_match_rel: float = 1e-6    # SINR-at-target agreement for minimum powers
    dual_move_rel: float = 1e-5     # multiplier movement declaring dual convergence


TOL = Tolerances()


class PrecoderSingularError(ValueError):
    """Stacked channel vectors are (numerically) rank deficient."""


class SingularSystemError(ValueError):
    """Linear system is singular or too ill-conditioned to trust."""


@dataclass
class ZfPrecoder:
    """Zero-forcing precoder W = H (H^H H)^-1 with unit-norm column directions."""

    matrix: np.ndarray       # (M, N) raw columns w_n
    normalized: np.ndarray   # (M, N) columns w_n / ||w_n||
    norms_sq: np.ndarray     # (N,) squared column norms ||w_n||^2


def zf_precoder(channel_matrix: np.ndarray) -> ZfPrecoder:
    """Zero-forcing precoder for stacked receiver channel columns.

    ``channel_matrix`` is M x N with one column per scheduled receiver;
    requires N <= M and linearly independent columns.  The result is checked:
    ``max |H^H W - I| <= TOL.zf_residual``, or PrecoderSingularError is
    raised, which also covers a singular Gram matrix.
    """
    h = np.asarray(channel_matrix, dtype=complex)
    if h.ndim != 2:
        raise ValueError("channel matrix must be 2-D")
    num_tx, num_rx = h.shape
    if num_rx > num_tx:
        raise PrecoderSingularError(
            f"cannot zero-force {num_rx} receivers with {num_tx} transmitters"
        )
    if num_rx == 0:
        return ZfPrecoder(h.copy(), h.copy(), np.zeros(0))
    h_herm = h.conj().T
    identity = np.eye(num_rx, dtype=complex)
    try:
        w = h @ np.linalg.solve(h_herm @ h, identity)
    except np.linalg.LinAlgError as exc:
        raise PrecoderSingularError("stacked channel vectors are rank deficient") from exc
    # a near-singular Gram matrix leaves cross-talk (or NaN) in H^H W
    if not np.max(np.abs(h_herm @ w - identity)) <= TOL.zf_residual:
        raise PrecoderSingularError("stacked channel vectors are rank deficient")
    norms_sq = np.sum(np.abs(w) ** 2, axis=0)
    normalized = w / np.sqrt(norms_sq)
    return ZfPrecoder(matrix=w, normalized=normalized, norms_sq=norms_sq)


def gs_residual(vector: np.ndarray, basis: Sequence[np.ndarray]) -> np.ndarray:
    """Component of ``vector`` orthogonal to every (non-orthogonalized) basis vector."""
    residual = np.asarray(vector, dtype=complex).copy()
    for b in basis:
        b = np.asarray(b, dtype=complex)
        residual = residual - (np.vdot(b, vector) / np.vdot(b, b).real) * b
    return residual


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the square real system Ax = b, refusing untrustworthy results.

    The solution from ``np.linalg.solve`` is returned only if it passes
    :func:`certify_solution`; otherwise SingularSystemError is raised.
    Non-finite entries raise ValueError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.shape[0] == 0:
        return np.zeros(0)
    if not np.isfinite(a).all() or not np.isfinite(b).all():
        raise ValueError("non-finite entries in linear system")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    certify_solution(a, b, x)
    return x


def certify_solution(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> None:
    """Raise SingularSystemError unless ``x`` is a trustworthy solution of the
    finite, square, real, non-empty system Ax = b.

    Refused when the LU factors of A are singular, when the LAPACK 1-norm
    condition estimate exceeds ``TOL.condition_limit``, or when the residual
    ||Ax - b|| exceeds ``TOL.linsolve_rel`` * ||b||.  The estimate (xGECON,
    Higham 1988) costs O(n^2) on top of the factorisation.  ``x`` is not
    recomputed from these factors: scipy's LAPACK build may round the last
    bit differently from numpy's solver.
    """
    lu, _, info = lapack.dgetrf(a)
    if info > 0:
        raise SingularSystemError("system is singular")
    rcond, _ = lapack.dgecon(lu, lapack.dlange("1", a))
    if not rcond * TOL.condition_limit >= 1.0:
        raise SingularSystemError("system is numerically singular")
    residual = a @ x - b
    if not residual @ residual <= TOL.linsolve_rel**2 * (b @ b):
        raise SingularSystemError("residual of the solve exceeds its tolerance")


@dataclass
class BipartiteGraph:
    """Simple weighted bipartite graph with 0-based vertex indices per side."""

    num_left: int
    num_right: int
    edges: list = field(default_factory=list)  # (left, right, weight >= 0)

    def weight_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense weight matrix and edge mask, num_left x num_right, with
        non-edges at zero; raises ValueError on an out-of-range or duplicate
        edge."""
        shape = (self.num_left, self.num_right)
        weights, is_edge = np.zeros(shape), np.zeros(shape, dtype=bool)
        if not self.edges:
            return weights, is_edge
        left, right, weight = zip(*self.edges)
        if (
            min(left) < 0 or max(left) >= self.num_left
            or min(right) < 0 or max(right) >= self.num_right
        ):
            raise ValueError("edge endpoint out of range")
        index = (np.array(left), np.array(right))
        weights[index] = weight
        is_edge[index] = True
        if np.count_nonzero(is_edge) < len(self.edges):
            raise ValueError("duplicate edge")
        return weights, is_edge


def max_weight_matching(weights, is_edge=None) -> list[tuple[int, int]]:
    """Vertex-disjoint edge set of maximum total weight, sorted by left vertex.

    ``weights`` is the dense num_left x num_right weight matrix, non-edges at
    zero, and ``is_edge`` marks the real edges; a :class:`BipartiteGraph`
    may be passed alone instead.  Solved as a rectangular assignment over
    the dense matrix: with non-negative weights, optimal assignments
    restricted to real edges are exactly the maximum-weight matchings.
    """
    if isinstance(weights, BipartiteGraph):
        weights, is_edge = weights.weight_matrix()
    if weights.shape != is_edge.shape:
        raise ValueError("weight matrix and edge mask differ in shape")
    edge_weights = weights[is_edge]
    if not edge_weights.size:
        return []
    if not edge_weights.min() >= 0.0:  # NaN fails the comparison too
        kind = "NaN" if np.isnan(edge_weights).any() else "negative"
        raise ValueError(f"edge with {kind} weight")
    if np.count_nonzero(weights) != np.count_nonzero(edge_weights):
        raise ValueError("non-edge with non-zero weight")
    rows, cols = linear_sum_assignment(weights, maximize=True)  # rows ascending
    keep = is_edge[rows, cols]
    return list(zip(rows[keep].tolist(), cols[keep].tolist()))


def matching_weight(graph: BipartiteGraph, pairs) -> float:
    lookup = {(left, right): weight for left, right, weight in graph.edges}
    return float(sum(lookup[pair] for pair in pairs))


@dataclass
class DualAscentResult:
    multipliers: np.ndarray
    iterations: int
    converged: bool


def default_step_schedule(t: int) -> float:
    """Diminishing step 0.1 / sqrt(t), t starting at 1."""
    return 0.1 / math.sqrt(t)


def projected_dual_ascent(
    gradient: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    step_schedule: Callable[[int], float] = default_step_schedule,
    max_iters: int = 2000,
    rel_tol: float = TOL.dual_move_rel,
) -> DualAscentResult:
    """Iterate m <- [m - step(t) * gradient(m)]^+ to a projected stationary point.

    Multipliers stay non-negative at every step.  Convergence is declared on
    the step-free projected-gradient residual |m - [m - g]^+| dropping below
    ``rel_tol`` relative to the iterate size (per-iteration movement shrinks
    with the diminishing steps regardless of optimality, so it is no test).
    """
    multipliers = np.maximum(np.asarray(start, dtype=float), 0.0)
    iterations = 0
    for t in range(1, max_iters + 1):
        step = step_schedule(t)
        if step <= 0:
            raise ValueError("step sizes must be positive")
        grad = gradient(multipliers)
        residual = np.max(
            np.abs(multipliers - np.maximum(multipliers - grad, 0.0)), initial=0.0
        )
        scale = 1.0 + np.max(np.abs(multipliers), initial=0.0)
        multipliers = np.maximum(multipliers - step * grad, 0.0)
        iterations = t
        if residual <= rel_tol * scale:
            return DualAscentResult(multipliers, iterations, True)
    return DualAscentResult(multipliers, iterations, False)
