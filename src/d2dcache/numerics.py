"""Shared numerical kernels: ZF precoding, Gram-Schmidt residuals, certified
solves of Z-matrix systems (the link admission systems), maximum-weight
bipartite matching and a projected dual-ascent helper."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class Tolerances:
    """Single source of truth for the tolerances shared by solvers and tests."""

    zf_residual: float = 1e-9       # max |H^H W - I| entry
    orthogonality: float = 1e-9     # normalized cross-correlation of ZF directions
    # componentwise forward-error bound t of a certified Z-matrix solve
    # (|x - x*| <= t x): t <= 1e-7 keeps every SINR within about 2e-7 of the
    # exact solve's, an order below sinr_match_rel
    forward_error_rel: float = 1e-7
    power_feasibility_rel: float = 1e-6   # slack allowed on power/QoS constraints
    sinr_match_rel: float = 1e-6    # SINR-at-target agreement for minimum powers
    dual_move_rel: float = 1e-5     # multiplier movement declaring dual convergence


TOL = Tolerances()


class PrecoderSingularError(ValueError):
    """Stacked channel vectors are (numerically) rank deficient."""


class SingularSystemError(ValueError):
    """Linear system is singular, or its solution could not be certified."""


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
    """Solve Ax = b for a real Z-matrix A (off-diagonal entries <= 0) and a
    positive right-hand side b, the shape of every link admission system.

    The solution from ``np.linalg.solve`` is returned only if it passes
    :func:`certify_solution`; otherwise SingularSystemError is raised.  A
    non-square matrix, non-finite entries, a positive off-diagonal entry or
    a right-hand side entry <= 0 raise ValueError: the certificate proves
    nothing for such systems.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.shape[0] == 0:
        return np.zeros(0)
    if not np.isfinite(a).all() or not np.isfinite(b).all():
        raise ValueError("non-finite entries in linear system")
    if (a > 0.0)[~np.eye(a.shape[0], dtype=bool)].any():
        raise ValueError("matrix is not a Z-matrix: positive off-diagonal entry")
    if not (b > 0.0).all():
        raise ValueError("right-hand side must be positive")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    certify_solution(a, b, x)
    return x


def certify_solution(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """Certify ``x`` as a solution of Ax = b and return its forward-error
    bound t, or raise SingularSystemError.

    Precondition: ``a`` is a finite, square, real Z-matrix (off-diagonal
    entries <= 0).  If x >= 0 and y = Ax > 0, then A is a nonsingular
    M-matrix with A^-1 >= 0, so |x - x*| <= t x entry by entry, where
    t = max_i |y_i - b_i| / y_i (Berman & Plemmons, *Nonnegative Matrices
    in the Mathematical Sciences*, 1994, ch. 6).  Refused when x has a
    negative entry, when Ax is not positive, or when t exceeds
    ``TOL.forward_error_rel``.  One matrix-vector product, no factorisation.
    """
    if not (x >= 0.0).all():
        raise SingularSystemError("solution has a negative entry")
    y = a @ x
    if not (y > 0.0).all():
        raise SingularSystemError("A x is not positive: no M-matrix certificate")
    bound = float(np.max(np.abs(y - b) / y))
    if not bound <= TOL.forward_error_rel:
        raise SingularSystemError(
            f"forward-error bound {bound:.3g} of the solve exceeds its tolerance"
        )
    return bound


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
