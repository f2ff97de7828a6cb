"""Shared numerical kernels: ZF precoding, Gram-Schmidt residuals, certified
solves of Z-matrix systems (the link admission systems), maximum-weight
bipartite matching by shortest augmenting paths and a projected dual-ascent
helper."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


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
        return ZfPrecoder(h.copy(), h.copy())
    h_herm = h.conj().T
    identity = np.eye(num_rx, dtype=complex)
    try:
        w = h @ np.linalg.solve(h_herm @ h, identity)
    except np.linalg.LinAlgError as exc:
        raise PrecoderSingularError("stacked channel vectors are rank deficient") from exc
    # a near-singular Gram matrix leaves cross-talk (or NaN) in H^H W
    if not np.max(np.abs(h_herm @ w - identity)) <= TOL.zf_residual:
        raise PrecoderSingularError("stacked channel vectors are rank deficient")
    normalized = w / np.sqrt(np.sum(np.abs(w) ** 2, axis=0))
    return ZfPrecoder(matrix=w, normalized=normalized)


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


def max_weight_matching(left, right, weights) -> list[tuple[int, int]]:
    """Vertex-disjoint edge set of maximum total weight, sorted by left vertex.

    Edge e joins ``left[e]`` to ``right[e]`` with weight ``weights[e]``:
    aligned 1-D arrays, non-negative integer ids, finite non-negative
    weights.  A pair given twice counts as its heaviest copy.  Edges are
    sorted by (left, right) first, so ties do not depend on the input order.
    Solved by :func:`_shortest_paths`.
    """
    left, right = np.asarray(left), np.asarray(right)
    weights = np.asarray(weights, dtype=float)
    if not (left.ndim == 1 and left.shape == right.shape == weights.shape):
        raise ValueError("left, right and weights must be aligned 1-D arrays")
    if not weights.size:
        return []
    if not (weights.min() >= 0.0 and weights.max() < np.inf):  # NaN fails both
        if np.isnan(weights).any():
            kind = "NaN"
        elif weights.min() < 0.0:
            kind = "negative"
        else:
            kind = "infinite"
        raise ValueError(f"edge with {kind} weight")
    if left.min() < 0 or right.min() < 0:  # a list index would wrap around
        raise ValueError("vertex ids must be non-negative")
    order = np.lexsort((right, left))  # rows in id order, each row's columns too
    rows, cols = left[order].tolist(), right[order].tolist()
    adjacency = [[] for _ in range(rows[-1] + 1)]
    for i, j, cost in zip(rows, cols, (-weights[order]).tolist()):
        adjacency[i].append((j, cost))
    col_of = _shortest_paths(adjacency, max(cols) + 1)
    return [(i, j) for i, j in enumerate(col_of) if j >= 0]


def _shortest_paths(adjacency, num_right: int) -> list[int]:
    """Minimum-cost assignment of every left vertex to one of its edges or to
    a private zero-cost "unmatched" column; returns each left vertex's right
    vertex, -1 for unmatched.

    ``adjacency[i]`` lists row i's (column, cost) pairs.  Rows enter one at a
    time, and each is placed along a shortest augmenting path in reduced costs
    c_ij - u_i - v_j, which stay non-negative on every edge of an assigned
    row (Crouse, "On implementing 2D rectangular assignment algorithms", IEEE
    TAES 2016).  A free column keeps v_j = 0.  A row's private column has
    only that row as a neighbour, so it is never assigned to another row; it
    needs no dual of its own, and a row placed on it is never reached again.
    """
    u = [0.0] * len(adjacency)
    v = [0.0] * num_right
    owner = [-1] * num_right          # row holding each column
    col_of = [-1] * len(adjacency)    # column of each row, -1: its private one
    for i, edges in enumerate(adjacency):
        # fast path: the cheapest first step ends at a free column, the row's
        # private one included; Dijkstra would stop there too
        best, best_cost = -1, 0.0     # the private column costs 0
        for j, cost in edges:
            if cost - v[j] < best_cost:
                best, best_cost = j, cost - v[j]
        if best < 0 or owner[best] < 0:
            u[i] = best_cost
            if best >= 0:
                owner[best], col_of[i] = i, best
            continue
        # Dijkstra over the columns, from row i at distance 0
        dist = {}                     # tentative distance of each reached column
        pred = {}                     # row each reached column was reached from
        done = {}                     # scanned (assigned) column -> its distance
        heap = []
        exit_cost, exit_row = math.inf, -1  # cheapest private column reached
        row, row_dist = i, 0.0
        while True:
            base = row_dist - u[row]
            if base < exit_cost:
                exit_cost, exit_row = base, row
            for j, cost in edges:
                if j in done:
                    continue
                d = base + cost - v[j]
                if d < dist.get(j, math.inf):
                    dist[j] = d
                    pred[j] = row
                    heapq.heappush(heap, (d, j))
            while heap and heap[0][1] in done:
                heapq.heappop(heap)
            if not heap or exit_cost <= heap[0][0]:
                sink, min_cost = -1, exit_cost
                break
            row_dist, j = heapq.heappop(heap)
            if owner[j] < 0:
                sink, min_cost = j, row_dist
                break
            done[j] = row_dist
            row = owner[j]
            edges = adjacency[row]
        # dual update: assigned edges and the path keep zero reduced cost
        u[i] += min_cost
        for j, d in done.items():
            u[owner[j]] += min_cost - d
            v[j] -= min_cost - d
        # augment: each column on the path passes to the row it was reached
        # from; a private sink first frees its row's column
        if sink < 0:
            row, sink = exit_row, col_of[exit_row]
            col_of[row] = -1
            if row == i:
                continue
        while True:
            row = pred[sink]
            owner[sink] = row
            col_of[row], sink = sink, col_of[row]
            if row == i:
                break
    return col_of


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
