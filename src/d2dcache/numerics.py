"""Shared numerical kernels: ZF precoding, Gram-Schmidt residuals, linear solves,
maximum-weight bipartite matching and a projected dual-ascent helper."""

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
    linsolve_rel: float = 1e-8      # ||Ax - b|| relative to ||b||
    condition_limit: float = 1e12   # declare a system numerically singular above this
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
    requires N <= M and linearly independent columns.  Satisfies
    H^H W = I up to ``TOL.zf_residual``.
    """
    h = np.asarray(channel_matrix, dtype=complex)
    if h.ndim != 2:
        raise ValueError("channel matrix must be 2-D")
    num_tx, num_rx = h.shape
    if num_rx > num_tx:
        raise PrecoderSingularError(
            f"cannot zero-force {num_rx} receivers with {num_tx} transmitters"
        )
    gram = h.conj().T @ h
    if num_rx == 0:
        return ZfPrecoder(h.copy(), h.copy(), np.zeros(0))
    if np.linalg.cond(gram) > TOL.condition_limit:
        raise PrecoderSingularError("stacked channel vectors are rank deficient")
    w = h @ np.linalg.solve(gram, np.eye(num_rx, dtype=complex))
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
    """Solve the square real system Ax = b, refusing ill-conditioned inputs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.shape[0] == 0:
        return np.zeros(0)
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        raise ValueError("non-finite entries in linear system")
    if np.linalg.cond(a) > TOL.condition_limit:
        raise SingularSystemError("system is numerically singular")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc


@dataclass
class BipartiteGraph:
    """Simple weighted bipartite graph with 0-based vertex indices per side."""

    num_left: int
    num_right: int
    edges: list = field(default_factory=list)  # (left, right, weight >= 0)

    def validate(self) -> None:
        seen = set()
        for left, right, weight in self.edges:
            if not 0 <= left < self.num_left or not 0 <= right < self.num_right:
                raise ValueError(f"edge ({left}, {right}) out of range")
            if (left, right) in seen:
                raise ValueError(f"duplicate edge ({left}, {right})")
            seen.add((left, right))
            if math.isnan(weight):
                raise ValueError(f"edge ({left}, {right}) has NaN weight")
            if weight < 0:
                raise ValueError(f"edge ({left}, {right}) has negative weight")


def max_weight_matching(graph: BipartiteGraph) -> list[tuple[int, int]]:
    """Vertex-disjoint edge set of maximum total weight.

    Solved as a rectangular assignment over the dense weight matrix with
    non-edges pinned at zero; optimal assignments restricted to real edges
    are exactly the maximum-weight matchings when weights are non-negative.
    """
    graph.validate()
    if not graph.edges or graph.num_left == 0 or graph.num_right == 0:
        return []
    weights = np.zeros((graph.num_left, graph.num_right))
    is_edge = np.zeros((graph.num_left, graph.num_right), dtype=bool)
    for left, right, weight in graph.edges:
        weights[left, right] = weight
        is_edge[left, right] = True
    rows, cols = linear_sum_assignment(weights, maximize=True)
    pairs = [(int(i), int(j)) for i, j in zip(rows, cols) if is_edge[i, j]]
    return sorted(pairs)


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
