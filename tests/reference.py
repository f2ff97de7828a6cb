"""Reference implementations the tests compare the library against, and the
shared helpers they are built from."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from d2dcache import cdl, ndl, numerics


def min_power_vector(gain_matrix, noise_w, sinr_targets) -> np.ndarray | None:
    """Non-negative powers putting every link exactly at its SINR target, or
    None if :func:`numerics.solve_linear` refuses the admission system
    (singular, or its solution is negative or not certified)."""
    gains = np.asarray(gain_matrix, dtype=float)
    n = gains.shape[0]
    noise = np.broadcast_to(np.asarray(noise_w, dtype=float), (n,))
    targets = np.broadcast_to(np.asarray(sinr_targets, dtype=float), (n,))
    if n == 0:
        return np.zeros(0)
    system = ndl.admission_system(gains, targets)
    try:
        return numerics.solve_linear(system, noise)
    except numerics.SingularSystemError:
        return None


def assignment_matching(left, right, weights) -> list[tuple[int, int]]:
    """Maximum-weight matching by scipy's rectangular assignment on the dense
    block of the edge list's vertices, the real edges of the optimal
    assignment sorted by left vertex: with non-negative weights these are
    exactly the maximum-weight matchings.  The library matcher must return
    the same pairs."""
    row_ids, rows = np.unique(np.asarray(left, dtype=int), return_inverse=True)
    col_ids, cols = np.unique(np.asarray(right, dtype=int), return_inverse=True)
    block = np.zeros((row_ids.size, col_ids.size))
    block[rows, cols] = weights
    is_edge = np.zeros(block.shape, dtype=bool)
    is_edge[rows, cols] = True
    rows, cols = linear_sum_assignment(block, maximize=True)  # rows ascending
    keep = is_edge[rows, cols]
    return list(zip(row_ids[rows[keep]].tolist(), col_ids[cols[keep]].tolist()))


def duality_gap(a, wsq, budgets, x, lam) -> float:
    """Dual bound at ``lam`` minus the objective at ``x`` for the
    ``cdl._dual`` problem.  For a feasible ``x`` the gap bounds its distance
    to the optimum from above (weak duality); a stream left unpriced bounds
    nothing."""
    return cdl._dual(a, wsq, budgets, lam)[0] - cdl._sum_rate(a, x)


def cdl_multipliers(gains, wsq, p_min, *, pmax_w, noise_w):
    """The Lagrange multipliers of a :func:`cdl.allocate_cdl_power` solve:
    ``cdl._dual_newton`` run again on the same scaled problem.  Returns
    ``(powers, lam, mu)``: the powers, the per-CT peak-power multipliers and
    the per-CR QoS multipliers in rate form, from stationarity
    ``(1 + mu_n) / (ln2 (sigma / g_n + p_n)) = (wsq^T lam)_n``."""
    scale = float(np.max(pmax_w))
    a = (noise_w / gains + p_min) / scale
    budgets = (pmax_w - wsq @ p_min) / scale
    x, lam, _, _ = cdl._dual_newton(a, wsq, budgets)
    powers = p_min + scale * x
    lam = lam / scale
    mu = np.maximum(cdl.LN2 * (noise_w / gains + powers) * (wsq.T @ lam) - 1.0, 0.0)
    return powers, lam, mu
