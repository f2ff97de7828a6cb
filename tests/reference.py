"""Reference implementations the tests compare the library against, and the
shared helpers they are built from."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from d2dcache import ndl, numerics


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


def edge_block(num_left, num_right, edges) -> tuple[np.ndarray, np.ndarray]:
    """Lay an edge list of (left, right, weight) triples into the dense weight
    block and edge mask that :func:`numerics.max_weight_matching` takes."""
    weights = np.zeros((num_left, num_right))
    is_edge = np.zeros((num_left, num_right), dtype=bool)
    for left, right, weight in edges:
        weights[left, right] = weight
        is_edge[left, right] = True
    return weights, is_edge


def assignment_matching(weights, is_edge) -> list[tuple[int, int]]:
    """Maximum-weight matching by scipy's rectangular assignment on the dense
    block, the real edges of the optimal assignment sorted by left vertex:
    with non-negative weights these are exactly the maximum-weight
    matchings.  The library matcher must return the same pairs."""
    rows, cols = linear_sum_assignment(weights, maximize=True)  # rows ascending
    keep = is_edge[rows, cols]
    return list(zip(rows[keep].tolist(), cols[keep].tolist()))
