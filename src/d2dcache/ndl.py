"""Non-cooperative D2D link pipeline: the candidate supply mask,
transmitter/receiver role resolution, link selection by matching, admission
via the minimum-power solve, interference-driven link removal and exact
max-min SINR power allocation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import TOL, SingularSystemError
from .content import ContentState
from .topology import LinkConfig, Topology, require_finite_positive

WEIGHT_MODES = ("reciprocal", "gain")


@dataclass(frozen=True, kw_only=True)
class NdlConfig(LinkConfig):
    radius_m: float = 30.0
    weight_mode: str = "reciprocal"   # matching edge weight: 1/gain or gain

    def __post_init__(self) -> None:
        super().__post_init__()
        require_finite_positive("radius_m", self.radius_m)
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")


def _block(matrix: np.ndarray, rows, cols) -> np.ndarray:
    """``matrix[np.ix_(rows, cols)]``, gathered one axis at a time: the same
    array, several times faster on the small blocks the pipeline takes."""
    return matrix.take(rows, axis=0).take(cols, axis=1)


def cachers_in_range(
    content: ContentState, distances: np.ndarray, radius_m: float
) -> np.ndarray:
    """K x K mask: user k caches the group user j requests and lies within
    ``radius_m`` of j.  Columns of idle users (no popular request) are empty;
    the diagonal marks the self-satisfied users."""
    in_range = content.cached_group[:, None] == content.requested_group
    in_range &= distances < radius_m
    return in_range


def build_candidates(
    content: ContentState, in_range: np.ndarray, excluded=frozenset()
) -> np.ndarray:
    """Supply mask over the non-cooperative groups, skipping excluded users.

    ``supplies[k, j]``: user k caches the group j wants and is within the D2D
    radius of j, and neither is excluded.  The candidate receivers are the
    non-empty columns, the candidate transmitters the non-empty rows.
    ``in_range`` is the drop's :func:`cachers_in_range` mask.
    """
    allowed = np.ones(content.num_users, dtype=bool)
    allowed[list(excluded)] = False
    # unserved demand of a group left to the NDLs
    receiving = content.unserved & allowed
    if content.coop_group is not None:
        receiving &= content.requested_group != content.coop_group
    supplies = in_range & allowed[:, None]
    supplies &= receiving
    return supplies


def role_costs(
    supplies: np.ndarray,
    topology: Topology,
    noise_w: float,
    sinr_target: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ambiguous users (candidate receivers that also supply one) and
    their transmit and receive costs.

    The transmit cost alpha_u is the interference u injects at minimum power
    into the other candidate receivers when serving its strongest requester v;
    the receive cost beta_u is what u's strongest supplier tau injects into the
    other candidate receivers when serving u.  The sums skip the served user
    and the transmitter itself, and strongest-channel ties go to the lowest id.
    """
    receiving = supplies.any(axis=0)
    receivers = np.flatnonzero(receiving)
    ambiguous = np.flatnonzero(receiving & supplies.any(axis=1))
    if not ambiguous.size:
        return ambiguous, np.zeros(0), np.zeros(0)
    gains = topology.power_gains
    scale = noise_w * sinr_target
    rows = np.arange(ambiguous.size)
    # Costs are masked sums over the receiver row: subtracting the skipped
    # terms from a row total loses the relative precision of small costs.
    others = receivers[None, :] != ambiguous[:, None]

    tx_row = _block(gains, ambiguous, receivers)
    served = np.argmax(
        np.where(_block(supplies, ambiguous, receivers), tx_row, -np.inf), axis=1
    )
    skip = others.copy()
    skip[rows, served] = False
    alpha = scale / tx_row[rows, served] * np.where(skip, tx_row, 0.0).sum(axis=1)

    # every candidate receiver has a supplier, so tau always exists
    tau = np.argmax(
        np.where(supplies[:, ambiguous], gains[:, ambiguous], -np.inf), axis=0
    )
    rx_row = _block(gains, tau, receivers)
    skip = others & (receivers[None, :] != tau[:, None])
    beta = scale / gains[tau, ambiguous] * np.where(skip, rx_row, 0.0).sum(axis=1)
    return ambiguous, alpha, beta


def nt_nr_decision(
    supplies: np.ndarray,
    topology: Topology,
    noise_w: float,
    sinr_target: float,
) -> np.ndarray:
    """Resolve every ambiguous user to one role; returns the resolved mask.

    Costs come from :func:`role_costs` against the initial mask and are
    applied in one batch: a strictly cheaper transmitter role drops the user
    from the receiver pool (its column is cleared), otherwise (ties included)
    it stops supplying (its row is cleared).
    """
    ambiguous, alpha, beta = role_costs(supplies, topology, noise_w, sinr_target)
    transmitter = alpha < beta
    resolved = supplies.copy()
    resolved[:, ambiguous[transmitter]] = False
    resolved[ambiguous[~transmitter], :] = False
    return resolved


def select_links(
    supplies: np.ndarray,
    topology: Topology,
    weight_mode: str = "reciprocal",
) -> list[tuple[int, int]]:
    """One-to-one (transmitter, receiver) pairing, sorted by receiver id.

    One maximum-weight matching, with the configured edge weight, on the
    edges of the mask.  An isolated supplier/requester pair needs no case of
    its own: an edge of positive weight that shares no endpoint is in every
    maximum-weight matching.
    """
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
    txs, rxs = np.nonzero(supplies)
    gains = topology.power_gains[txs, rxs]
    weights = 1.0 / gains if weight_mode == "reciprocal" else gains
    pairs = numerics.max_weight_matching(txs, rxs, weights)
    return sorted(pairs, key=lambda link: link[1])


def link_gain_matrix(links, topology: Topology) -> np.ndarray:
    """Entry [i, j] is the power gain from link i's transmitter to link j's receiver."""
    txs = [tx for tx, _ in links]
    rxs = [rx for _, rx in links]
    return _block(topology.power_gains, txs, rxs)


def admission_system(gains: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Matrix A with A p = noise exactly when every link sits at its SINR
    target: A = -G^T with diagonal G_ii / gamma_i.  Non-negative gains make
    A and its principal submatrices Z-matrices, so a non-negative solution
    for positive noise certifies that the targets are jointly reachable (a
    nonsingular M-matrix); the power box is separate."""
    if np.any(targets <= 0):
        raise ValueError("SINR targets must be positive")
    if np.any(gains < 0):
        raise ValueError("power gains must be non-negative")
    system = -gains.T
    np.fill_diagonal(system, np.diag(gains) / targets)
    return system


def sinrs(powers_w, gain_matrix, noise_w) -> np.ndarray:
    powers_w = np.asarray(powers_w, dtype=float)
    gains = np.asarray(gain_matrix, dtype=float)
    total = gains.T @ powers_w
    signal = powers_w * np.diag(gains)
    return signal / (total - signal + noise_w)


@dataclass
class RemovalOutcome:
    kept: list             # surviving (tx, rx) links, receiver-sorted
    gain_matrix: np.ndarray
    min_powers_w: np.ndarray
    iterations: int


def removal_order(
    gain_matrix, noise_w: float, sinr_targets, pmax_w: float
) -> list[int]:
    """Link indices in the order the removal loop drops them.

    ``noise_w`` and ``pmax_w`` are the scalar radio settings every link
    shares; ``sinr_targets`` holds one target per link.

    Each step scores the links still alive by the largest relative
    interference their minimum-power operation injects or absorbs, and drops
    the worst.  The scores do not depend on the admission solve, so the order
    is fixed before any solve runs.
    """
    gains = np.asarray(gain_matrix, dtype=float)
    own_min = noise_w * sinr_targets / np.diag(gains)  # minimum power of each link
    tolerance = sinr_targets / pmax_w                   # interference sensitivity
    cross = gains.copy()
    np.fill_diagonal(cross, 0.0)
    # rescored from scratch each step on the full-size matrices, dead links
    # zeroed out of the sums: downdating the previous scores drifts enough to
    # flip near-tied picks
    tolerance_alive, own_min_alive = tolerance.copy(), own_min.copy()
    dead = np.zeros(gains.shape[0], dtype=bool)
    order = []
    for _ in range(gains.shape[0]):
        injected = own_min * (cross @ tolerance_alive)
        absorbed = tolerance * (cross.T @ own_min_alive)
        scores = np.maximum(injected, absorbed)
        scores[dead] = -np.inf
        worst = int(scores.argmax())
        order.append(worst)
        tolerance_alive[worst] = own_min_alive[worst] = 0.0
        dead[worst] = True
    return order


def check_and_remove(
    links,
    gain_matrix,
    noise_w: float,
    sinr_targets,
    pmax_w: float,
) -> RemovalOutcome:
    """Drop links until the minimum-power vector fits the power box.

    ``noise_w`` and ``pmax_w`` are the scalar radio settings every link
    shares; ``sinr_targets`` is a scalar or one target per link.

    Links leave in :func:`removal_order`; the kept set is the shortest
    prefix of removals after which the solve succeeds with 0 <= p' <= pmax.
    The full set is solved first and, only if it fails, the prefix is found
    by bisection.  Feasibility can only switch on along the order: a subset
    of a feasible set has an elementwise smaller minimum-power vector
    (Perron-Frobenius), so at most 1 + ceil(log2 n) solves are made.  Every
    solve is on a principal submatrix of one :func:`admission_system`, a
    Z-matrix, and only a solution with p' <= pmax goes through
    :func:`numerics.certify_solution`, which also refuses any p' with a
    negative entry: a refused certificate and a box failure both make the
    probe infeasible.
    """
    n = len(links)
    gains = np.asarray(gain_matrix, dtype=float)
    noise, pmax = float(noise_w), float(pmax_w)
    targets = np.broadcast_to(np.asarray(sinr_targets, dtype=float), (n,))
    system = admission_system(gains, targets)
    if not np.isfinite(system).all() or not math.isfinite(noise):
        raise ValueError("non-finite entries in linear system")
    limit = pmax * (1.0 + TOL.power_feasibility_rel)

    def min_powers(alive):
        """Certified minimum powers of the alive links if they fit the box,
        else None."""
        if not alive.size:
            return np.zeros(0)
        sub, rhs = _block(system, alive, alive), np.full(alive.size, noise)
        try:
            powers = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            return None
        if not (powers <= limit).all():
            return None
        try:
            numerics.certify_solution(sub, rhs, powers)
        except SingularSystemError:
            return None
        return powers

    def outcome(alive, powers):
        return RemovalOutcome(
            [links[i] for i in alive],
            _block(gains, alive, alive),
            powers,
            n - alive.size,
        )

    alive = np.arange(n)
    powers = min_powers(alive)
    if powers is not None:
        return outcome(alive, powers)
    order = removal_order(gains, noise, targets, pmax)
    # prefix lengths: lo is known infeasible, hi feasible (all removed)
    lo, hi = 0, n
    alive, powers = np.arange(0), np.zeros(0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        trial = np.sort(order[mid:])
        trial_powers = min_powers(trial)
        if trial_powers is not None:
            hi, alive, powers = mid, trial, trial_powers
        else:
            lo = mid
    return outcome(alive, powers)


@dataclass
class DcaResult:
    powers_w: np.ndarray
    sinr: float                 # common SINR of every link, the max-min optimum
    iterations: int             # eigenvalue problems solved
    objective_trajectory: list  # min rate (bits/s/Hz) at the SINR targets, then at the optimum
    link_sinrs: np.ndarray      # per-link SINR at the returned powers, as certified


def dc_power_allocation(gain_matrix, noise_w, pmax_w, sinr_targets) -> DcaResult:
    """Exact max-min SINR power allocation over the power box.

    ``noise_w`` and ``pmax_w`` are the scalar radio settings every link
    shares; ``sinr_targets`` is a scalar or one target per link.  With
    F[j, l] = G[l, j] / G[j, j] (l != j), v = noise / diag(G) and
    B_i = F + v e_i^T / pmax, the optimum SINR is 1 / rho(B_b) at the
    binding link b = argmax_i rho(B_i) (Zander 1992), and the powers are the
    Perron vector of B_b scaled so the largest p_i is pmax.  One eigen
    decomposition gives both; no linear system is solved.  The scale puts
    the largest p_i, not p_b, at pmax: at extreme SNR the rho(B_i) tie to
    rounding.

    The result is certified or an ArithmeticError is raised: every power
    positive, the largest p_i / pmax within ``TOL.power_feasibility_rel``
    of 1, every SINR within ``TOL.sinr_match_rel`` of the optimum, which is
    no lower than the targets.  The SINR spread bounds the gap to the true
    optimum however p was computed: given p_b = pmax and a feasible q with
    min SINR(q) > max SINR(p), c = min_i q_i / p_i, reached at k, exceeds 1
    (else SINR_k(q) <= SINR_k(p)), so q_b > pmax, a contradiction.

    The function and result names date from the D.C. (convex-concave)
    procedure this replaced; the benchmark tracer reads them by name.
    """
    gains = np.asarray(gain_matrix, dtype=float)
    noise, pmax = float(noise_w), float(pmax_w)
    n = gains.shape[0]
    if n == 0:
        return DcaResult(np.zeros(0), math.inf, 0, [], np.zeros(0))
    targets = np.broadcast_to(np.asarray(sinr_targets, dtype=float), (n,))
    diag = np.diag(gains)
    coupling = gains.T / diag[:, None]
    np.fill_diagonal(coupling, 0.0)
    # stack[i] = F + v e_i^T / pmax: column i gains v / pmax
    stack = np.repeat(coupling[None, :, :], n, axis=0)
    idx = np.arange(n)
    stack[idx, :, idx] += noise / diag / pmax
    values, vectors = np.linalg.eig(stack)
    radius = np.abs(values).max(axis=1)
    b = int(radius.argmax())
    sinr = float(1.0 / radius[b])
    perron = np.abs(vectors[b, :, np.abs(values[b]).argmax()])
    powers = perron * (pmax / perron.max())

    link_sinrs = sinrs(powers, gains, noise)
    spread = np.abs(link_sinrs - sinr)
    if not (
        np.all(powers > 0.0)
        and abs(np.max(powers / pmax) - 1.0) <= TOL.power_feasibility_rel
        and np.all(spread <= TOL.sinr_match_rel * sinr)
        and np.all(sinr >= targets * (1.0 - TOL.sinr_match_rel))
    ):
        raise ArithmeticError(f"max-min power at SINR {sinr!r} failed its certificate")
    trajectory = [float(np.log2(1.0 + np.min(targets))), float(np.log2(1.0 + sinr))]
    return DcaResult(powers, sinr, n, trajectory, link_sinrs)


@dataclass
class NdlSchedule:
    """Outcome of the non-cooperative pipeline for one drop."""

    links: list               # (transmitter, receiver) pairs, receiver-sorted
    min_powers_w: np.ndarray  # admission point: every SINR exactly on target
    powers_w: np.ndarray      # final max-min powers
    rates_bps: np.ndarray
    removal_iterations: int = 0

    @property
    def transmitters(self) -> list[int]:
        return [tx for tx, _ in self.links]

    @property
    def receivers(self) -> list[int]:
        return [rx for _, rx in self.links]

    @property
    def num_served(self) -> int:
        return len(self.links)

    @property
    def sum_rate_bps(self) -> float:
        return float(np.sum(self.rates_bps))


def schedule_ndl(
    topology: Topology,
    content: ContentState,
    config: NdlConfig,
    in_range: np.ndarray,
    excluded=frozenset(),
) -> NdlSchedule:
    """Run candidate construction, role resolution, matching, admission and
    max-min power allocation for the non-cooperative groups; the rates come
    from the SINRs the max-min certificate checked.  ``in_range`` is the
    drop's :func:`cachers_in_range` mask."""
    supplies = build_candidates(content, in_range, excluded)
    resolved = nt_nr_decision(supplies, topology, config.noise_w, config.sinr_target)
    links = select_links(resolved, topology, config.weight_mode)
    gains = link_gain_matrix(links, topology)
    removal = check_and_remove(
        links, gains, config.noise_w, config.sinr_target, config.pmax_w
    )
    power = dc_power_allocation(
        removal.gain_matrix, config.noise_w, config.pmax_w, config.sinr_target
    )
    rates = config.bandwidth_hz * np.log2(1.0 + power.link_sinrs)
    return NdlSchedule(
        links=removal.kept,
        min_powers_w=removal.min_powers_w,
        powers_w=power.powers_w,
        rates_bps=rates,
        removal_iterations=removal.iterations,
    )
