"""Non-cooperative D2D link pipeline: candidate sets, transmitter/receiver role
resolution, link selection by matching, admission via the minimum-power solve,
interference-driven link removal and exact max-min SINR power allocation."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .numerics import TOL, BipartiteGraph, SingularSystemError
from .content import ContentState
from .topology import Topology, dbm_to_watt

ROLE_TRANSMITTER = "transmitter"
ROLE_RECEIVER = "receiver"

WEIGHT_MODES = ("reciprocal", "gain")


@dataclass
class NdlConfig:
    bandwidth_hz: float = 10e6
    radius_m: float = 30.0
    rmin_bps_per_hz: float = 3.0
    pmax_dbm: float = 23.0
    noise_dbm: float = -90.0
    weight_mode: str = "reciprocal"   # matching edge weight: 1/gain or gain

    @property
    def pmax_w(self) -> float:
        return dbm_to_watt(self.pmax_dbm)

    @property
    def noise_w(self) -> float:
        return dbm_to_watt(self.noise_dbm)

    @property
    def sinr_target(self) -> float:
        return 2.0 ** self.rmin_bps_per_hz - 1.0

    def validate(self) -> None:
        if self.bandwidth_hz <= 0 or self.radius_m <= 0:
            raise ValueError("bandwidth_hz and radius_m must be positive")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
        # a zero floor would zero the admission matrix diagonal
        if self.rmin_bps_per_hz <= 0:
            raise ValueError("rmin_bps_per_hz must be > 0")


@dataclass
class NdlCandidates:
    """Potential receivers and their in-range suppliers.

    ``suppliers[j]`` lists the cachers of j's requested group within the D2D
    radius; construction only admits j with a non-empty list, though role
    resolution may later empty it, after which j contributes no edges.
    """

    suppliers: dict = field(default_factory=dict)

    @property
    def receivers(self) -> list[int]:
        return sorted(self.suppliers)

    @property
    def transmitters(self) -> list[int]:
        return sorted({k for txs in self.suppliers.values() for k in txs})

    @property
    def ambiguous(self) -> list[int]:
        tx = set(self.transmitters)
        return [u for u in self.receivers if u in tx]


def build_candidates(
    topology: Topology,
    content: ContentState,
    radius_m: float,
    excluded=frozenset(),
) -> NdlCandidates:
    """Candidate sets over the non-cooperative groups, skipping excluded users."""
    allowed = np.ones(topology.num_users, dtype=bool)
    allowed[list(excluded)] = False
    # unserved demand of a group left to the NDLs
    wants = (content.request == 1) & (content.cache == 0) & (content.mode == 0)
    receivers = np.flatnonzero(wants.any(axis=1) & allowed)
    # near[c, k]: k caches the group receivers[c] wants and is within range
    near = (
        (content.cache[:, content.requested_group[receivers]] == 1)
        & (topology.distances[:, receivers] < radius_m)
        & allowed[:, None]
    ).T
    counts = near.sum(axis=1)
    lists = np.split(np.nonzero(near)[1], np.cumsum(counts)[:-1])
    return NdlCandidates({
        j: near_j.tolist()
        for j, near_j, count in zip(receivers.tolist(), lists, counts)
        if count
    })


@dataclass
class PhaseOneOutcome:
    """Role decisions and the interference costs that produced them."""

    roles: dict
    alpha: dict   # minimum interference introduced when acting as a transmitter
    beta: dict    # minimum interference introduced by the user's best supplier


def _role_costs(gains, supplies, receivers, columns, scale):
    """Transmit and receive costs of the ambiguous users receivers[columns]."""
    ambiguous = receivers[columns]
    rows = np.arange(ambiguous.size)
    # Costs are masked sums over the receiver row: subtracting the skipped
    # terms from a row total loses the relative precision of small costs.
    others = receivers[None, :] != ambiguous[:, None]

    tx_row = gains[np.ix_(ambiguous, receivers)]
    served = np.argmax(np.where(supplies[ambiguous], tx_row, -np.inf), axis=1)
    skip = others.copy()
    skip[rows, served] = False
    alpha = scale / tx_row[rows, served] * np.where(skip, tx_row, 0.0).sum(axis=1)

    beta = np.full(ambiguous.size, np.inf)
    has_supplier = supplies[:, columns].any(axis=0)
    users = ambiguous[has_supplier]
    tau = np.argmax(
        np.where(supplies[:, columns[has_supplier]], gains[:, users], -np.inf), axis=0
    )
    rx_row = gains[np.ix_(tau, receivers)]
    skip = others[has_supplier] & (receivers[None, :] != tau[:, None])
    beta[has_supplier] = (
        scale / gains[tau, users] * np.where(skip, rx_row, 0.0).sum(axis=1)
    )
    return alpha, beta


def nt_nr_decision(
    candidates: NdlCandidates,
    topology: Topology,
    noise_w: float,
    sinr_target: float,
) -> tuple[NdlCandidates, PhaseOneOutcome]:
    """Resolve every ambiguous user (a candidate receiver that also supplies
    one) to one role.

    The transmit cost alpha_u is the interference u injects at minimum power
    into the other candidate receivers when serving its strongest requester v;
    the receive cost beta_u is what u's strongest supplier tau injects into the
    other candidate receivers when serving u, +inf when u has no supplier.  The
    sums skip the served user and the transmitter itself, and strongest-channel
    ties go to the lowest id.  Costs are taken against the initial candidate
    sets and applied in one batch: a strictly cheaper transmitter role drops
    the user from the receiver pool, otherwise (ties included) it is struck
    from every supplier list.
    """
    receivers = np.array(candidates.receivers, dtype=int)
    ambiguous = np.array(candidates.ambiguous, dtype=int)
    # supplies[k, c]: user k is a supplier of receivers[c]
    supplies = np.zeros((topology.num_users, receivers.size), dtype=bool)
    for c, j in enumerate(receivers.tolist()):
        supplies[candidates.suppliers[j], c] = True
    alpha = beta = np.zeros(0)
    if ambiguous.size:
        alpha, beta = _role_costs(
            topology.power_gains,
            supplies,
            receivers,
            np.searchsorted(receivers, ambiguous),
            noise_w * sinr_target,
        )

    ids = ambiguous.tolist()
    roles = {
        u: ROLE_TRANSMITTER if cheaper else ROLE_RECEIVER
        for u, cheaper in zip(ids, (alpha < beta).tolist())
    }
    # Non-ambiguous candidates always survive this phase, even when their
    # supplier list empties; they simply contribute no edges later on.
    suppliers = {
        j: [k for k in txs if roles.get(k) != ROLE_RECEIVER]
        for j, txs in candidates.suppliers.items()
        if roles.get(j) != ROLE_TRANSMITTER
    }
    outcome = PhaseOneOutcome(
        roles, dict(zip(ids, alpha.tolist())), dict(zip(ids, beta.tolist()))
    )
    return NdlCandidates(suppliers), outcome


def select_links(
    candidates: NdlCandidates,
    topology: Topology,
    weight_mode: str = "reciprocal",
) -> list[tuple[int, int]]:
    """One-to-one (transmitter, receiver) pairing, sorted by receiver id.

    Isolated supplier/requester pairs (both endpoints of degree one) are kept
    outright; the contested remainder is resolved by maximum-weight matching
    with the configured edge weight.
    """
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
    edges = [
        (k, j) for j in candidates.receivers for k in candidates.suppliers[j]
    ]
    if not edges:
        return []
    tx_degree = Counter(k for k, _ in edges)
    rx_degree = Counter(j for _, j in edges)
    direct = [(k, j) for k, j in edges if tx_degree[k] == 1 and rx_degree[j] == 1]
    contested = [(k, j) for k, j in edges if tx_degree[k] > 1 or rx_degree[j] > 1]

    matched: list[tuple[int, int]] = []
    if contested:
        txs, rxs = zip(*contested)
        left_ids = sorted(set(txs))
        right_ids = sorted(set(rxs))
        left_index = {k: i for i, k in enumerate(left_ids)}
        right_index = {j: i for i, j in enumerate(right_ids)}
        gains = topology.power_gains[txs, rxs]
        weights = 1.0 / gains if weight_mode == "reciprocal" else gains
        graph_edges = [
            (left_index[k], right_index[j], weight)
            for (k, j), weight in zip(contested, weights.tolist())
        ]
        graph = BipartiteGraph(len(left_ids), len(right_ids), graph_edges)
        pairs = numerics.max_weight_matching(graph)
        matched = [(left_ids[i], right_ids[j]) for i, j in pairs]
    return sorted(direct + matched, key=lambda link: link[1])


def link_gain_matrix(links, topology: Topology) -> np.ndarray:
    """Entry [i, j] is the power gain from link i's transmitter to link j's receiver."""
    txs = [tx for tx, _ in links]
    rxs = [rx for _, rx in links]
    return topology.power_gains[np.ix_(txs, rxs)]


def min_power_vector(gain_matrix, noise_w, sinr_targets) -> np.ndarray | None:
    """Powers putting every link exactly at its SINR target, or None if the
    admission system is singular."""
    gains = np.asarray(gain_matrix, dtype=float)
    n = gains.shape[0]
    noise = np.broadcast_to(np.asarray(noise_w, dtype=float), (n,))
    targets = np.broadcast_to(np.asarray(sinr_targets, dtype=float), (n,))
    if n == 0:
        return np.zeros(0)
    if np.any(targets <= 0):
        raise ValueError("SINR targets must be positive")
    system = -gains.T.copy()
    np.fill_diagonal(system, np.diag(gains) / targets)
    try:
        return numerics.solve_linear(system, noise)
    except SingularSystemError:
        return None


def sinrs(powers_w, gain_matrix, noise_w) -> np.ndarray:
    powers_w = np.asarray(powers_w, dtype=float)
    gains = np.asarray(gain_matrix, dtype=float)
    total = gains.T @ powers_w
    signal = powers_w * np.diag(gains)
    return signal / (total - signal + noise_w)


def ndl_rates(powers_w, gain_matrix, noise_w, bandwidth_hz) -> np.ndarray:
    """Per-NR rate in bits/s at the given transmit powers."""
    return bandwidth_hz * np.log2(1.0 + sinrs(powers_w, gain_matrix, noise_w))


@dataclass
class RemovalOutcome:
    kept: list             # surviving (tx, rx) links, receiver-sorted
    gain_matrix: np.ndarray
    sinr_targets: np.ndarray
    min_powers_w: np.ndarray
    iterations: int


def removal_order(gain_matrix, noise_w, sinr_targets, pmax_w) -> list[int]:
    """Link indices in the order the removal loop drops them.

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
    alive = np.arange(gains.shape[0])
    order = []
    while alive.size:
        # rescored on the alive set each step: downdating the previous scores
        # drifts enough to flip near-tied picks
        sub = cross[np.ix_(alive, alive)]
        injected = own_min[alive] * (sub @ tolerance[alive])
        absorbed = tolerance[alive] * (sub.T @ own_min[alive])
        worst = int(np.argmax(np.maximum(injected, absorbed)))
        order.append(int(alive[worst]))
        alive = np.delete(alive, worst)
    return order


def check_and_remove(
    links,
    gain_matrix,
    noise_w,
    sinr_targets,
    pmax_w,
) -> RemovalOutcome:
    """Drop links until the minimum-power vector fits the power box.

    Links leave in :func:`removal_order`; the kept set is the shortest
    prefix of removals after which the solve succeeds with 0 <= p' <= pmax.
    The full set is solved first and, only if it fails, the prefix is found
    by bisection.  Feasibility can only switch on along the order: a subset
    of a feasible set has an elementwise smaller minimum-power vector
    (Perron-Frobenius), so at most 1 + ceil(log2 n) solves are made.
    """
    n = len(links)
    gains = np.asarray(gain_matrix, dtype=float)
    noise = np.broadcast_to(np.asarray(noise_w, dtype=float), (n,))
    targets = np.broadcast_to(np.asarray(sinr_targets, dtype=float), (n,))
    pmax = np.broadcast_to(np.asarray(pmax_w, dtype=float), (n,))

    def admit(alive):
        sub = gains[np.ix_(alive, alive)]
        powers = min_power_vector(sub, noise[alive], targets[alive])
        feasible = powers is not None and bool(
            np.all(powers >= 0.0)
            and np.all(powers <= pmax[alive] * (1.0 + TOL.power_feasibility_rel))
        )
        kept = [links[i] for i in alive]
        return feasible, RemovalOutcome(kept, sub, targets[alive], powers, n - len(alive))

    feasible, outcome = admit(np.arange(n))
    if feasible:
        return outcome
    order = removal_order(gains, noise, targets, pmax)
    # prefix lengths: lo is known infeasible, hi feasible (all removed)
    lo, hi = 0, n
    _, outcome = admit(np.arange(0))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        feasible, trial = admit(np.sort(order[mid:]))
        if feasible:
            hi, outcome = mid, trial
        else:
            lo = mid
    return outcome


@dataclass
class DcaResult:
    powers_w: np.ndarray
    sinr: float                 # common SINR of every link, the max-min optimum
    iterations: int             # eigenvalue problems solved
    objective_trajectory: list  # min rate (bits/s/Hz) at the SINR targets, then at the optimum


def dc_power_allocation(gain_matrix, noise_w, pmax_w, sinr_targets) -> DcaResult:
    """Exact max-min SINR power allocation over the power box.

    With F[j, l] = G[l, j] / G[j, j] (l != j) and v = noise / diag(G), the
    optimum SINR is 1 / max_i rho(F + v e_i^T / pmax_i) (Zander 1992): at the
    optimum every link sits at the same SINR and the binding link at pmax.
    The powers come from the minimum-power solve at that SINR.  The result is
    certified (powers in the box, one of them at pmax, optimum no lower than
    the targets) or an ArithmeticError is raised.

    The function and result names date from the D.C. (convex-concave)
    procedure this replaced; the benchmark tracer reads them by name.
    """
    gains = np.asarray(gain_matrix, dtype=float)
    n = gains.shape[0]
    if n == 0:
        return DcaResult(np.zeros(0), math.inf, 0, [])
    noise = np.broadcast_to(np.asarray(noise_w, dtype=float), (n,))
    pmax = np.broadcast_to(np.asarray(pmax_w, dtype=float), (n,))
    targets = np.broadcast_to(np.asarray(sinr_targets, dtype=float), (n,))
    diag = np.diag(gains)
    coupling = gains.T / diag[:, None]
    np.fill_diagonal(coupling, 0.0)
    # stack[i] = F + v e_i^T / pmax_i: column i gains v / pmax_i
    stack = np.repeat(coupling[None, :, :], n, axis=0)
    idx = np.arange(n)
    stack[idx, :, idx] += (noise / diag)[None, :] / pmax[:, None]
    radius = np.max(np.abs(np.linalg.eigvals(stack)), axis=1)
    sinr = float(1.0 / np.max(radius))

    powers = min_power_vector(gains, noise, sinr)
    if (
        powers is None
        or np.any(powers < 0.0)
        or abs(np.max(powers / pmax) - 1.0) > TOL.power_feasibility_rel
        or np.any(sinr < targets * (1.0 - TOL.sinr_match_rel))
    ):
        raise ArithmeticError(f"max-min power at SINR {sinr!r} failed its certificate")
    trajectory = [float(np.log2(1.0 + np.min(targets))), float(np.log2(1.0 + sinr))]
    return DcaResult(powers, sinr, n, trajectory)


@dataclass
class NdlSchedule:
    """Outcome of the non-cooperative pipeline for one drop."""

    links: list               # (transmitter, receiver) pairs, receiver-sorted
    gain_matrix: np.ndarray
    sinr_targets: np.ndarray
    min_powers_w: np.ndarray  # admission point: every SINR exactly on target
    powers_w: np.ndarray      # final max-min powers
    rates_bps: np.ndarray
    removal_iterations: int = 0

    @classmethod
    def empty(cls, removal_iterations: int = 0) -> "NdlSchedule":
        return cls(
            links=[],
            gain_matrix=np.zeros((0, 0)),
            sinr_targets=np.zeros(0),
            min_powers_w=np.zeros(0),
            powers_w=np.zeros(0),
            rates_bps=np.zeros(0),
            removal_iterations=removal_iterations,
        )

    @property
    def transmitters(self) -> list[int]:
        return [tx for tx, _ in self.links]

    @property
    def receivers(self) -> list[int]:
        return [rx for _, rx in self.links]

    @property
    def pairing(self) -> dict:
        return {rx: tx for tx, rx in self.links}

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
    excluded=frozenset(),
) -> NdlSchedule:
    """Run candidate construction, role resolution, matching, admission and
    max-min power allocation for the non-cooperative groups."""
    candidates = build_candidates(topology, content, config.radius_m, excluded)
    if not candidates.suppliers:
        return NdlSchedule.empty()
    resolved, _ = nt_nr_decision(
        candidates, topology, config.noise_w, config.sinr_target
    )
    links = select_links(resolved, topology, config.weight_mode)
    if not links:
        return NdlSchedule.empty()

    gains = link_gain_matrix(links, topology)
    targets = np.full(len(links), config.sinr_target)
    removal = check_and_remove(
        links, gains, config.noise_w, targets, config.pmax_w
    )
    if not removal.kept:
        return NdlSchedule.empty(removal.iterations)

    power = dc_power_allocation(
        removal.gain_matrix, config.noise_w, config.pmax_w, removal.sinr_targets
    )
    rates = ndl_rates(
        power.powers_w, removal.gain_matrix, config.noise_w, config.bandwidth_hz
    )
    return NdlSchedule(
        links=removal.kept,
        gain_matrix=removal.gain_matrix,
        sinr_targets=removal.sinr_targets,
        min_powers_w=removal.min_powers_w,
        powers_w=power.powers_w,
        rates_bps=rates,
        removal_iterations=removal.iterations,
    )
