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
ROLE_EXCLUDED = "excluded"

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
    excluded = set(excluded)
    suppliers: dict[int, list[int]] = {}
    for g in range(content.num_groups):
        if content.mode[g] == 1:
            continue
        for j in content.demand_sets[g]:
            j = int(j)
            if j in excluded:
                continue
            near = [
                int(k)
                for k in content.caching_sets[g]
                if int(k) not in excluded and topology.distances[int(k), j] < radius_m
            ]
            if near:
                suppliers[j] = sorted(near)
    return NdlCandidates(suppliers)


@dataclass
class PhaseOneOutcome:
    """Role decisions and the interference costs that produced them."""

    roles: dict
    alpha: dict   # minimum interference introduced when acting as a transmitter
    beta: dict    # minimum interference introduced by the user's best supplier


def transmit_cost(u: int, candidates: NdlCandidates, topology: Topology,
                  noise_w: float, sinr_target: float) -> float:
    """Interference user ``u`` injects at minimum power when serving its best
    in-range requester; +inf when it has nobody to serve."""
    served = [j for j in candidates.receivers if u in candidates.suppliers[j]]
    if not served:
        return math.inf
    v = max(served, key=lambda j: (topology.gain(u, j), -j))
    min_power = noise_w * sinr_target / topology.gain(u, v)
    return min_power * sum(
        topology.gain(u, w) for w in candidates.receivers if w not in (u, v)
    )


def receive_cost(u: int, candidates: NdlCandidates, topology: Topology,
                 noise_w: float, sinr_target: float) -> float:
    """Interference injected by u's strongest supplier serving u at minimum
    power; +inf when u has no supplier.

    The sum skips the served user (its term is signal, not interference) and
    the transmitter itself, mirroring :func:`transmit_cost`.
    """
    suppliers = candidates.suppliers.get(u, [])
    if not suppliers:
        return math.inf
    tau = max(suppliers, key=lambda k: (topology.gain(k, u), -k))
    min_power = noise_w * sinr_target / topology.gain(tau, u)
    return min_power * sum(
        topology.gain(tau, w) for w in candidates.receivers if w not in (u, tau)
    )


def nt_nr_decision(
    candidates: NdlCandidates,
    topology: Topology,
    noise_w: float,
    sinr_target: float,
) -> tuple[NdlCandidates, PhaseOneOutcome]:
    """Resolve every ambiguous user to one role.

    Costs are computed in user-index order against the initial candidate sets
    and applied in one batch: a cheaper transmitter role drops the user from
    the receiver pool, otherwise it is struck from every supplier list (ties
    keep it a receiver).  Users with neither role available are excluded.
    """
    roles: dict[int, str] = {}
    alpha: dict[int, float] = {}
    beta: dict[int, float] = {}
    for u in candidates.ambiguous:
        a = transmit_cost(u, candidates, topology, noise_w, sinr_target)
        b = receive_cost(u, candidates, topology, noise_w, sinr_target)
        alpha[u], beta[u] = a, b
        if math.isinf(a) and math.isinf(b):
            roles[u] = ROLE_EXCLUDED
        elif a < b:
            roles[u] = ROLE_TRANSMITTER
        else:
            roles[u] = ROLE_RECEIVER

    suppliers: dict[int, list[int]] = {}
    for j, txs in candidates.suppliers.items():
        if roles.get(j) in (ROLE_TRANSMITTER, ROLE_EXCLUDED):
            continue
        # Non-ambiguous candidates always survive this phase, even when their
        # supplier list empties; they simply contribute no edges later on.
        suppliers[j] = [
            k for k in txs if roles.get(k) not in (ROLE_RECEIVER, ROLE_EXCLUDED)
        ]
    return NdlCandidates(suppliers), PhaseOneOutcome(roles, alpha, beta)


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
        left_ids = sorted({k for k, _ in contested})
        right_ids = sorted({j for _, j in contested})
        left_index = {k: i for i, k in enumerate(left_ids)}
        right_index = {j: i for i, j in enumerate(right_ids)}
        graph_edges = []
        for k, j in contested:
            gain = topology.gain(k, j)
            weight = 1.0 / gain if weight_mode == "reciprocal" else gain
            graph_edges.append((left_index[k], right_index[j], weight))
        graph = BipartiteGraph(len(left_ids), len(right_ids), graph_edges)
        pairs = numerics.max_weight_matching(graph)
        matched = [(left_ids[i], right_ids[j]) for i, j in pairs]
    return sorted(direct + matched, key=lambda link: link[1])


def link_gain_matrix(links, topology: Topology) -> np.ndarray:
    """Entry [i, j] is the power gain from link i's transmitter to link j's receiver."""
    txs = [tx for tx, _ in links]
    rxs = [rx for _, rx in links]
    return np.abs(topology.channels[np.ix_(txs, rxs)]) ** 2


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


def check_and_remove(
    links,
    gain_matrix,
    noise_w,
    sinr_targets,
    pmax_w,
) -> RemovalOutcome:
    """Drop links until the minimum-power vector fits the power box.

    While the solve fails or violates 0 <= p' <= pmax, the link whose
    minimum-power operation either injects or absorbs the largest relative
    interference is removed together with its transmitter.
    """
    kept = list(links)
    n = len(kept)
    gains = np.asarray(gain_matrix, dtype=float).copy()
    noise = np.broadcast_to(np.asarray(noise_w, dtype=float), (n,)).copy()
    targets = np.broadcast_to(np.asarray(sinr_targets, dtype=float), (n,)).copy()
    pmax = np.broadcast_to(np.asarray(pmax_w, dtype=float), (n,)).copy()

    iterations = 0
    while True:
        powers = min_power_vector(gains, noise, targets)
        if powers is not None and np.all(powers >= 0.0) and np.all(
            powers <= pmax * (1.0 + TOL.power_feasibility_rel)
        ):
            return RemovalOutcome(kept, gains, targets, powers, iterations)

        own_min = noise * targets / np.diag(gains)  # minimum power of each link
        tolerance = targets / pmax                  # interference sensitivity
        cross = gains.copy()
        np.fill_diagonal(cross, 0.0)
        injected = own_min * (cross @ tolerance)
        absorbed = tolerance * (cross.T @ own_min)
        worst = int(np.argmax(np.maximum(injected, absorbed)))

        kept.pop(worst)
        keep_idx = [v for v in range(gains.shape[0]) if v != worst]
        gains = gains[np.ix_(keep_idx, keep_idx)]
        noise = noise[keep_idx]
        targets = targets[keep_idx]
        pmax = pmax[keep_idx]
        iterations += 1


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
