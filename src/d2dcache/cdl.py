"""Cooperative D2D link pipeline: semi-orthogonal CR scheduling and sum-rate
power allocation under per-transmitter peak power and per-receiver QoS."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import TOL, PrecoderSingularError, ZfPrecoder
from .topology import Topology, dbm_to_watt

LN2 = math.log(2.0)


@dataclass
class CdlConfig:
    bandwidth_hz: float = 10e6
    epsilon: float = 0.75               # semi-orthogonality admission threshold
    rmin_bps_per_hz: float = 3.0        # QoS floor as spectral efficiency
    pmax_dbm: float = 23.0              # per-transmitter peak power
    noise_dbm: float = -90.0
    allow_full_rank: bool = True        # admit as many CRs as CTs, not CTs-1

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
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.pmax_w <= 0 or self.noise_w <= 0:
            raise ValueError("powers must be positive")
        if self.rmin_bps_per_hz < 0:
            raise ValueError("rmin_bps_per_hz must be >= 0")


def effective_gains(channel_matrix: np.ndarray, w_bar: np.ndarray) -> np.ndarray:
    """Per-receiver effective power gain sum_m |w_bar[m,n]|^2 |h[m,n]|^2."""
    return np.sum(np.abs(w_bar) ** 2 * np.abs(channel_matrix) ** 2, axis=0)


def cdl_sinrs(powers_w, channel_matrix, w_bar, noise_w) -> np.ndarray:
    gains = effective_gains(channel_matrix, w_bar)
    return np.asarray(powers_w) * gains / noise_w


def cdl_rates(powers_w, channel_matrix, w_bar, noise_w, bandwidth_hz) -> np.ndarray:
    """Per-CR rate in bits/s under the interference-free precoded form."""
    return bandwidth_hz * np.log2(1.0 + cdl_sinrs(powers_w, channel_matrix, w_bar, noise_w))


@dataclass
class CdlPowerResult:
    powers_w: np.ndarray
    lambda_tx: np.ndarray   # per-CT peak-power multipliers
    mu_rx: np.ndarray       # per-CR QoS multipliers
    iterations: int
    converged: bool


# Duality gap, in bit/s/Hz of sum rate, at which a power allocation is
# certified optimal.
GAP_TOL = 1e-10
# Guards on interior-point work: Newton steps per solve and step halvings per
# line search.  A solve either guard stops reports converged=False.
MAX_NEWTON_STEPS = 100
BACKTRACK_HALVINGS = 50


def _duality_gap(a, wsq, budgets, x, lam) -> float:
    """Lagrange dual bound at ``lam`` minus the objective at ``x`` for

        maximize sum_n log2(1 + x_n / a_n)  s.t.  wsq @ x <= budgets, x >= 0.

    The dual function is closed-form waterfilling at the per-stream prices
    wsq^T lam, so for a feasible ``x`` the gap bounds its distance to the
    optimum from above (weak duality); a stream left unpriced bounds nothing.
    """
    price = wsq.T @ lam
    if not np.all(price > 0):
        return math.inf
    level = np.maximum(1.0 / (LN2 * price) - a, 0.0)
    bound = np.sum(np.log2(1.0 + level / a) - price * level) + lam @ budgets
    return float(bound - np.sum(np.log2(1.0 + x / a)))


def _interior_point(a, wsq, budgets):
    """Primal-dual interior-point solve of the :func:`_duality_gap` problem
    (Boyd & Vandenberghe, Algorithm 11.2) for positive ``budgets``.

    Starts strictly feasible and stops as soon as the dual bound certifies
    ``GAP_TOL`` or a guard trips.  Returns ``(x, lam, newton_steps)``.
    """
    num_rows, num_vars = wsq.shape
    if num_vars == 0:
        return np.zeros(0), np.zeros(num_rows), 0
    with np.errstate(divide="ignore"):
        x = np.full(num_vars, 0.5 * np.min(budgets / wsq.sum(axis=1)))
    lam = 1.0 / (budgets - wsq @ x)
    nu = 1.0 / x   # multipliers of x >= 0

    def residual(x, lam, nu, t):
        stationarity = wsq.T @ lam - nu - 1.0 / (LN2 * (a + x))
        centering = np.concatenate([lam * (budgets - wsq @ x), nu * x]) - 1.0 / t
        return np.linalg.norm(np.concatenate([stationarity, centering]))

    steps = 0
    while steps < MAX_NEWTON_STEPS and _duality_gap(a, wsq, budgets, x, lam) > GAP_TOL:
        slack = budgets - wsq @ x
        # centering target ten times tighter than the surrogate duality gap
        t = 10.0 * (num_rows + num_vars) / (lam @ slack + nu @ x)
        grad = 1.0 / (LN2 * (a + x))
        hess = np.diag(LN2 * grad**2 + nu / x) + wsq.T @ ((lam / slack)[:, None] * wsq)
        dx = np.linalg.solve(hess, grad - (wsq.T @ (1.0 / slack) - 1.0 / x) / t)
        dlam = lam * (wsq @ dx) / slack - lam + 1.0 / (t * slack)
        dnu = -nu * dx / x - nu + 1.0 / (t * x)

        # Longest step keeping the multipliers positive, then backtrack into
        # strict primal feasibility and a sufficient residual decrease.
        duals = np.concatenate([lam, nu])
        moves = np.concatenate([dlam, dnu])
        falling = moves < 0
        size = 0.99 * np.min(-duals[falling] / moves[falling], initial=1.0)
        start = residual(x, lam, nu, t)
        for _ in range(BACKTRACK_HALVINGS):
            trial = x + size * dx
            if (
                np.all(trial > 0)
                and np.all(wsq @ trial < budgets)
                and residual(trial, lam + size * dlam, nu + size * dnu, t)
                <= (1.0 - 0.01 * size) * start
            ):
                break
            size *= 0.5
        else:
            break   # rounding stalls the method
        x, lam, nu = trial, lam + size * dlam, nu + size * dnu
        steps += 1
    return x, lam, steps


def qos_floor_powers(
    channel_matrix: np.ndarray,
    w_bar: np.ndarray,
    *,
    pmax_w,
    noise_w,
    sinr_targets,
) -> np.ndarray | None:
    """Stream powers meeting every QoS floor with equality, or None when the
    QoS is infeasible.

    With the ZF precoder the floors decouple per CR, so the floor powers are
    the minimum-power point; the QoS is feasible exactly when every CR has a
    positive effective gain and these powers fit every CT budget within
    ``TOL.power_feasibility_rel``.
    """
    gains = effective_gains(channel_matrix, w_bar)
    if np.any(gains <= 0):
        return None
    p_min = sinr_targets * noise_w / gains
    if np.any(np.abs(w_bar) ** 2 @ p_min > pmax_w * (1.0 + TOL.power_feasibility_rel)):
        return None
    return p_min


def allocate_cdl_power(
    channel_matrix: np.ndarray,
    w_bar: np.ndarray,
    *,
    pmax_w,
    noise_w,
    sinr_targets,
) -> CdlPowerResult | None:
    """Sum-rate maximizing stream powers, or None when the QoS is infeasible.

    The deterministic pre-check :func:`qos_floor_powers` decides feasibility.
    The remaining concave program (maximize sum log2(1 + g_n p_n / sigma)
    s.t. W p <= Pmax, p >= p_min) is solved by a primal-dual interior-point
    method.  ``converged`` is its certificate: the
    Lagrange dual bound at the returned ``lambda_tx`` exceeds the returned
    objective by at most ``GAP_TOL`` bit/s/Hz.  ``mu_rx`` are the QoS
    multipliers in rate form, from stationarity
    ``(1 + mu_n) / (ln2 (sigma / g_n + p_n)) = (W^T lambda)_n``, and
    ``iterations`` counts Newton steps.
    """
    num_tx, num_rx = channel_matrix.shape
    pmax_w = np.broadcast_to(np.asarray(pmax_w, dtype=float), (num_tx,)).copy()
    noise_w = np.broadcast_to(np.asarray(noise_w, dtype=float), (num_rx,)).copy()
    targets = np.broadcast_to(np.asarray(sinr_targets, dtype=float), (num_rx,)).copy()
    if num_rx == 0:
        return CdlPowerResult(np.zeros(0), np.zeros(num_tx), np.zeros(0), 0, True)

    p_min = qos_floor_powers(
        channel_matrix, w_bar, pmax_w=pmax_w, noise_w=noise_w, sinr_targets=targets
    )
    if p_min is None:
        return None
    wsq = np.abs(w_bar) ** 2                      # (M, N)
    gains = effective_gains(channel_matrix, w_bar)  # (N,)

    # Solve for the excess x = p - p_min in units of the largest budget.  A CT
    # whose floors leave it no headroom (the pre-check admits a small
    # overshoot) pins every stream it carries at the floor.
    scale = float(np.max(pmax_w))
    a = (noise_w / gains + p_min) / scale
    headroom = (pmax_w - wsq @ p_min) / scale
    spent = headroom <= 0
    budgets = np.maximum(headroom, 0.0)
    free = ~np.any(wsq[spent] > 0, axis=0)
    x = np.zeros(num_rx)
    lam = np.zeros(num_tx)
    x[free], lam[~spent], steps = _interior_point(
        a[free], wsq[np.ix_(~spent, free)], budgets[~spent]
    )
    # Spent CTs price each pinned stream up to its marginal rate at x = 0.
    pinned = ~free
    shortfall = 1.0 / (LN2 * a[pinned]) - wsq[np.ix_(~spent, pinned)].T @ lam[~spent]
    carried = wsq[np.ix_(spent, pinned)]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam[spent] = np.max(
            np.where(carried > 0, shortfall / carried, 0.0), axis=1, initial=0.0
        )
    converged = _duality_gap(a, wsq, budgets, x, lam) <= GAP_TOL

    powers = p_min + scale * x
    lam_tx = lam / scale
    mu = np.maximum(LN2 * (noise_w / gains + powers) * (wsq.T @ lam_tx) - 1.0, 0.0)
    return CdlPowerResult(powers, lam_tx, mu, steps, converged)


@dataclass
class CdlSchedule:
    """Outcome of the cooperative pipeline for one drop."""

    transmitters: np.ndarray          # CT user ids
    receivers: np.ndarray             # CR user ids in selection order
    channel_matrix: np.ndarray        # (|CT|, |CR|) complex
    precoder: ZfPrecoder | None
    powers_w: np.ndarray
    rates_bps: np.ndarray
    newton_steps: int = 0             # of the one power solve on the final set
    power_certified: bool = True      # that solve met its duality-gap certificate

    @classmethod
    def empty(cls, transmitters=()) -> "CdlSchedule":
        tx = np.asarray(sorted(transmitters), dtype=int)
        return cls(
            transmitters=tx,
            receivers=np.zeros(0, dtype=int),
            channel_matrix=np.zeros((len(tx), 0), dtype=complex),
            precoder=None,
            powers_w=np.zeros(0),
            rates_bps=np.zeros(0),
        )

    @property
    def num_served(self) -> int:
        return int(self.receivers.size)

    @property
    def sum_rate_bps(self) -> float:
        return float(np.sum(self.rates_bps))


def schedule_cdl(
    transmitters,
    candidates,
    topology: Topology,
    config: CdlConfig,
) -> CdlSchedule:
    """Greedy semi-orthogonal CR selection, then one sum-rate power solve.

    Each round projects every remaining candidate channel onto the orthogonal
    complement of the residual directions admitted so far and picks the
    strongest residual (the lowest user id on ties).  The pick is admitted
    only if the ZF precoder of the enlarged set exists and the minimum-power
    pre-check :func:`qos_floor_powers` passes; otherwise selection stops.
    Survivors of each round must keep their normalized channel correlation to
    the newly admitted direction below ``config.epsilon``.  The powers come
    from one certified :func:`allocate_cdl_power` solve on the final set.
    """
    tx = np.asarray(sorted(transmitters), dtype=int)
    pool = np.asarray(sorted(int(c) for c in candidates), dtype=int)
    limit = tx.size if config.allow_full_rank else tx.size - 1
    if tx.size == 0 or limit <= 0 or not pool.size:
        return CdlSchedule.empty(tx)

    selected: list[int] = []
    precoder: ZfPrecoder | None = None
    basis = np.zeros((tx.size, 0), dtype=complex)   # admitted residual directions
    basis_norms_sq = np.zeros(0)
    while len(selected) < limit and pool.size:
        h_pool = topology.channels[np.ix_(tx, pool)]
        coefficients = (basis.conj().T @ h_pool) / basis_norms_sq[:, None]
        residuals = h_pool - basis @ coefficients
        energies = np.sum(np.abs(residuals) ** 2, axis=0)
        best = int(np.argmax(energies))   # pool is sorted: first max is lowest id
        trial = selected + [int(pool[best])]
        h_trial = topology.channels[np.ix_(tx, np.asarray(trial))]
        try:
            trial_precoder = numerics.zf_precoder(h_trial)
        except PrecoderSingularError:
            break
        if qos_floor_powers(
            h_trial,
            trial_precoder.normalized,
            pmax_w=config.pmax_w,
            noise_w=config.noise_w,
            sinr_targets=config.sinr_target,
        ) is None:
            break
        selected, h_sel, precoder = trial, h_trial, trial_precoder
        direction = residuals[:, best]
        norm_dir = np.linalg.norm(direction)
        if norm_dir == 0.0:
            break
        basis = np.column_stack([basis, direction])
        basis_norms_sq = np.append(basis_norms_sq, norm_dir**2)
        correlation = np.abs(direction.conj() @ h_pool) / (
            np.linalg.norm(h_pool, axis=0) * norm_dir
        )
        keep = correlation < config.epsilon
        keep[best] = False
        pool = pool[keep]

    if precoder is None:
        return CdlSchedule.empty(tx)
    result = allocate_cdl_power(
        h_sel,
        precoder.normalized,
        pmax_w=config.pmax_w,
        noise_w=config.noise_w,
        sinr_targets=config.sinr_target,
    )
    # the last admission passed this very pre-check, so the solve is feasible
    assert result is not None
    rates = cdl_rates(
        result.powers_w, h_sel, precoder.normalized, config.noise_w, config.bandwidth_hz
    )
    return CdlSchedule(
        transmitters=tx,
        receivers=np.asarray(selected, dtype=int),
        channel_matrix=h_sel,
        precoder=precoder,
        powers_w=result.powers_w,
        rates_bps=rates,
        newton_steps=result.iterations,
        power_certified=result.converged,
    )
