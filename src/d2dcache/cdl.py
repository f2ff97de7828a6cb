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


def cdl_rate_general(
    n: int, powers_w, channel_matrix, w_bar, noise_w, bandwidth_hz
) -> float:
    """Rate of CR ``n`` keeping the explicit inter-CDL interference sum.

    With a zero-forcing precoder the cross terms vanish and this matches
    :func:`cdl_rates`; it exists so tests can verify exactly that.
    """
    powers_w = np.asarray(powers_w, dtype=float)
    gains = effective_gains(channel_matrix, w_bar)
    signal = powers_w[n] * gains[n]
    h_n = channel_matrix[:, n]
    cross = np.abs(h_n.conj() @ w_bar) ** 2
    interference = float(np.sum(np.delete(powers_w * cross, n)))
    return bandwidth_hz * math.log2(1.0 + signal / (interference + noise_w))


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


def allocate_cdl_power(
    channel_matrix: np.ndarray,
    w_bar: np.ndarray,
    *,
    pmax_w,
    noise_w,
    sinr_targets,
) -> CdlPowerResult | None:
    """Sum-rate maximizing stream powers, or None when the QoS is infeasible.

    A deterministic minimum-power pre-check decides feasibility: the QoS
    floors met with equality must fit every CT budget within
    ``TOL.power_feasibility_rel``.  The remaining concave program (maximize
    sum log2(1 + g_n p_n / sigma) s.t. W p <= Pmax, p >= p_min) is solved by a
    primal-dual interior-point method.  ``converged`` is its certificate: the
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

    wsq = np.abs(w_bar) ** 2                      # (M, N)
    gains = effective_gains(channel_matrix, w_bar)  # (N,)
    if np.any(gains <= 0):
        return None

    # QoS met with equality decouples per CR; test the per-CT budgets there.
    p_min = targets * noise_w / gains
    if np.any(wsq @ p_min > pmax_w * (1.0 + TOL.power_feasibility_rel)):
        return None

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
    dual_iterations: int = 0
    dual_converged: bool = True

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
    """Greedy semi-orthogonal CR selection with per-step power allocation.

    Each round orthogonalizes the remaining candidate channels against the
    already selected ones, admits the strongest residual, re-solves the power
    allocation, and rolls the admission back (stopping) if it turns
    infeasible.  Survivors of each round must keep their normalized channel
    correlation to the newly admitted direction below ``config.epsilon``.
    """
    tx = np.asarray(sorted(transmitters), dtype=int)
    pool = sorted(int(c) for c in candidates)
    limit = tx.size if config.allow_full_rank else tx.size - 1
    if tx.size == 0 or limit <= 0 or not pool:
        return CdlSchedule.empty(tx)

    channel_of = {c: topology.channels[tx, c] for c in pool}
    selected: list[int] = []
    basis: list[np.ndarray] = []
    committed: tuple[ZfPrecoder, CdlPowerResult] | None = None

    round_index = 1
    while round_index <= limit and pool:
        residuals = {t: numerics.gs_residual(channel_of[t], basis) for t in pool}
        pick = max(pool, key=lambda t: (np.linalg.norm(residuals[t]) ** 2, -t))
        trial = selected + [pick]
        h_sel = topology.channels[np.ix_(tx, np.asarray(trial))]
        try:
            precoder = numerics.zf_precoder(h_sel)
        except PrecoderSingularError:
            break
        result = allocate_cdl_power(
            h_sel,
            precoder.normalized,
            pmax_w=config.pmax_w,
            noise_w=config.noise_w,
            sinr_targets=config.sinr_target,
        )
        if result is None:
            break
        selected = trial
        committed = (precoder, result)
        direction = residuals[pick]
        norm_dir = np.linalg.norm(direction)
        if norm_dir == 0.0:
            break
        basis.append(direction)
        pool = [
            t
            for t in pool
            if t != pick
            and abs(np.vdot(channel_of[t], direction))
            / (np.linalg.norm(channel_of[t]) * norm_dir)
            < config.epsilon
        ]
        round_index += 1

    if not selected or committed is None:
        return CdlSchedule.empty(tx)
    precoder, result = committed
    h_sel = topology.channels[np.ix_(tx, np.asarray(selected))]
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
        dual_iterations=result.iterations,
        dual_converged=result.converged,
    )
