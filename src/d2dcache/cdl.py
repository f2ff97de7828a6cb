"""Cooperative D2D link pipeline: semi-orthogonal CR scheduling and sum-rate
power allocation under per-transmitter peak power and per-receiver QoS."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import PrecoderSingularError, ZfPrecoder
from .topology import FieldError, LinkConfig, Topology

LN2 = math.log(2.0)


@dataclass(frozen=True, kw_only=True)
class CdlConfig(LinkConfig):
    epsilon: float = 0.75               # semi-orthogonality admission threshold
    allow_full_rank: bool = True        # admit as many CRs as CTs, not CTs-1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.epsilon < 1.0:
            raise FieldError("epsilon", self.epsilon, "must lie in (0, 1)")


def effective_gains(channel_matrix: np.ndarray, wsq: np.ndarray) -> np.ndarray:
    """Per-receiver effective power gain sum_m wsq[m,n] |h[m,n]|^2, with
    ``wsq = |w_bar|^2`` of the normalized ZF precoder."""
    return np.sum(wsq * np.abs(channel_matrix) ** 2, axis=0)


@dataclass
class CdlPowerResult:
    powers_w: np.ndarray
    iterations: int     # dual Newton steps
    converged: bool     # duality gap at most GAP_TOL


# Duality gap, in bit/s/Hz of sum rate, at which a power allocation is
# certified optimal.
GAP_TOL = 1e-10
# Guards on the dual Newton method: steps per solve and step halvings per
# line search.  A solve either guard stops reports converged=False.
MAX_NEWTON_STEPS = 100
BACKTRACK_HALVINGS = 50
# A primal point is recovered by shrinking the water levels uniformly into
# the budgets; it is accepted only when the shrink factor is at least
# 1 - SHRINK_TOL, so that stationarity holds to that relative accuracy.
SHRINK_TOL = 1e-10
# Share of the predicted decrease of the dual a line-search step must achieve.
ARMIJO = 1e-4


def _sum_rate(a, x) -> float:
    """Objective of the :func:`_dual` problem, in bit/s/Hz."""
    return float(np.log1p(x / a).sum()) / LN2


def _dual(a, wsq, budgets, lam):
    """Lagrange dual function of

        maximize sum_n log2(1 + x_n / a_n)  s.t.  wsq @ x <= budgets, x >= 0

    at ``lam``: per-stream waterfilling at the prices ``wsq^T lam``.  Returns
    ``(value, level, price)``; the value is inf when a stream is unpriced.
    """
    price = wsq.T @ lam
    if not (price > 0).all():
        return math.inf, None, price
    level = np.maximum(1.0 / (LN2 * price) - a, 0.0)
    value = (np.log1p(level / a) / LN2 - price * level).sum() + lam @ budgets
    return float(value), level, price


def _start_prices(a, wsq):
    """Dual starting point for unit budgets.  With as many CTs as streams,
    the vertex where every budget binds, x = wsq^-1 1, priced by stationarity
    wsq^T lam = 1 / (ln2 (a + x)); it is optimal whenever those prices come
    out positive.  Otherwise one uniform price, low enough that every stream
    gets at least the water its tightest budget would allow it alone.
    """
    num_rows, num_vars = wsq.shape
    if num_rows == num_vars:
        try:
            inverse = np.linalg.inv(wsq)
        except np.linalg.LinAlgError:
            pass
        else:
            lam = inverse.T @ (1.0 / (LN2 * (a + inverse.sum(axis=1))))
            if np.all(lam > 0):
                return lam
    alone = 1.0 / np.max(wsq, axis=0)
    return np.full(num_rows, np.min(1.0 / (LN2 * wsq.sum(axis=0) * (a + alone))))


def _dual_newton(a, wsq, budgets):
    """Solve the :func:`_dual` problem for positive ``budgets`` by projected
    Newton on its dual (Bertsekas, SIAM J. Control Optim. 1982).

    Each budget row is first divided by its budget, so every price is the
    value of a whole budget and every gradient entry a relative load.  The
    dual Hessian wsq diag(1 / (ln2 price^2)) wsq^T over the streams with
    water has rank at most the stream count, so its diagonal is damped by
    the squared projected-gradient norm r (capped at 1), and so is the free
    block when it is singular.  Each step scales the gradient by that
    diagonal, takes the epsilon-active set (prices the scaled gradient
    pushes down and that lie within the norm of its projected step of 0),
    moves them along the scaled gradient and the other prices along
    Newton's direction, and makes an Armijo search along the projection onto
    lam >= 0.  The primal point is the water levels shrunk uniformly into
    the budgets; the solve stops as soon as that shrink is within
    ``SHRINK_TOL`` of 1 and the duality gap is at most ``GAP_TOL``, or a
    guard trips.  Returns ``(x, lam, newton_steps, gap)``: ``gap`` is the
    dual bound at ``lam`` minus the objective at ``x``, which for the
    feasible ``x`` bounds its distance to the optimum from above (weak
    duality).
    """
    wsq = wsq / budgets[:, None]
    ones = np.ones(wsq.shape[0])
    lam = _start_prices(a, wsq)
    value, level, price = _dual(a, wsq, ones, lam)
    steps = 0
    while True:
        load = wsq @ level
        shrink = 1.0 / max(1.0, float(load.max()))
        x = shrink * level
        gap = value - _sum_rate(a, x)
        if (shrink >= 1.0 - SHRINK_TOL and gap <= GAP_TOL) or steps == MAX_NEWTON_STEPS:
            break
        grad = 1.0 - load
        projected = lam - np.maximum(lam - grad, 0.0)
        residual = math.sqrt(projected @ projected)
        curvature = np.where(level > 0, 1.0 / (LN2 * price * price), 0.0)
        hess = (wsq * curvature) @ wsq.T
        ridge = 1e-12 * hess.trace()
        step = grad / (hess.diagonal() + ridge + min(residual, 1.0) ** 2)
        projected = lam - np.maximum(lam - step, 0.0)
        active = (lam <= math.sqrt(projected @ projected)) & (grad > 0)
        free = ~active
        if active.any():
            hess = hess[free][:, free]
        diagonal = hess.diagonal()
        # more free prices than streams with water, or a free price on dry
        # streams only: the free block is singular, so damp it
        singular = diagonal.size > np.count_nonzero(level) or not (diagonal > 0).all()
        hess.flat[:: diagonal.size + 1] = (
            diagonal + ridge + (min(residual, 1.0) ** 2 if singular else 0.0)
        )
        direction = -step
        direction[free] = np.linalg.solve(hess, -grad[free])
        # Armijo decrease along the projected path, up to roundoff in D
        predicted_free = -grad[free] @ direction[free]
        slack = 8.0 * np.spacing(abs(value))
        size = 1.0
        for _ in range(BACKTRACK_HALVINGS):
            trial = np.maximum(lam + size * direction, 0.0)
            trial_value, trial_level, trial_price = _dual(a, wsq, ones, trial)
            predicted = size * predicted_free + grad[active] @ (lam[active] - trial[active])
            if value - trial_value >= ARMIJO * predicted - slack:
                break
            size *= 0.5
        else:
            break   # rounding stalls the method
        lam, value, level, price = trial, trial_value, trial_level, trial_price
        steps += 1
    return x, lam / budgets, steps, gap


def qos_floor_powers(
    gains: np.ndarray,
    wsq: np.ndarray,
    *,
    pmax_w,
    noise_w,
    sinr_targets,
) -> np.ndarray | None:
    """Stream powers meeting every QoS floor with equality, or None when the
    QoS is infeasible.

    Takes the :func:`effective_gains` and ``wsq = |w_bar|^2`` of the ZF
    precoder, whose floors decouple per CR: the floor powers are the
    minimum-power point.  A CR set is admitted only when every CR has a
    positive gain and the floors leave every CT strictly below its budget,
    so the sum-rate solve always has positive headroom on every CT.
    """
    if np.any(gains <= 0):
        return None
    p_min = sinr_targets * noise_w / gains
    if not (wsq @ p_min < pmax_w).all():   # NaN fails the comparison too
        return None
    return p_min


def allocate_cdl_power(
    gains: np.ndarray,
    wsq: np.ndarray,
    p_min: np.ndarray,
    *,
    pmax_w,
    noise_w,
) -> CdlPowerResult:
    """Sum-rate maximizing stream powers above the QoS floor powers.

    Takes the :func:`effective_gains` g, ``wsq = |w_bar|^2`` of the
    normalized ZF precoder and the floor powers p_min that
    :func:`qos_floor_powers` admitted them with; floors that leave a CT no
    headroom raise ValueError.  The remaining concave program (maximize
    sum log2(1 + g_n p_n / sigma) s.t. wsq p <= Pmax, p >= p_min) is solved
    by projected Newton on its Lagrange dual, started where every budget
    binds when that point is optimal.  ``converged`` is the certificate the
    solve returns: the Lagrange dual bound at its final prices exceeds the
    returned objective by at most ``GAP_TOL`` bit/s/Hz.  ``iterations``
    counts dual Newton steps.
    """
    headroom = pmax_w - wsq @ p_min
    if not (headroom > 0).all():   # NaN fails the comparison too
        raise ValueError("QoS floor powers leave a CT no headroom")

    # Solve for the excess x = p - p_min in units of the largest budget.
    scale = float(np.max(pmax_w))
    a = (noise_w / gains + p_min) / scale
    budgets = headroom / scale
    x, _, steps, gap = _dual_newton(a, wsq, budgets)
    return CdlPowerResult(p_min + scale * x, steps, gap <= GAP_TOL)


@dataclass
class CdlSchedule:
    """Outcome of the cooperative pipeline for one drop."""

    transmitters: np.ndarray          # CT user ids
    receivers: np.ndarray             # CR user ids in selection order
    precoder: ZfPrecoder | None
    powers_w: np.ndarray
    rates_bps: np.ndarray
    newton_steps: int = 0             # of the one power solve on the final set

    @classmethod
    def empty(cls, transmitters=()) -> "CdlSchedule":
        tx = np.asarray(sorted(transmitters), dtype=int)
        return cls(
            transmitters=tx,
            receivers=np.zeros(0, dtype=int),
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

    Each round projects every remaining candidate channel off the selected
    channels H with W H^H, the orthogonal projector built from the admitted
    ZF precoder W, and picks the strongest residual (lowest id on ties).
    The pick is admitted only if the ZF precoder of the enlarged set exists
    and the minimum-power pre-check :func:`qos_floor_powers` passes;
    otherwise selection stops.  Survivors must keep their normalized channel
    correlation to the admitted residual below ``config.epsilon``.  The
    powers come from one :func:`allocate_cdl_power` solve on the gains and
    floor powers of the last admission; an ArithmeticError is raised if it
    misses its duality-gap certificate.
    """
    tx = np.asarray(sorted(transmitters), dtype=int)
    pool = np.asarray(sorted(int(c) for c in candidates), dtype=int)
    limit = tx.size if config.allow_full_rank else tx.size - 1

    channels = topology.channels.take(tx, axis=0)   # CT rows, every user
    norms = np.linalg.norm(channels.take(pool, axis=1), axis=0)
    selected: list[int] = []
    precoder: ZfPrecoder | None = None
    while len(selected) < limit and pool.size:
        h_pool = channels.take(pool, axis=1)
        residuals = h_pool
        if precoder is not None:
            residuals = h_pool - precoder.matrix @ (h_sel.conj().T @ h_pool)
        energies = np.sum(np.abs(residuals) ** 2, axis=0)
        best = int(np.argmax(energies))   # pool is sorted: first max is lowest id
        trial = selected + [int(pool[best])]
        h_trial = channels.take(trial, axis=1)
        try:
            trial_precoder = numerics.zf_precoder(h_trial)
        except PrecoderSingularError:
            break
        wsq = np.abs(trial_precoder.normalized) ** 2
        gains = effective_gains(h_trial, wsq)
        p_min = qos_floor_powers(
            gains,
            wsq,
            pmax_w=config.pmax_w,
            noise_w=config.noise_w,
            sinr_targets=config.sinr_target,
        )
        if p_min is None:
            break
        selected, h_sel, precoder = trial, h_trial, trial_precoder
        admitted = gains, wsq, p_min
        direction = residuals[:, best]
        norm_dir = np.linalg.norm(direction)
        if norm_dir == 0.0:
            break
        correlation = np.abs(direction.conj() @ h_pool) / (norms * norm_dir)
        keep = correlation < config.epsilon
        keep[best] = False
        pool, norms = pool[keep], norms[keep]

    if precoder is None:
        return CdlSchedule.empty(tx)
    gains, wsq, p_min = admitted
    result = allocate_cdl_power(
        gains, wsq, p_min, pmax_w=config.pmax_w, noise_w=config.noise_w
    )
    if not result.converged:
        raise ArithmeticError("CDL power failed its duality-gap certificate")
    # the paper's interference-free precoded rate on the admitted gains
    rates = config.bandwidth_hz * np.log2(1.0 + result.powers_w * gains / config.noise_w)
    return CdlSchedule(
        transmitters=tx,
        receivers=np.asarray(selected, dtype=int),
        precoder=precoder,
        powers_w=result.powers_w,
        rates_bps=rates,
        newton_steps=result.iterations,
    )
