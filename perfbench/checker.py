"""Outcome checker: the paper's constraints, re-derived from the raw topology
and content of one finished drop.

Every quantity is recomputed from ``topology.channels`` and the configured
powers rather than read back from the schedules' own matrices, so a
scheduler that stores an inconsistent matrix is caught too.
"""

from __future__ import annotations

import numpy as np

from d2dcache.numerics import TOL

# Relative slack on power budgets and SINR floors; the solvers promise
# TOL.power_feasibility_rel and TOL.sinr_match_rel, both 1e-6.
POWER_SLACK = TOL.power_feasibility_rel
SINR_SLACK = TOL.sinr_match_rel


def check_drop(drop, config, mode: str) -> list[str]:
    """Violations of the scheduling constraints on one ``DropResult``.

    ``config`` is the ``SimConfig`` the drop ran with and ``mode`` its
    scheduling mode.  An empty list means the drop is valid.
    """
    problems: list[str] = []
    problems += _check_cdl(drop, config)
    problems += _check_ndl(drop, config, mode)
    problems += _check_roles(drop)
    problems += _check_metrics(drop)
    return problems


def _check_cdl(drop, config) -> list[str]:
    schedule = drop.cdl_schedule
    if schedule.num_served == 0:
        return []
    cdl = config.cdl_config()
    content = drop.content
    problems = []
    tx, rx = schedule.transmitters, schedule.receivers
    group = content.coop_group
    if group is None:
        return ["cdl: receivers scheduled without a cooperative group"]
    if sorted(tx.tolist()) != sorted(int(u) for u in content.caching_sets[group]):
        problems.append("cdl: transmitters are not the cooperative group's cachers")
    if not set(rx.tolist()) <= {int(u) for u in content.demand_sets[group]}:
        problems.append("cdl: a receiver does not request the cooperative group")

    h = drop.topology.channels[np.ix_(tx, rx)]
    w = schedule.precoder.normalized
    # ZF: receiver j sees nothing of stream k != j (normalized cross-talk)
    cross = np.abs(h.conj().T @ w)
    scale = np.linalg.norm(h, axis=0)[:, None] * np.linalg.norm(w, axis=0)[None, :]
    off = ~np.eye(rx.size, dtype=bool)
    if off.any() and np.max(cross[off] / scale[off]) >= TOL.orthogonality:
        problems.append(
            f"cdl: ZF cross-term {np.max(cross[off] / scale[off]):.3e} "
            f">= {TOL.orthogonality:.0e}"
        )

    powers = np.asarray(schedule.powers_w, dtype=float)
    if np.any(powers < 0.0):
        problems.append("cdl: negative stream power")
    per_ct = (np.abs(w) ** 2) @ powers
    if np.any(per_ct > cdl.pmax_w * (1.0 + POWER_SLACK)):
        problems.append(
            f"cdl: CT power {np.max(per_ct):.4e} W over budget {cdl.pmax_w:.4e} W"
        )
    # the paper's CDL SINR: p_n * sum_m |w_mn|^2 |h_mn|^2 / noise
    gains = np.sum(np.abs(w) ** 2 * np.abs(h) ** 2, axis=0)
    sinr = powers * gains / cdl.noise_w
    if np.any(sinr < cdl.sinr_target * (1.0 - SINR_SLACK)):
        problems.append(
            f"cdl: CR SINR {np.min(sinr):.4e} below floor {cdl.sinr_target:.4e}"
        )
    return problems


def _check_ndl(drop, config, mode: str) -> list[str]:
    schedule = drop.ndl_schedule
    if schedule.num_served == 0:
        return []
    bandwidth = config.ndl_bandwidth_hz
    if mode == "nocoop":
        bandwidth += config.cdl_bandwidth_hz
    ndl = config.ndl_config(bandwidth)
    content, topology = drop.content, drop.topology
    problems = []
    for tx, rx in schedule.links:
        group = content.requested_group[rx]
        if group < 0 or content.mode[group] != 0 or content.cache[tx, group] != 1:
            problems.append(f"ndl: link ({tx}, {rx}) does not carry a cached request")
        if topology.distances[tx, rx] >= ndl.radius_m:
            problems.append(f"ndl: link ({tx}, {rx}) longer than the D2D radius")

    txs = np.asarray(schedule.transmitters, dtype=int)
    rxs = np.asarray(schedule.receivers, dtype=int)
    gains = np.abs(topology.channels[np.ix_(txs, rxs)]) ** 2
    powers = np.asarray(schedule.powers_w, dtype=float)
    if np.any(powers < 0.0) or np.any(powers > ndl.pmax_w * (1.0 + POWER_SLACK)):
        problems.append(
            f"ndl: power {np.max(powers):.4e} W outside [0, {ndl.pmax_w:.4e}] W"
        )
    received = gains.T @ powers
    signal = powers * np.diag(gains)
    sinr = signal / (received - signal + ndl.noise_w)
    if np.any(sinr < ndl.sinr_target * (1.0 - SINR_SLACK)):
        problems.append(
            f"ndl: NR SINR {np.min(sinr):.4e} below floor {ndl.sinr_target:.4e}"
        )
    return problems


def _check_roles(drop) -> list[str]:
    problems = []
    cdl, ndl = drop.cdl_schedule, drop.ndl_schedule
    roles: list[int] = list(ndl.transmitters) + list(ndl.receivers)
    if cdl.num_served > 0:
        roles += cdl.receivers.tolist()
        # CTs beamform jointly: each holds one CDL role, and none may serve NDLs
        cdl_users = set(cdl.transmitters.tolist()) | set(cdl.receivers.tolist())
        if cdl_users & (set(ndl.transmitters) | set(ndl.receivers)):
            problems.append("roles: a user is on both a CDL and an NDL")
        roles += cdl.transmitters.tolist()
    if len(roles) != len(set(roles)):
        problems.append("roles: a user holds more than one link role")
    return problems


def _check_metrics(drop) -> list[str]:
    m = drop.metrics
    expected = drop.cdl_schedule.sum_rate_bps + drop.ndl_schedule.sum_rate_bps
    problems = []
    if m.served_crs != drop.cdl_schedule.num_served:
        problems.append("metrics: served_crs disagrees with the CDL schedule")
    if m.served_nrs != drop.ndl_schedule.num_served:
        problems.append("metrics: served_nrs disagrees with the NDL schedule")
    if not np.isfinite(m.throughput_bps) or m.throughput_bps != expected:
        problems.append("metrics: throughput is not the sum of the link rates")
    return problems
