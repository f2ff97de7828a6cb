"""Random hotspot topologies: user placement, path loss and Rayleigh channels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PATH_LOSS_OFFSET_DB = 37.6
PATH_LOSS_SLOPE_DB = 36.8

# Distinct users closer than this are pushed apart to dodge the path-loss
# singularity at d -> 0.
MIN_PAIR_DISTANCE_M = 1.0


class InvalidDistanceError(ValueError):
    """Distance fed to the path-loss law must be strictly positive."""


def dbm_to_watt(power_dbm: float) -> float:
    return 10.0 ** ((power_dbm - 30.0) / 10.0)


class FieldError(ValueError):
    """A config refused one of its values.  ``name`` names the value and
    ``rule`` says what it broke, so a caller that knows the value by another
    name can raise the error again under that name."""

    def __init__(self, name: str, value, rule: str):
        super().__init__(f"{name} = {value!r} {rule}")
        self.name, self.value, self.rule = name, value, rule


def require_finite_positive(name: str, value) -> None:
    # written so that NaN fails the test too
    if not 0.0 < value < math.inf:
        raise FieldError(name, value, "must be finite and > 0")


@dataclass(frozen=True)
class SimGeometry:
    """Square hotspot layout parameters, checked when built."""

    side_m: float = 100.0
    num_users: int = 30
    d2d_radius_m: float = 30.0

    def __post_init__(self) -> None:
        require_finite_positive("side_m", self.side_m)
        if not self.num_users >= 2:
            raise FieldError("num_users", self.num_users, "must be >= 2")
        if not 0.0 < self.d2d_radius_m <= self.side_m * math.sqrt(2.0):
            raise FieldError(
                "d2d_radius_m", self.d2d_radius_m, "must lie in (0, side_m*sqrt(2)]"
            )


@dataclass(frozen=True, kw_only=True)
class LinkConfig:
    """Radio settings both link types share, with the linear values the
    schedulers read.  Checked when built: the band and each linear value must
    be finite and > 0 (a conversion that overflows counts as infinite, one
    that underflows gives 0)."""

    bandwidth_hz: float = 10e6
    rmin_bps_per_hz: float = 3.0        # QoS floor as spectral efficiency
    pmax_dbm: float = 23.0              # per-transmitter peak power
    noise_dbm: float = -90.0
    pmax_w: float = field(init=False, repr=False)
    noise_w: float = field(init=False, repr=False)
    sinr_target: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        require_finite_positive("bandwidth_hz", self.bandwidth_hz)
        for name, source, to_linear in (
            ("pmax_w", "pmax_dbm", dbm_to_watt),
            ("noise_w", "noise_dbm", dbm_to_watt),
            ("sinr_target", "rmin_bps_per_hz", lambda rate: 2.0 ** rate - 1.0),
        ):
            setting = getattr(self, source)
            try:
                value = to_linear(setting)
            except OverflowError:
                value = math.inf
            if not 0.0 < value < math.inf:
                raise FieldError(
                    name, value, f"from {source} = {setting!r} must be finite and > 0"
                )
            object.__setattr__(self, name, value)


@dataclass
class Topology:
    """One channel realization: positions, pairwise distances and complex gains.

    ``channels[i, j]`` is the coefficient seen when user i transmits to user j;
    the diagonal is unused (zeroed).  ``channels[i, j]`` and ``channels[j, i]``
    are drawn independently.  ``power_gains`` is ``|channels|**2``, computed
    once here so every scheduler reads the same linear power gains.
    """

    positions: np.ndarray  # (K, 2) metres
    distances: np.ndarray  # (K, K) metres, symmetric, zero diagonal
    channels: np.ndarray   # (K, K) complex linear amplitudes
    power_gains: np.ndarray = field(init=False, repr=False)  # (K, K) linear

    def __post_init__(self) -> None:
        self.power_gains = np.abs(self.channels) ** 2

    @property
    def num_users(self) -> int:
        return self.positions.shape[0]


def place_users(geometry: SimGeometry, rng: np.random.Generator) -> np.ndarray:
    """Drop users i.i.d. uniformly over the square hotspot."""
    return rng.uniform(0.0, geometry.side_m, size=(geometry.num_users, 2))


def path_loss_db(distance_m):
    """Distance-dependent path loss in dB, 37.6 + 36.8*log10(d)."""
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0.0):
        raise InvalidDistanceError(f"distance must be > 0, got {distance_m}")
    out = PATH_LOSS_OFFSET_DB + PATH_LOSS_SLOPE_DB * np.log10(d)
    return float(out) if np.isscalar(distance_m) else out


def path_gain(distance_m):
    """Linear power gain 10^(-PL/10) at the given distance."""
    return 10.0 ** (-np.asarray(path_loss_db(distance_m)) / 10.0)


def build_topology(geometry: SimGeometry, rng: np.random.Generator) -> Topology:
    """Generate positions and the full K x K channel matrix for one drop.

    Every K x K array is built once and updated in place.  The clamp also
    lifts the diagonal to ``MIN_PAIR_DISTANCE_M`` so the path-loss law takes
    the whole matrix; the diagonals are zeroed afterwards.
    """
    num_users = geometry.num_users
    positions = place_users(geometry, rng)
    x, y = positions.T
    distances = np.subtract.outer(x, x)
    dy = np.subtract.outer(y, y)
    distances *= distances
    dy *= dy
    distances += dy
    np.sqrt(distances, out=distances)
    np.maximum(distances, MIN_PAIR_DISTANCE_M, out=distances)

    amplitude = path_gain(distances)
    np.sqrt(amplitude, out=amplitude)
    fading = rng.standard_normal((num_users, num_users, 2))
    # (re, im) pairs of the last axis read as one complex128 each
    channels = fading.view(np.complex128).reshape(num_users, num_users)
    channels *= amplitude
    channels /= np.sqrt(2.0)
    np.fill_diagonal(channels, 0.0)
    np.fill_diagonal(distances, 0.0)
    return Topology(positions=positions, distances=distances, channels=channels)
