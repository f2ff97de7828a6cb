"""File catalog, Zipf demand, random caching and coop-group choice."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .topology import FieldError


@dataclass(frozen=True)
class Catalog:
    """File library layout and request skewness, checked when built.

    The most popular ``num_popular`` files are split into groups of
    ``cache_size`` consecutive files; every user caches exactly one group.
    File ranks are 1-based (rank 1 is the most popular file), group indices
    are 0-based.
    """

    num_files: int = 200
    cache_size: int = 10
    num_popular: int = 100
    zipf_beta: float = 0.8

    def __post_init__(self) -> None:
        if not 1 <= self.cache_size <= self.num_popular <= self.num_files:
            raise ValueError("need 1 <= cache_size <= num_popular <= num_files")
        if self.num_popular % self.cache_size:
            raise ValueError("num_popular must be divisible by cache_size")
        if not 0.0 <= self.zipf_beta < np.inf:
            raise FieldError("zipf_beta", self.zipf_beta, "must be finite and >= 0")

    @property
    def num_groups(self) -> int:
        return self.num_popular // self.cache_size


def file_request_probs(catalog: Catalog) -> np.ndarray:
    """Zipf probability of each file rank 1..num_files."""
    ranks = np.arange(1, catalog.num_files + 1, dtype=float)
    weights = ranks ** (-catalog.zipf_beta)
    return weights / weights.sum()


def place_caches(num_users: int, catalog: Catalog, rng: np.random.Generator) -> np.ndarray:
    """Each user caches one group drawn uniformly; returns the (K,) group indices."""
    return rng.integers(0, catalog.num_groups, size=num_users)


@lru_cache(maxsize=32)
def request_cdf(catalog: Catalog) -> np.ndarray:
    """Cumulative Zipf distribution over file ranks, built as numpy's
    ``Generator.choice`` builds it from ``p``; read-only, one per catalog."""
    cdf = file_request_probs(catalog).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def draw_requests(
    num_users: int, catalog: Catalog, rng: np.random.Generator
) -> np.ndarray:
    """Draw one Zipf file request per user.

    Returns the (K,) requested group indices, -1 for a request beyond the
    popular set.  The draw equals ``rng.choice(num_files, num_users,
    p=file_request_probs(catalog))``: one uniform per user, located in the
    cached CDF.
    """
    files = request_cdf(catalog).searchsorted(rng.random(num_users), side="right")
    return np.where(files < catalog.num_popular, files // catalog.cache_size, -1)


def select_coop_group(demand_counts: np.ndarray) -> int | None:
    """Index of the most demanded group; ties break toward the lowest index.

    ``None`` when no group has unserved demand.
    """
    if not np.any(demand_counts):
        return None
    return int(np.argmax(demand_counts))


@dataclass
class ContentState:
    """What one drop drew and decided: each user's cached and requested
    group, and the cooperative group.  Every other view is derived."""

    cached_group: np.ndarray     # (K,) group index
    requested_group: np.ndarray  # (K,) group index, -1 beyond the popular set
    num_groups: int
    coop_group: int | None = None

    @property
    def num_users(self) -> int:
        return self.cached_group.size

    @property
    def unserved(self) -> np.ndarray:
        """(K,) bool: the user requests a group it does not cache."""
        return (self.requested_group >= 0) & (self.requested_group != self.cached_group)

    @property
    def cache(self) -> np.ndarray:
        """K x G one-hot cache matrix; kept because perfbench's checker reads it."""
        return (self.cached_group[:, None] == np.arange(self.num_groups)).astype(np.int8)

    @property
    def mode(self) -> np.ndarray:
        """(G,) transmission-mode indicators: 1 on the cooperative group only.

        Kept because perfbench's checker reads it."""
        mode = np.zeros(self.num_groups, dtype=np.int8)
        if self.coop_group is not None:
            mode[self.coop_group] = 1
        return mode

    @property
    def caching_sets(self) -> list:
        """Caching set M_g (the users caching group g) for every group; kept
        because perfbench's checker reads it."""
        return [np.flatnonzero(self.cached_group == g) for g in range(self.num_groups)]

    @property
    def demand_sets(self) -> list:
        """Unserved-demand set N_g (requesters not caching g) for every group;
        kept because perfbench's checker reads it."""
        unserved = self.unserved
        return [
            np.flatnonzero(unserved & (self.requested_group == g))
            for g in range(self.num_groups)
        ]


def build_content_state(
    catalog: Catalog,
    rng: np.random.Generator,
    num_users: int,
    cooperate: bool = True,
) -> ContentState:
    """Roll caches and requests for one drop and pick the cooperative group.

    The random draws do not depend on ``cooperate``, so coop and no-coop runs
    with the same generator state see identical caches and requests.
    """
    cached = place_caches(num_users, catalog, rng)
    requested = draw_requests(num_users, catalog, rng)
    state = ContentState(cached, requested, catalog.num_groups)
    if cooperate:
        demand = np.bincount(requested[state.unserved], minlength=catalog.num_groups)
        state.coop_group = select_coop_group(demand)
    return state
