"""File catalog, Zipf demand, random caching and coop-group choice."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Catalog:
    """File library layout and request skewness.

    The most popular ``num_popular`` files are split into groups of
    ``cache_size`` consecutive files; every user caches exactly one group.
    File ranks are 1-based (rank 1 is the most popular file), group indices
    are 0-based.
    """

    num_files: int = 200
    cache_size: int = 10
    num_popular: int = 100
    zipf_beta: float = 0.8

    @property
    def num_groups(self) -> int:
        return self.num_popular // self.cache_size

    def validate(self) -> None:
        if self.num_files < 1 or self.cache_size < 1:
            raise ValueError("num_files and cache_size must be >= 1")
        if self.num_popular > self.num_files:
            raise ValueError("num_popular cannot exceed num_files")
        if self.num_popular % self.cache_size != 0:
            raise ValueError("num_popular must be divisible by cache_size")
        if self.num_popular < self.cache_size:
            raise ValueError("need at least one file group")
        if self.zipf_beta < 0:
            raise ValueError("zipf_beta must be >= 0")


def file_request_probs(catalog: Catalog) -> np.ndarray:
    """Zipf probability of each file rank 1..num_files."""
    ranks = np.arange(1, catalog.num_files + 1, dtype=float)
    weights = ranks ** (-catalog.zipf_beta)
    return weights / weights.sum()


def place_caches(num_users: int, catalog: Catalog, rng: np.random.Generator) -> np.ndarray:
    """Each user caches one group drawn uniformly; returns the K x G one-hot matrix."""
    groups = rng.integers(0, catalog.num_groups, size=num_users)
    cache = np.zeros((num_users, catalog.num_groups), dtype=np.int8)
    cache[np.arange(num_users), groups] = 1
    return cache


def draw_requests(
    num_users: int, catalog: Catalog, rng: np.random.Generator
) -> np.ndarray:
    """Draw one Zipf file request per user.

    Returns the K x G group-request matrix, with an all-zero row for a
    request beyond the popular set.
    """
    probs = file_request_probs(catalog)
    files = rng.choice(catalog.num_files, size=num_users, p=probs) + 1
    request = np.zeros((num_users, catalog.num_groups), dtype=np.int8)
    popular = np.flatnonzero(files <= catalog.num_popular)
    request[popular, (files[popular] - 1) // catalog.cache_size] = 1
    return request


def select_coop_group(demand_counts: np.ndarray) -> int | None:
    """Index of the most demanded group; ties break toward the lowest index.

    ``None`` when no group has unserved demand.
    """
    if not np.any(demand_counts):
        return None
    return int(np.argmax(demand_counts))


@dataclass
class ContentState:
    """What one drop drew and decided: caches, requests and the cooperative
    group.  Every other view is derived from these three on demand."""

    cache: np.ndarray          # K x G one-hot
    request: np.ndarray        # K x G, rows sum to 0 or 1
    coop_group: int | None = None

    @property
    def num_users(self) -> int:
        return self.cache.shape[0]

    @property
    def num_groups(self) -> int:
        return self.cache.shape[1]

    @property
    def unserved(self) -> np.ndarray:
        """K x G: user k requests group g and does not cache it."""
        return (self.request == 1) & (self.cache == 0)

    @property
    def requested_group(self) -> np.ndarray:
        """Per-user requested group index, -1 where the request row is all zero."""
        groups = np.full(self.num_users, -1, dtype=int)
        rows, cols = np.nonzero(self.request)
        groups[rows] = cols
        return groups

    @property
    def mode(self) -> np.ndarray:
        """(G,) transmission-mode indicators: 1 on the cooperative group only."""
        mode = np.zeros(self.num_groups, dtype=np.int8)
        if self.coop_group is not None:
            mode[self.coop_group] = 1
        return mode

    @property
    def caching_sets(self) -> list:
        """Caching set M_g (the users caching group g) for every group."""
        return [np.flatnonzero(column) for column in self.cache.T]

    @property
    def demand_sets(self) -> list:
        """Unserved-demand set N_g (requesters not caching g) for every group."""
        return [np.flatnonzero(column) for column in self.unserved.T]


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
    cache = place_caches(num_users, catalog, rng)
    request = draw_requests(num_users, catalog, rng)
    state = ContentState(cache, request)
    if cooperate:
        state.coop_group = select_coop_group(state.unserved.sum(axis=0))
    return state
