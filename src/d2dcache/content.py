"""File catalog, Zipf demand, random caching, user classes and coop-group choice."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CLASS_SELF_SATISFIED = "self-satisfied"
CLASS_D2D = "d2d"
CLASS_CELLULAR = "cellular"
CLASS_IDLE = "idle-beyond-popular"


class NoCooperationPossibleError(RuntimeError):
    """Raised when every file group has zero unserved demand."""


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
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one Zipf file request per user.

    Returns the K x G group-request matrix (all-zero row for requests beyond
    the popular set) and the 1-based requested file ranks.
    """
    probs = file_request_probs(catalog)
    files = rng.choice(catalog.num_files, size=num_users, p=probs) + 1
    request = np.zeros((num_users, catalog.num_groups), dtype=np.int8)
    popular = np.flatnonzero(files <= catalog.num_popular)
    request[popular, (files[popular] - 1) // catalog.cache_size] = 1
    return request, files.astype(int)


def requested_groups(request: np.ndarray) -> np.ndarray:
    """Per-user requested group index, -1 where the request row is all zero."""
    groups = np.full(request.shape[0], -1, dtype=int)
    rows, cols = np.nonzero(request)
    groups[rows] = cols
    return groups


def derive_group_sets(cache: np.ndarray, request: np.ndarray):
    """Caching sets M_g and unserved-demand sets N_g for every group."""
    num_groups = cache.shape[1]
    caching = [np.flatnonzero(cache[:, g]) for g in range(num_groups)]
    demand = [
        np.flatnonzero((request[:, g] == 1) & (cache[:, g] == 0))
        for g in range(num_groups)
    ]
    return caching, demand


def classify_users(
    cache: np.ndarray,
    request: np.ndarray,
    distances: np.ndarray,
    d2d_radius_m: float,
    coop_group: int | None = None,
) -> list[str]:
    """Coarse per-user service class before scheduling.

    A requester of the cooperative group counts as d2d whenever that group is
    cached by anyone (it is a CR candidate regardless of distance); other
    requesters need a cacher of their group within the D2D radius.
    """
    groups = requested_groups(request)
    users = np.arange(cache.shape[0])
    group = np.maximum(groups, 0)
    cached = cache == 1
    # near_cacher[k, g]: some cacher of group g is within range of user k
    near_cacher = (distances < d2d_radius_m) @ cached
    # all False when coop_group is None
    coop_reachable = (groups == coop_group) & cached.any(axis=0)[group]
    classes = np.select(
        [groups < 0, cached[users, group], coop_reachable | near_cacher[users, group]],
        [CLASS_IDLE, CLASS_SELF_SATISFIED, CLASS_D2D],
        CLASS_CELLULAR,
    )
    return classes.tolist()


def select_coop_group(demand_sets) -> int:
    """Index of the most demanded group; ties break toward the lowest index."""
    sizes = [len(s) for s in demand_sets]
    if max(sizes, default=0) == 0:
        raise NoCooperationPossibleError("no file group has unserved demand")
    return int(np.argmax(sizes))


@dataclass
class ContentState:
    """Caches, requests and derived scheduling sets for one drop."""

    cache: np.ndarray          # K x G one-hot
    request: np.ndarray        # K x G, rows sum to 0 or 1
    requested_file: np.ndarray  # 1-based file ranks, (K,)
    requested_group: np.ndarray  # (K,), -1 beyond the popular set
    mode: np.ndarray           # (G,) transmission-mode indicators
    coop_group: int | None
    caching_sets: list = field(repr=False)
    demand_sets: list = field(repr=False)
    classes: list[str] = field(repr=False)

    @property
    def num_users(self) -> int:
        return self.cache.shape[0]

    @property
    def num_groups(self) -> int:
        return self.cache.shape[1]


def build_content_state(
    catalog: Catalog,
    rng: np.random.Generator,
    distances: np.ndarray,
    d2d_radius_m: float,
    cooperate: bool = True,
) -> ContentState:
    """Roll caches and requests for one drop and pick the cooperative group.

    The random draws do not depend on ``cooperate``, so coop and no-coop runs
    with the same generator state see identical caches and requests.
    """
    num_users = distances.shape[0]
    cache = place_caches(num_users, catalog, rng)
    request, files = draw_requests(num_users, catalog, rng)
    caching_sets, demand_sets = derive_group_sets(cache, request)

    coop_group: int | None = None
    mode = np.zeros(catalog.num_groups, dtype=np.int8)
    if cooperate:
        try:
            coop_group = select_coop_group(demand_sets)
            mode[coop_group] = 1
        except NoCooperationPossibleError:
            coop_group = None

    classes = classify_users(cache, request, distances, d2d_radius_m, coop_group)
    return ContentState(
        cache=cache,
        request=request,
        requested_file=files,
        requested_group=requested_groups(request),
        mode=mode,
        coop_group=coop_group,
        caching_sets=caching_sets,
        demand_sets=demand_sets,
        classes=classes,
    )
