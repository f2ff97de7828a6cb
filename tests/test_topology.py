import numpy as np
import pytest

from d2dcache.topology import (
    InvalidDistanceError,
    MIN_PAIR_DISTANCE_M,
    SimGeometry,
    Topology,
    build_topology,
    dbm_to_watt,
    path_gain,
    path_loss_db,
    place_users,
)


def test_place_users_single_point_in_range():
    # the smallest geometry a drop accepts: a pair of users
    geom = SimGeometry(side_m=100.0, num_users=2, d2d_radius_m=30.0)
    pts = place_users(geom, np.random.default_rng(0))
    assert pts.shape == (2, 2)
    assert np.all(pts >= 0.0) and np.all(pts <= 100.0)


def test_place_users_deterministic():
    geom = SimGeometry(num_users=50)
    a = place_users(geom, np.random.default_rng(123))
    b = place_users(geom, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_place_users_mean_matches_uniform_law():
    geom = SimGeometry(side_m=100.0, num_users=10_000)
    pts = place_users(geom, np.random.default_rng(7))
    assert abs(pts[:, 0].mean() - 50.0) < 1.5
    assert abs(pts[:, 1].mean() - 50.0) < 1.5


def test_path_loss_known_values():
    assert path_loss_db(10.0) == pytest.approx(74.4, abs=1e-12)
    assert path_loss_db(1.0) == pytest.approx(37.6, abs=1e-12)
    # frozen from direct evaluation of 37.6 + 36.8*log10(30)
    assert path_loss_db(30.0) == pytest.approx(91.96, abs=0.01)


def test_path_loss_rejects_nonpositive():
    for bad in (0.0, -1.0):
        with pytest.raises(InvalidDistanceError):
            path_loss_db(bad)


def test_path_loss_strictly_increasing():
    d = np.linspace(0.1, 500.0, 400)
    pl = path_loss_db(d)
    assert np.all(np.diff(pl) > 0)


def test_mean_channel_power_monotone_in_distance():
    assert path_gain(5.0) > path_gain(6.0) > path_gain(60.0)


def normalized_fading(seed, drops=10, num_users=100):
    """Off-diagonal channels of ``build_topology`` divided by the path-loss
    amplitude of their (clamped) distance: the unit-power fading draws."""
    rng = np.random.default_rng(seed)
    off = ~np.eye(num_users, dtype=bool)
    draws = []
    for _ in range(drops):
        topo = build_topology(SimGeometry(num_users=num_users), rng)
        draws.append(topo.channels[off] / np.sqrt(path_gain(topo.distances[off])))
    return np.concatenate(draws)


def test_channel_moments():
    draws = normalized_fading(42)
    assert draws.size == 99_000
    assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.03
    # circular symmetry: both parts zero mean, each carrying half the power
    sigma = np.sqrt(0.5)
    assert abs(draws.real.mean()) < 5 * sigma / np.sqrt(draws.size)
    assert abs(draws.imag.mean()) < 5 * sigma / np.sqrt(draws.size)
    assert abs(np.mean(draws.real**2) - 0.5) < 0.02
    assert abs(np.mean(draws.imag**2) - 0.5) < 0.02


def test_fading_power_is_unit_mean_exponential():
    normalized = np.abs(normalized_fading(3, drops=15)) ** 2
    assert 0.97 < normalized.mean() < 1.03
    # exponential law: P(|h|^2 > 1) = exp(-1)
    assert abs(np.mean(normalized > 1.0) - np.exp(-1.0)) < 0.01


def test_build_topology_structure():
    geom = SimGeometry(num_users=20)
    topo = build_topology(geom, np.random.default_rng(5))
    assert topo.num_users == 20
    assert np.array_equal(topo.distances, topo.distances.T)
    assert np.all(np.diag(topo.distances) == 0.0)
    off = ~np.eye(20, dtype=bool)
    assert np.all(topo.distances[off] >= MIN_PAIR_DISTANCE_M)
    assert np.all(np.diag(topo.channels) == 0)
    # forward and reverse coefficients are drawn independently
    assert not np.allclose(topo.channels[off], topo.channels.T[off])


def test_build_topology_seed_reproducible():
    geom = SimGeometry(num_users=15)
    a = build_topology(geom, np.random.default_rng(99))
    b = build_topology(geom, np.random.default_rng(99))
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.channels, b.channels)


def test_min_distance_clamp_applies_to_crowded_layouts():
    geom = SimGeometry(side_m=3.0, num_users=40, d2d_radius_m=3.0)
    topo = build_topology(geom, np.random.default_rng(11))
    off = ~np.eye(40, dtype=bool)
    assert topo.distances[off].min() >= MIN_PAIR_DISTANCE_M


def reference_build_topology(geometry, rng):
    """Reference build: the off-diagonal gathered and scattered through a
    boolean mask, with fresh arrays at every step."""
    positions = place_users(geometry, rng)
    dx = positions[:, None, 0] - positions[None, :, 0]
    dy = positions[:, None, 1] - positions[None, :, 1]
    distances = np.sqrt(dx * dx + dy * dy)
    off_diag = ~np.eye(geometry.num_users, dtype=bool)
    distances[off_diag] = np.maximum(distances[off_diag], MIN_PAIR_DISTANCE_M)
    amplitude = np.zeros_like(distances)
    amplitude[off_diag] = np.sqrt(path_gain(distances[off_diag]))
    fading = rng.standard_normal((geometry.num_users, geometry.num_users, 2))
    channels = amplitude * (fading[..., 0] + 1j * fading[..., 1]) / np.sqrt(2.0)
    np.fill_diagonal(channels, 0.0)
    return Topology(positions=positions, distances=distances, channels=channels)


@pytest.mark.parametrize(
    "side_m, num_users",
    [(100.0, 2), (100.0, 3), (100.0, 20), (100.0, 30), (100.0, 40), (100.0, 100),
     (2.0, 30)],
)
def test_build_topology_matches_reference_bytes(side_m, num_users):
    geometry = SimGeometry(side_m=side_m, num_users=num_users, d2d_radius_m=2.0)
    clamped = 0
    for seed in range(300):
        ours = build_topology(geometry, np.random.default_rng(seed))
        ref = reference_build_topology(geometry, np.random.default_rng(seed))
        for name in ("positions", "distances", "channels", "power_gains"):
            got, want = getattr(ours, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), (seed, name)
        raw = np.sqrt(((ours.positions[:, None] - ours.positions[None]) ** 2).sum(-1))
        clamped += np.count_nonzero(raw < MIN_PAIR_DISTANCE_M) - num_users
    if side_m == 2.0:
        assert clamped > 10_000  # the clamp binds on most pairs of a crowded layout


def test_geometry_validation():
    SimGeometry()
    with pytest.raises(ValueError, match="side_m = -1.0"):
        SimGeometry(side_m=-1.0)
    with pytest.raises(ValueError, match="num_users = 1"):
        SimGeometry(num_users=1)
    with pytest.raises(ValueError, match="d2d_radius_m = 500.0"):
        SimGeometry(d2d_radius_m=500.0)


def test_dbm_to_watt():
    assert dbm_to_watt(30.0) == pytest.approx(1.0)
    assert dbm_to_watt(23.0) == pytest.approx(0.1995262315, rel=1e-9)
    assert dbm_to_watt(-90.0) == pytest.approx(1e-12, rel=1e-12)


def test_topology_gain_matches_channel_entry():
    geom = SimGeometry(num_users=40)
    topo = build_topology(geom, np.random.default_rng(2))
    expected = np.abs(topo.channels) ** 2
    assert topo.power_gains.dtype == expected.dtype
    assert topo.power_gains.tobytes() == expected.tobytes()
    assert topo.power_gains[0, 3] == pytest.approx(abs(topo.channels[0, 3]) ** 2)
    # hand-built topologies get the same matrix
    hand = Topology(topo.positions, topo.distances, topo.channels)
    assert hand.power_gains.tobytes() == expected.tobytes()
