"""Plane fitting, Rodrigues rotation, and posture correction."""

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from pilevol import pose
from pilevol.cloud import PointCloud
from pilevol.errors import DegenerateCloud, InvalidParameter, NotUnitVector
from pilevol.pose import (
    _BATCH,
    PlaneModel,
    RansacParams,
    _float32_screen,
    _orient_up,
    _plane_distances,
    _plane_from_points,
    _refine_plane,
    _screened_inliers,
    _triples,
    correct_posture,
    ransac_plane,
    rodrigues,
    rotation_to_up,
)
from pilevol.synth import generate_scene, reference_scenes


def quaternion_rotation_to_up(v: np.ndarray) -> np.ndarray:
    """Quaternion oracle for the rotation mapping v onto +Z."""
    ez = np.array([0.0, 0.0, 1.0])
    axis = np.cross(v, ez)
    s = np.linalg.norm(axis)
    c = float(np.clip(v @ ez, -1, 1))
    if s < 1e-15:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    axis = axis / s
    half = np.arccos(c) / 2.0
    w = np.cos(half)
    x, y, z = axis * np.sin(half)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def ground_plus_pile(rng, sigma=0.005, n_ground=5000, n_pile=2000):
    gx = rng.uniform(-1, 1, n_ground)
    gy = rng.uniform(-1, 1, n_ground)
    gz = rng.normal(0, sigma, n_ground)
    px = rng.uniform(-0.3, 0.3, n_pile)
    py = rng.uniform(-0.3, 0.3, n_pile)
    pz = rng.uniform(0.1, 0.5, n_pile)
    xyz = np.vstack([np.column_stack([gx, gy, gz]),
                     np.column_stack([px, py, pz])])
    return PointCloud(xyz), n_ground


# ---------------------------------------------------------------------------
# ransac_plane
# ---------------------------------------------------------------------------

def test_ransac_exact_horizontal_plane():
    rng = np.random.default_rng(0)
    xyz = np.column_stack([rng.uniform(-1, 1, 1000), rng.uniform(-1, 1, 1000),
                           np.zeros(1000)])
    plane = ransac_plane(PointCloud(xyz), RansacParams(seed=1))
    np.testing.assert_allclose([plane.a, plane.b, plane.c], [0, 0, 1], atol=1e-9)
    assert abs(plane.d) < 1e-9
    assert plane.rms_residual < 1e-12
    # every point is an inlier of the first candidate: w^3 = 1 stops at once
    assert plane.iterations == 1


def test_ransac_diagonal_plane_z_equals_x():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 1000)
    y = rng.uniform(-1, 1, 1000)
    plane = ransac_plane(PointCloud(np.column_stack([x, y, x])),
                         RansacParams(seed=2))
    expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(plane.unit_normal, expected, atol=1e-9)
    assert abs(plane.d) < 1e-9


def test_ransac_noisy_ground_under_pile():
    rng = np.random.default_rng(7)
    cloud, n_ground = ground_plus_pile(rng)
    plane = ransac_plane(cloud, RansacParams(seed=3))
    # oracle: least-squares plane on the known ground subset
    ground = cloud.xyz[:n_ground]
    centroid = ground.mean(axis=0)
    cov = (ground - centroid).T @ (ground - centroid)
    normal = np.linalg.eigh(cov)[1][:, 0]
    if normal[2] < 0:
        normal = -normal
    angle = np.degrees(np.arccos(np.clip(plane.unit_normal @ normal, -1, 1)))
    assert angle < 0.5
    d_oracle = -float(normal @ centroid)
    assert abs(plane.d - d_oracle) < 0.01


def test_ransac_deterministic_and_repeatable_across_seeds():
    rng = np.random.default_rng(11)
    cloud, _ = ground_plus_pile(rng, n_ground=3000, n_pile=800)
    one = ransac_plane(cloud, RansacParams(seed=5))
    two = ransac_plane(cloud, RansacParams(seed=5))
    assert one.unit_normal.tolist() == two.unit_normal.tolist()
    assert one.d == two.d
    # normal spread across seeds stays tight on sigma = 0.005 ground
    normals = [ransac_plane(cloud, RansacParams(seed=s)).unit_normal
               for s in range(50)]
    max_angle = 0.0
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            c = float(np.clip(normals[i] @ normals[j], -1, 1))
            max_angle = max(max_angle, np.degrees(np.arccos(c)))
    assert max_angle <= 0.5


def test_ransac_inlier_invariant():
    rng = np.random.default_rng(4)
    cloud, _ = ground_plus_pile(rng, n_ground=2000, n_pile=500)
    params = RansacParams(seed=9)
    plane = ransac_plane(cloud, params)
    distances = np.abs(cloud.xyz[plane.inlier_indices] @ plane.unit_normal + plane.d)
    assert (distances <= params.distance_threshold).all()
    assert abs(np.linalg.norm(plane.unit_normal) - 1.0) < 1e-12


def test_ransac_degenerate_inputs():
    with pytest.raises(DegenerateCloud):
        ransac_plane(PointCloud([[0, 0, 0], [1, 1, 1]]))
    line = PointCloud([[t, 0, 0] for t in np.linspace(0, 1, 20)])
    with pytest.raises(DegenerateCloud):
        ransac_plane(line, RansacParams(seed=0, max_iterations=50))
    # a threshold below rounding error can leave even the samples outside
    # their own plane (seed 3's first candidate has zero inliers): the
    # adaptive bound must not divide by log1p(-0)
    rng = np.random.default_rng(0)
    with pytest.raises(DegenerateCloud):
        ransac_plane(PointCloud(rng.uniform(-100, 300, size=(200, 3))),
                     RansacParams(seed=3, distance_threshold=1e-300,
                                  max_iterations=20))


def test_ransac_min_inlier_fraction():
    # two sparse planes, neither reaching 90% membership
    rng = np.random.default_rng(5)
    a = np.column_stack([rng.uniform(size=200), rng.uniform(size=200),
                         np.zeros(200)])
    b = np.column_stack([rng.uniform(size=150), rng.uniform(size=150),
                         np.full(150, 3.0)])
    cloud = PointCloud(np.vstack([a, b]))
    with pytest.raises(DegenerateCloud):
        ransac_plane(cloud, RansacParams(seed=1, min_inlier_fraction=0.9))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_ransac_params_reject_nan_inf_and_zero(bad):
    with pytest.raises(InvalidParameter):
        RansacParams(distance_threshold=bad)


@pytest.mark.parametrize("field", ["max_iterations", "seed"])
@pytest.mark.parametrize("bad", [2.5, 1.0, True, "3", -1])
def test_ransac_params_reject_a_non_integer_or_negative_count_or_seed(field, bad):
    # seed = 1.5 or -1 would end in numpy's own TypeError or ValueError,
    # and max_iterations = 2.5 would run 3 draws
    with pytest.raises(InvalidParameter, match=field):
        RansacParams(**{field: bad})
    assert getattr(RansacParams(**{field: np.int64(7)}), field) == 7


@pytest.mark.parametrize("field, bad", [
    ("distance_threshold", True), ("distance_threshold", "0.01"),
    ("min_inlier_fraction", True), ("min_inlier_fraction", "0.5"),
])
def test_ransac_params_reject_a_bool_or_non_number_threshold_or_fraction(field, bad):
    # True passed as 1 m or as a fraction of 1, and a string ended in a
    # TypeError from the range check
    with pytest.raises(InvalidParameter, match=f"{field} must be a number"):
        RansacParams(**{field: bad})


def test_plane_from_points_matches_np_cross():
    # spreads from 1e-6 to 1e6 m, and exactly repeated points (degenerate);
    # the normal's length must equal np.linalg.norm's bit for bit
    rng = np.random.default_rng(17)
    triples = rng.normal(size=(3000, 3, 3)) * 10.0 ** rng.integers(-6, 7, size=(3000, 1, 1))
    triples[::100, 2] = triples[::100, 0]
    for p0, p1, p2 in triples:
        normal = np.cross(p1 - p0, p2 - p0)
        norm = np.linalg.norm(normal)
        candidate = _plane_from_points(p0, p1, p2)
        if norm < 1e-12:
            assert candidate is None
            continue
        unit = normal / norm
        assert candidate[0].tobytes() == unit.tobytes()
        assert candidate[1] == -float(unit @ p0)


def choice_draws(seed, n, draws=32):
    """``draws`` successive ``Generator.choice(n, 3, replace=False)``."""
    rng = np.random.default_rng(seed)
    return [rng.choice(n, size=3, replace=False).tolist() for _ in range(draws)]


def sampled_draws(seed, n, draws=32):
    """The fit's first ``draws`` index triples."""
    triples = _triples(np.random.default_rng(seed), n)
    return [[int(i) for i in next(triples)] for _ in range(draws)]


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(3, 2**20))
def test_sampler_draws_what_generator_choice_draws(seed, n):
    # one more draw than three batches, so every example crosses batch
    # boundaries and starts a fourth batch
    draws = 3 * _BATCH + 1
    assert sampled_draws(seed, n, draws) == choice_draws(seed, n, draws)


@pytest.mark.parametrize("n", [3, 4, 2**31 + 2, 2**32 - 1, 2**32, 2**32 + 5, 2**40],
                         ids=["3", "4", "2^31+2", "2^32-1", "2^32", "2^32+5", "2^40"])
@pytest.mark.parametrize("seed", [0, 1, 2718])
def test_sampler_draws_what_generator_choice_draws_at_the_edges(n, seed):
    # n = 3 draws no word for its first index; 2^31 + 2 rejects about half
    # the words in two of its five bounded draws; at 2^32 the third bound
    # takes a whole 32-bit word unbounded, and above 2^32 the larger bounds
    # take 64-bit words
    draws = _BATCH + 1
    assert sampled_draws(seed, n, draws) == choice_draws(seed, n, draws)


def fixed_loop_plane(cloud, params, draws):
    """Reference RANSAC: exactly ``draws`` candidates, the earliest of
    equal-count candidates wins, then the least-squares refinement."""
    xyz = cloud.xyz
    rng = np.random.default_rng(params.seed)
    best_count, best = -1, None
    for _ in range(draws):
        p0, p1, p2 = xyz[rng.choice(len(xyz), size=3, replace=False)]
        normal = np.cross(p1 - p0, p2 - p0)
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            continue
        normal = normal / norm
        d = -float(normal @ p0)
        count = int(np.count_nonzero(np.abs(xyz @ normal + d)
                                     <= params.distance_threshold))
        if count > best_count:
            best_count, best = count, (normal, d)
    normal, d = best
    inliers = np.abs(xyz @ normal + d) <= params.distance_threshold
    refined, centroid = _refine_plane(xyz[inliers].T.copy())
    refined = _orient_up(refined)
    return refined, -float(refined @ centroid)


def test_ransac_stops_early_on_a_ground_dominated_cloud():
    rng = np.random.default_rng(12)
    cloud, n_ground = ground_plus_pile(rng, n_ground=6000, n_pile=2000)
    assert n_ground / len(cloud) == 0.75
    plane = ransac_plane(cloud, RansacParams(seed=4))
    assert 1 < plane.iterations < 50
    angle = np.degrees(np.arccos(np.clip(plane.unit_normal @ [0, 0, 1], -1, 1)))
    assert angle < 0.5


def test_ransac_runs_the_cap_when_the_bound_exceeds_it():
    rng = np.random.default_rng(13)
    cloud, _ = ground_plus_pile(rng, n_ground=3000, n_pile=1000)
    # w <= 0.75 needs at least 13 draws at p = 0.999
    assert ransac_plane(cloud, RansacParams(seed=2, max_iterations=5)).iterations == 5
    assert ransac_plane(cloud, RansacParams(seed=2, max_iterations=12)).iterations == 12


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_ransac_equals_the_fixed_loop_truncated_at_the_stop(seed):
    rng = np.random.default_rng(14)
    cloud, _ = ground_plus_pile(rng, n_ground=3000, n_pile=1500)
    params = RansacParams(seed=seed)
    plane = ransac_plane(cloud, params)
    normal, d = fixed_loop_plane(cloud, params, plane.iterations)
    assert plane.unit_normal.tobytes() == normal.tobytes()
    assert plane.d == d


def test_ransac_ties_keep_the_earliest_candidate():
    # two exact parallel planes of 500 points: every candidate drawn within
    # one plane scores 500, so the count ties across both planes
    rng = np.random.default_rng(15)
    xy = rng.uniform(-1, 1, size=(1000, 2))
    z = np.repeat([0.0, 1.0], 500)
    cloud = PointCloud(np.column_stack([xy, z]))
    seen = set()
    for seed in range(6):
        params = RansacParams(seed=seed)
        plane = ransac_plane(cloud, params)
        # w = 1/2 needs 52 draws, among them winners on both planes
        assert plane.iterations == 52
        normal, d = fixed_loop_plane(cloud, params, plane.iterations)
        assert plane.unit_normal.tobytes() == normal.tobytes()
        assert plane.d == d
        seen.add(round(plane.d))
    assert seen == {0, -1}


@pytest.mark.parametrize("scene", [0, 8, 17])
def test_ransac_fit_survives_a_translation_to_utm_size_coordinates(scene):
    # a capture moved about a million metres, as in UTM coordinates, votes
    # the same inliers and refits the same normal; a refit from raw,
    # uncentred moments loses the plane's smallest eigenvalue to
    # cancellation there and tilts the normal far past this bound
    cloud = generate_scene(reference_scenes()[scene]).cloud
    params = RansacParams(seed=scene)
    here = ransac_plane(cloud, params)
    moved = ransac_plane(cloud.translated((1e6, -1e6, 1e3)), params)
    np.testing.assert_array_equal(moved.inlier_indices, here.inlier_indices)
    assert np.linalg.norm(np.cross(here.unit_normal, moved.unit_normal)) <= 1e-11


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 300),
       spread=st.sampled_from([1e-3, 1.0, 30.0]),
       offset=st.sampled_from([0.0, 1e2, 1e4, 1e6]),
       relative=st.sampled_from([1e-2, 1e-7]),
       duplicates=st.integers(0, 40),
       edge=st.sampled_from(["at", "ulp-below", "ulp-above", None]),
       best=st.integers(-1, 340))
def test_screen_gives_the_float64_vote_or_drops_a_candidate_that_cannot_win(
        seed, n, spread, offset, relative, duplicates, edge, best):
    # points within a few thresholds of a plane through a point up to 1e6 m
    # from the origin, some rows repeated; a threshold of 1e-7 of the spread
    # is below what float32 resolves on most planes drawn, so those cases
    # mostly vote in float64; with
    # ``edge`` the threshold is one point's float64 distance, or the
    # float64 next to it on either side, so that point sits exactly at t
    # or one ulp inside or outside
    rng = np.random.default_rng(seed)
    normal = rng.normal(size=3)
    normal /= np.linalg.norm(normal)
    u = np.cross(normal, rng.normal(size=3))
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    t = relative * spread
    ab = rng.uniform(-spread, spread, (n, 2))
    h = rng.uniform(-3 * t, 3 * t, n)
    xyz = (offset * rng.uniform(-1, 1, 3) + ab[:, :1] * u + ab[:, 1:] * v
           + h[:, None] * normal)
    xyz = np.vstack([xyz, xyz[rng.integers(0, n, duplicates)]])
    xt = np.ascontiguousarray(xyz.T)
    d = -float(normal @ xyz[0])
    dist = _plane_distances(xt, normal, d)
    if edge is not None:
        t = float(dist[rng.integers(0, len(dist))])
        t = {"at": t, "ulp-below": np.nextafter(t, np.inf),
             "ulp-above": np.nextafter(t, 0.0)}[edge]
        assume(t > 0.0)
    screen = _float32_screen(xt, t)
    inliers = _screened_inliers(xt, screen, normal, d, t, best)
    expected = dist <= t
    if inliers is None:
        event("dropped")
        assert np.count_nonzero(expected) <= best
    else:
        event("voted")
        np.testing.assert_array_equal(inliers, expected)


def test_screen_drops_most_candidates_without_a_float64_pass(monkeypatch):
    # the float32 screen is the fast path: on a 50k-point cloud most
    # candidates must end there, and the fit scores no candidate, and no
    # refitted plane, on all N points in float64; the diagnostics' one full
    # pass runs when they are first read
    rng = np.random.default_rng(18)
    cloud, _ = ground_plus_pile(rng, n_ground=40000, n_pile=10000)
    widths, outcomes = [], []

    def distances(xt, normal, d):
        widths.append(xt.shape[1])
        return _plane_distances(xt, normal, d)

    def screened(*args):
        inliers = _screened_inliers(*args)
        outcomes.append(inliers is None)
        return inliers

    monkeypatch.setattr(pose, "_plane_distances", distances)
    monkeypatch.setattr(pose, "_screened_inliers", screened)
    plane = ransac_plane(cloud, RansacParams(seed=4))
    assert len(outcomes) >= 10
    assert sum(outcomes) > len(outcomes) / 2
    assert widths.count(len(cloud)) == 0
    assert plane.inlier_indices.size > 30000
    assert plane.rms_residual > 0.0
    assert widths.count(len(cloud)) == 1


def eager_diagnostics(cloud, plane, t):
    """The inlier indices and RMS residual of ``plane`` at threshold ``t``,
    spelled out term for term as the fit's distance pass forms them."""
    x, y, z = (cloud.xyz[:, k] for k in range(3))
    dist = np.abs(((x * plane.a + y * plane.b) + z * plane.c) + plane.d)
    inliers = np.flatnonzero(dist <= t)
    rms = float(np.sqrt(np.mean(dist[inliers] ** 2))) if inliers.size else 0.0
    return inliers, rms


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 300),
       offset=st.sampled_from([0.0, 1e3, 1e6]),
       duplicates=st.integers(0, 40),
       edge=st.booleans())
def test_lazy_diagnostics_equal_an_eager_recomputation(seed, n, offset,
                                                       duplicates, edge):
    # a noisy plane through a point up to 1e6 m from the origin, as in UTM
    # coordinates, some rows repeated; with ``edge`` the threshold is one
    # point's distance from the plane, so that point sits exactly at t
    rng = np.random.default_rng(seed)
    normal = rng.normal(size=3)
    normal /= np.linalg.norm(normal)
    u = np.cross(normal, rng.normal(size=3))
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    ab = rng.uniform(-5.0, 5.0, (n, 2))
    h = rng.uniform(-0.03, 0.03, n)
    xyz = (offset * rng.uniform(-1, 1, 3) + ab[:, :1] * u + ab[:, 1:] * v
           + h[:, None] * normal)
    cloud = PointCloud(np.vstack([xyz, xyz[rng.integers(0, n, duplicates)]]))
    params = RansacParams(distance_threshold=0.01, seed=seed,
                          max_iterations=50, min_inlier_fraction=0.01)
    try:
        plane = ransac_plane(cloud, params)
    except DegenerateCloud:
        assume(False)
    t = params.distance_threshold
    if edge:
        # the same plane, fitted at the threshold one point's distance
        x, y, z = cloud.xyz[rng.integers(0, len(cloud))]
        t = float(abs(((x * plane.a + y * plane.b) + z * plane.c) + plane.d))
        assume(t > 0.0)
        plane = PlaneModel(plane.a, plane.b, plane.c, plane.d, plane.iterations,
                           cloud, t)
    inliers, rms = eager_diagnostics(cloud, plane, t)
    assert plane.rms_residual.hex() == rms.hex()
    assert plane.inlier_indices.dtype == inliers.dtype
    np.testing.assert_array_equal(plane.inlier_indices, inliers)
    if edge:
        assert plane.inlier_indices.size >= 1


def test_plane_model_equality_and_hash_ignore_the_diagnostics():
    rng = np.random.default_rng(19)
    cloud, _ = ground_plus_pile(rng, n_ground=600, n_pile=200)
    one = PlaneModel(0.0, 0.0, 1.0, 0.0, cloud=cloud, threshold=0.01)
    same = PlaneModel(0.0, 0.0, 1.0, 0.0, cloud=cloud, threshold=0.01)
    assert one == same
    assert hash(one) == hash(same)
    other = PlaneModel(0.0, 0.0, 1.0, 0.0, cloud=cloud.select(np.arange(3)),
                       threshold=0.5)
    assert one == other
    assert other.inlier_indices.size <= 3 < one.inlier_indices.size
    assert one == other and hash(one) == hash(other)
    assert one != PlaneModel(0.0, 0.0, 1.0, 0.0, iterations=2, cloud=cloud,
                             threshold=0.01)
    assert one != PlaneModel(0.0, 0.0, 1.0, 1.0, cloud=cloud, threshold=0.01)
    assert len({one, same}) == 1
    # a fitted plane equals the same plane built directly, read or unread
    fitted = ransac_plane(cloud, RansacParams(seed=1))
    direct = PlaneModel(fitted.a, fitted.b, fitted.c, fitted.d,
                        iterations=fitted.iterations)
    assert fitted == direct and hash(fitted) == hash(direct)
    assert fitted.inlier_indices.size > 0
    assert fitted == direct and hash(fitted) == hash(direct)


def pile_dominated_crop(ground_fraction, n=4000, seed=16):
    """An exact z = 0 ground holding ``ground_fraction`` of the points under
    a pile filling the crop from 0.1 m to 0.5 m."""
    rng = np.random.default_rng(seed)
    n_ground = round(ground_fraction * n)
    ground = np.column_stack([rng.uniform(-1, 1, (n_ground, 2)), np.zeros(n_ground)])
    pile = rng.uniform([-1, -1, 0.1], [1, 1, 0.5], (n - n_ground, 3))
    return PointCloud(np.vstack([ground, pile]))


def test_pile_dominated_crop_just_above_min_inlier_fraction_fits():
    params = RansacParams(seed=1)
    plane = ransac_plane(pile_dominated_crop(0.155), params)
    # w^3 ~ 0.0037 needs ~1900 draws: the loop runs to the cap
    assert plane.iterations == params.max_iterations
    np.testing.assert_allclose(plane.unit_normal, [0, 0, 1], atol=1e-9)
    assert abs(plane.d) < 1e-9
    assert plane.inlier_indices.size == 620


def test_pile_dominated_crop_just_below_min_inlier_fraction_names_the_knob():
    with pytest.raises(DegenerateCloud, match=r"\[ransac\] min_inlier_fraction 0\.15"):
        ransac_plane(pile_dominated_crop(0.145), RansacParams(seed=1))


# ---------------------------------------------------------------------------
# rotation_to_up
# ---------------------------------------------------------------------------

def test_rotation_identity_case():
    np.testing.assert_array_equal(rotation_to_up(np.array([0.0, 0.0, 1.0])),
                                  np.eye(3))


def test_rotation_x_axis_case():
    R = rotation_to_up(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(R @ [1, 0, 0], [0, 0, 1], atol=1e-12)
    # the 90-degree rotation about -Y (axis v x ez points along -Y)
    expected = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    np.testing.assert_allclose(R, expected, atol=1e-12)


def test_rotation_antiparallel_case():
    R = rotation_to_up(np.array([0.0, 0.0, -1.0]))
    np.testing.assert_allclose(R, np.diag([1.0, -1.0, -1.0]), atol=0)
    np.testing.assert_allclose(R @ [0, 0, -1], [0, 0, 1], atol=0)


def test_rotation_random_vectors_vs_quaternion_oracle():
    rng = np.random.default_rng(21)
    for _ in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        R = rotation_to_up(v)
        np.testing.assert_allclose(R @ v, [0, 0, 1], atol=1e-9)
        np.testing.assert_allclose(R, quaternion_rotation_to_up(v), atol=1e-9)
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(R) - 1.0) < 1e-9


def rotation_to_up_with_np_cross(v):
    """``rotation_to_up`` written with np.cross, np.linalg.norm and np.clip."""
    ez = np.array([0.0, 0.0, 1.0])
    axis = np.cross(v, ez)
    sin_theta = np.linalg.norm(axis)
    cos_theta = float(np.clip(v @ ez, -1.0, 1.0))
    if sin_theta < 1e-12:
        return np.eye(3) if cos_theta > 0 else np.diag([1.0, -1.0, -1.0])
    return rodrigues(axis / sin_theta, sin_theta, cos_theta)


def test_rotation_has_the_bytes_of_the_np_cross_form():
    rng = np.random.default_rng(22)
    unit = rng.normal(size=(10_000, 3))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    # +-ez with either sign of zero, and vectors within 1e-12 of +-ez on
    # both sides of the 1e-12 axis-length cut
    poles = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, -0.0, 1.0], [-0.0, 0.0, -1.0],
             [1e-12, 0.0, 1.0], [7e-13, -7e-13, 1.0], [-7.1e-13, 7.1e-13, -1.0],
             [0.0, -1e-12, -1.0], [5e-13, 0.0, 1.0],
             # signed zeros off the poles
             [0.6, -0.0, 0.8], [-0.6, 0.0, 0.8], [-0.0, 0.6, -0.8], [-1.0, -0.0, 0.0]]
    near = np.array([0.0, 0.0, 1.0]) + rng.uniform(-1e-12, 1e-12, size=(500, 3))
    for v in [*np.array(poles), *near, *-near, *unit]:
        assert rotation_to_up(v).tobytes() == rotation_to_up_with_np_cross(v).tobytes(), v


def test_rotation_rejects_non_unit():
    with pytest.raises(NotUnitVector):
        rotation_to_up(np.array([1.0, 1.0, 0.0]))


@pytest.mark.parametrize("call, error", [
    # |v| - 1 is NaN, which no bound test caught, so posture handed on a
    # NaN rotation and NaN coordinates
    (lambda: rotation_to_up(np.array([np.nan, 0.0, 1.0])), NotUnitVector),
    (lambda: rotation_to_up(np.full(3, np.nan)), NotUnitVector),
    (lambda: PlaneModel(np.nan, 0.0, 1.0, 0.0), InvalidParameter),
    (lambda: PlaneModel(0.0, 0.0, 1.0, np.inf), InvalidParameter),
    (lambda: PlaneModel(0.0, 0.0, 1.0, 0.0).inlier_indices, InvalidParameter),
    (lambda: PlaneModel(0.0, 0.0, 1.0, 0.0).rms_residual, InvalidParameter),
], ids=["nan-vector", "all-nan-vector", "nan-coefficient", "inf-offset",
        "cloudless-inliers", "cloudless-rms"])
def test_posture_rejects_non_finite_planes_and_cloudless_diagnostics(call, error):
    with pytest.raises(error):
        call()


# ---------------------------------------------------------------------------
# correct_posture
# ---------------------------------------------------------------------------

def test_correct_posture_identity_on_level_plane():
    rng = np.random.default_rng(2)
    xyz = np.column_stack([rng.uniform(-1, 1, 500), rng.uniform(-1, 1, 500),
                           np.zeros(500)])
    cloud = PointCloud(xyz)
    plane = PlaneModel(0.0, 0.0, 1.0, 0.0, cloud=cloud, threshold=0.01)
    out = correct_posture(cloud, plane)
    np.testing.assert_allclose(out.xyz, xyz, atol=1e-12)
    np.testing.assert_array_equal(plane.inlier_indices, np.arange(500))


def test_correct_posture_diagonal_plane_to_zero():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 800)
    y = rng.uniform(-1, 1, 800)
    cloud = PointCloud(np.column_stack([x, y, x]))
    plane = ransac_plane(cloud, RansacParams(seed=1))
    out = correct_posture(cloud, plane)
    assert np.abs(out.xyz[:, 2]).max() < 1e-9
    # oracle: analytic 45-degree rotation about Y maps (x, y, x) onto z = 0
    assert np.allclose(np.abs(out.xyz[:, 1]), np.abs(y), atol=1e-9)


def test_correct_posture_rigid_motion():
    rng = np.random.default_rng(4)
    cloud, _ = ground_plus_pile(rng, n_ground=400, n_pile=100)
    plane = ransac_plane(cloud, RansacParams(seed=2))
    out = correct_posture(cloud, plane)
    idx = rng.integers(0, len(cloud), size=(200, 2))
    before = np.linalg.norm(cloud.xyz[idx[:, 0]] - cloud.xyz[idx[:, 1]], axis=1)
    after = np.linalg.norm(out.xyz[idx[:, 0]] - out.xyz[idx[:, 1]], axis=1)
    keep = before > 1e-9
    assert np.max(np.abs(after[keep] / before[keep] - 1.0)) < 1e-9


def test_correct_posture_tilted_scene_refit():
    rng = np.random.default_rng(9)
    cloud, _ = ground_plus_pile(rng)
    # tilt by 10 degrees about X
    theta = np.radians(10.0)
    rot = np.array([[1, 0, 0],
                    [0, np.cos(theta), -np.sin(theta)],
                    [0, np.sin(theta), np.cos(theta)]])
    tilted = cloud.transformed(rot, offset=(0.1, -0.2, 0.4))
    params = RansacParams(seed=6)
    corrected = correct_posture(tilted, ransac_plane(tilted, params))
    refit = ransac_plane(corrected, params)
    angle = np.degrees(np.arccos(np.clip(refit.unit_normal @ [0, 0, 1], -1, 1)))
    assert angle < 0.1


def test_double_correction_is_nearly_idempotent():
    rng = np.random.default_rng(10)
    cloud, _ = ground_plus_pile(rng)
    params = RansacParams(seed=8)
    once = correct_posture(cloud, ransac_plane(cloud, params))
    twice = correct_posture(once, ransac_plane(once, params))
    dz = np.abs(twice.xyz[:, 2] - once.xyz[:, 2])
    assert dz.max() <= params.distance_threshold
