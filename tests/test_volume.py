"""Volume estimators against analytic shapes and geometric oracles."""

import math

import numpy as np
import pytest

from pilevol.cloud import PointCloud
from pilevol.errors import DegenerateCloud, DegenerateInput, InvalidParameter
from pilevol.volume import (
    GridSpec,
    column_volume_grid,
    column_volume_uniform,
    convex_hull_2d,
    footprint_area,
    hull3d_volume,
    slice_volume,
)
from test_cloud import numbering_path

CONE_R, CONE_H = 0.5, 0.6
CONE_VOLUME = math.pi * CONE_R ** 2 * CONE_H / 3.0   # 0.15707963...


def sampled_cone(n=100_000, seed=0, r=CONE_R, h=CONE_H):
    """Uniform-disk sampling of a cone's upper surface (heights over XY)."""
    rng = np.random.default_rng(seed)
    radius = r * np.sqrt(rng.uniform(0, 1, n))
    theta = rng.uniform(0, 2 * math.pi, n)
    x = radius * np.cos(theta)
    y = radius * np.sin(theta)
    z = h * (1 - radius / r)
    return PointCloud(np.column_stack([x, y, z]))


def gift_wrap_hull(points: np.ndarray) -> np.ndarray:
    """Gift-wrapping 2D hull oracle; assumes no fewer than 3 distinct points."""
    pts = np.unique(points, axis=0)
    start = min(range(len(pts)), key=lambda i: (pts[i][0], pts[i][1]))
    hull = [start]
    while True:
        cur = hull[-1]
        cand = 0 if cur != 0 else 1
        for j in range(len(pts)):
            if j == cur:
                continue
            cross = ((pts[cand][0] - pts[cur][0]) * (pts[j][1] - pts[cur][1])
                     - (pts[cand][1] - pts[cur][1]) * (pts[j][0] - pts[cur][0]))
            if cross < 0 or (cross == 0 and
                             np.linalg.norm(pts[j] - pts[cur])
                             > np.linalg.norm(pts[cand] - pts[cur])):
                cand = j
        if cand == start:
            break
        hull.append(cand)
        if len(hull) > len(pts):
            raise RuntimeError("gift wrap failed to close")
    return pts[hull]


def shoelace(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


# ---------------------------------------------------------------------------
# footprint_area and uniform columns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("estimate", [
    lambda cloud: column_volume_uniform(cloud, float("nan")),
    lambda cloud: column_volume_uniform(cloud, float("inf")),
    lambda cloud: footprint_area(float("nan"), 10),
    lambda cloud: footprint_area(float("inf"), 10),
    lambda cloud: slice_volume(cloud, float("nan")),
    lambda cloud: slice_volume(cloud, float("inf")),
], ids=["uniform-nan", "uniform-inf", "footprint-nan", "footprint-inf",
        "slice-nan", "slice-inf"])
def test_non_finite_parameters_are_rejected(estimate):
    # each would otherwise return a nan or inf volume or area
    with pytest.raises(InvalidParameter):
        estimate(sampled_cone(n=1000))


def test_footprint_area_examples():
    assert footprint_area(1.3, 1300) == pytest.approx(0.001)
    assert footprint_area(2.6, 1) == pytest.approx(2.6)
    assert footprint_area(5.2, 520_000) == pytest.approx(1e-5)
    with pytest.raises(InvalidParameter):
        footprint_area(0.0, 10)
    with pytest.raises(InvalidParameter):
        footprint_area(1.0, 0)


def test_uniform_columns_simple():
    cloud = PointCloud([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])
    est = column_volume_uniform(cloud, 0.5)
    assert est.volume == pytest.approx(2.0)
    assert est.method == "COLUMN_UNIFORM"


def test_uniform_columns_empty_cloud():
    assert column_volume_uniform(PointCloud.empty(), 1.0).volume == 0.0


def test_uniform_columns_cone_within_one_percent():
    cloud = sampled_cone()
    element = math.pi * CONE_R ** 2 / len(cloud)
    est = column_volume_uniform(cloud, element)
    assert abs(est.volume - CONE_VOLUME) / CONE_VOLUME < 0.01


def test_uniform_columns_linear_in_area_and_factor():
    cloud = sampled_cone(n=2000, seed=3)
    base = column_volume_uniform(cloud, 1e-4).volume
    assert column_volume_uniform(cloud, 3e-4).volume == pytest.approx(3 * base)


def test_uniform_columns_are_signed():
    cloud = PointCloud([[0, 0, 1.0], [0, 1, -0.4]])
    assert column_volume_uniform(cloud, 1.0).volume == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# grid columns
# ---------------------------------------------------------------------------

def test_grid_single_point():
    est = column_volume_grid(PointCloud([[0.1, 0.1, 2.0]]), GridSpec(cell_size=1.0))
    assert est.volume == pytest.approx(2.0)
    assert est.diagnostics["cell_count"] == 1


def test_grid_flat_slab_boundary_bound():
    rng = np.random.default_rng(1)
    n = 40_000
    xy = rng.uniform(0, 1, size=(n, 2))
    cloud = PointCloud(np.column_stack([xy, np.full(n, 0.3)]))
    cell = 0.05
    est = column_volume_grid(cloud, GridSpec(cell_size=cell))
    boundary_bound = 4 * cell * 0.3        # one ring of boundary cells
    assert abs(est.volume - 0.3) <= boundary_bound


def test_grid_cone_mean_within_three_percent():
    est = column_volume_grid(sampled_cone(), GridSpec(cell_size=0.02))
    assert abs(est.volume - CONE_VOLUME) / CONE_VOLUME < 0.03


def test_grid_empty_and_negative_clamp():
    assert column_volume_grid(PointCloud.empty()).volume == 0.0
    below = PointCloud([[0, 0, -1.0], [1, 1, 2.0]])
    est = column_volume_grid(below, GridSpec(cell_size=0.5))
    assert est.volume == pytest.approx(0.25 * 2.0)   # below-ground cell clamps to 0


def unique_rows_grid_reference(cloud, grid):
    """Grid volume and cell count through the row-wise ``np.unique(axis=0)``,
    with the cells' z sums by ``np.add.at``."""
    xyz = cloud.xyz
    origin = xyz[:, :2].min(axis=0)
    cells = np.floor((xyz[:, :2] - origin) / grid.cell_size).astype(np.int64)
    _, inverse = np.unique(cells, axis=0, return_inverse=True)
    n_cells = int(inverse.max()) + 1
    sums = np.zeros(n_cells)
    np.add.at(sums, inverse, xyz[:, 2])
    heights = sums / np.bincount(inverse, minlength=n_cells)
    return grid.cell_size ** 2 * float(np.maximum(heights, 0.0).sum()), n_cells


@pytest.mark.parametrize("far, paths", [
    (None, ["table"] * 4),
    ((1e6, 1e6, 0.4), ["sort"] * 4),
    ((2e9, 2e9, 0.4), ["unique", "unique", "unique", "sort"]),
    ((4e9, 4e9, 0.4), ["unique"] * 4),
], ids=["compact", "far-outlier", "key-fits", "key-overflows"])
def test_grid_matches_unique_rows_reference(far, paths):
    # rounded coordinates put many points on shared cells and cell faces;
    # at cell 1 an outlier at 2e9 keeps the cell key inside int64 and one at
    # 4e9 or (at cell 0.01) 2e9 does not.  ``paths`` names the numbering
    # path of each cell size: the compact footprint (N = 20,500, 4 N =
    # 82,000) spans at most 10,201 cells and takes the table, and an outlier
    # at 1e6 stretches every box past 4 N but inside int64
    rng = np.random.default_rng(11)
    xyz = np.round(rng.uniform([-0.5, -0.5, -0.1], [0.5, 0.5, 0.6], size=(20_000, 3)), 2)
    xyz = np.vstack([xyz, xyz[:500]])
    if far is not None:
        xyz = np.vstack([xyz[:7000], [far], xyz[7000:]])
    cloud = PointCloud(xyz)
    for size, path in zip((0.01, 0.025, 0.034, 1.0), paths):
        cells = np.floor((xyz[:, :2] - xyz[:, :2].min(axis=0)) / size).astype(np.int64)
        assert numbering_path(cells) == path
        grid = GridSpec(cell_size=size)
        est = column_volume_grid(cloud, grid)
        volume, n_cells = unique_rows_grid_reference(cloud, grid)
        assert est.volume.hex() == volume.hex()
        assert est.diagnostics["cell_count"] == n_cells


def test_grid_spec_validation():
    with pytest.raises(InvalidParameter):
        GridSpec(cell_size=0.0)
    with pytest.raises(InvalidParameter):
        GridSpec(cell_size=-0.1)
    with pytest.raises(InvalidParameter):
        GridSpec(cell_size=1e300)    # the cell area overflows to inf


def test_grid_rejects_a_cell_index_past_int64():
    # a 1 m footprint is 1e300 cells of 1e-300 m; an unchecked cast to int64
    # once made the grid read 0 m^3
    cloud = PointCloud([[0.0, 0.0, 0.5], [1.0, 1.0, 0.5]])
    with pytest.raises(InvalidParameter):
        column_volume_grid(cloud, GridSpec(1e-300))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_grid_spec_rejects_nan_inf_and_zero(bad):
    with pytest.raises(InvalidParameter):
        GridSpec(cell_size=bad)


@pytest.mark.parametrize("bad", [True, "0.025", None])
def test_grid_spec_rejects_a_bool_or_non_number_cell_size(bad):
    # cell_size = True ran as 1 m cells: s01 read 0.0857 m^3 against a truth
    # of 0.014; a string or None ended in a TypeError from the area check
    with pytest.raises(InvalidParameter, match="cell_size must be a number"):
        GridSpec(cell_size=bad)
    assert GridSpec(cell_size=np.float64(0.02)).cell_size == 0.02


# ---------------------------------------------------------------------------
# slice baseline
# ---------------------------------------------------------------------------

def sampled_cylinder(n=60_000, seed=4, r=0.5, h=1.0):
    rng = np.random.default_rng(seed)
    radius = r * np.sqrt(rng.uniform(0, 1, n))
    theta = rng.uniform(0, 2 * math.pi, n)
    z = rng.uniform(0, h, n)
    return PointCloud(np.column_stack([radius * np.cos(theta),
                                       radius * np.sin(theta), z]))


def test_slice_cylinder_within_three_percent():
    true = math.pi * 0.25
    est = slice_volume(sampled_cylinder(), 0.1)
    assert abs(est.volume - true) / true < 0.03


def test_slice_cone_single_slab_overestimates():
    cloud = sampled_cone(n=60_000)
    est = slice_volume(cloud, CONE_H)
    # single slab integrates the base hull over the full height: ~3x truth
    assert est.volume > 1.5 * CONE_VOLUME
    assert est.volume == pytest.approx(math.pi * CONE_R ** 2 * CONE_H, rel=0.05)


def test_slice_starved_layers_underestimate():
    cloud = sampled_cone(n=60_000)
    est = slice_volume(cloud, 1.2e-5)
    assert est.volume < 0.25 * CONE_VOLUME


def test_slice_bracket_property():
    # starved estimate < truth < single-slab estimate
    cloud = sampled_cone(n=60_000)
    low = slice_volume(cloud, 1.2e-5).volume
    high = slice_volume(cloud, CONE_H).volume
    assert low < CONE_VOLUME < high


def test_slice_two_points_zero():
    est = slice_volume(PointCloud([[0, 0, 0.1], [1, 1, 0.2]]), 0.1)
    assert est.volume == 0.0


def test_slice_invalid_interval():
    with pytest.raises(InvalidParameter):
        slice_volume(PointCloud.empty(), 0.0)


# ---------------------------------------------------------------------------
# 3D hull baseline
# ---------------------------------------------------------------------------

def test_hull3d_unit_cube():
    corners = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    est = hull3d_volume(PointCloud(corners))
    assert est.volume == pytest.approx(1.0)


def test_hull3d_tetrahedron():
    est = hull3d_volume(PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert est.volume == pytest.approx(1.0 / 6.0)


def test_hull3d_sphere_sample_and_containment():
    rng = np.random.default_rng(8)
    direction = rng.normal(size=(10_000, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    pts = direction * rng.uniform(0, 1, 10_000)[:, None] ** (1 / 3)
    est = hull3d_volume(PointCloud(pts))
    ball = 4 * math.pi / 3
    assert 0.95 * ball <= est.volume <= ball
    # Monte-Carlo containment oracle: hull volume over the bounding cube
    probe = rng.uniform(-1, 1, size=(20_000, 3))
    inside = np.linalg.norm(probe, axis=1) <= np.linalg.norm(pts, axis=1).max()
    mc = inside.mean() * 8.0
    assert abs(est.volume - mc) / mc < 0.08


def test_hull3d_vs_grid_on_convex_surface():
    cloud = sampled_cone()
    hull = hull3d_volume(cloud).volume
    grid = column_volume_grid(cloud, GridSpec(cell_size=0.02)).volume
    # the hull is the convex envelope: no lower than the rasterized columns,
    # within the boundary-ring slack of the grid
    ring = 2 * math.pi * CONE_R * 0.02 * CONE_H
    assert hull >= grid - ring


def test_hull3d_degenerate():
    with pytest.raises(DegenerateCloud):
        hull3d_volume(PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
    flat = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(DegenerateCloud):
        hull3d_volume(flat)


# ---------------------------------------------------------------------------
# 2D hull
# ---------------------------------------------------------------------------

def test_hull2d_unit_square():
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    poly, area = convex_hull_2d(square)
    assert area == pytest.approx(1.0)
    assert len(poly) == 4


def test_hull2d_interior_points_ignored():
    rng = np.random.default_rng(3)
    pts = np.vstack([[[0, 0], [1, 0], [1, 1], [0, 1]],
                     rng.uniform(0.1, 0.9, size=(50, 2))])
    _, area = convex_hull_2d(pts)
    assert area == pytest.approx(1.0)


def test_hull2d_ccw_orientation():
    rng = np.random.default_rng(5)
    poly, _ = convex_hull_2d(rng.uniform(size=(40, 2)))
    x, y = poly[:, 0], poly[:, 1]
    signed = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    assert signed > 0


def test_hull2d_matches_gift_wrap_exactly():
    rng = np.random.default_rng(7)
    for n in (5, 20, 80, 200):
        pts = rng.uniform(-1, 1, size=(n, 2))
        _, area = convex_hull_2d(pts)
        oracle = shoelace(gift_wrap_hull(pts))
        assert area == pytest.approx(oracle, abs=1e-12)


def test_hull2d_disk_area():
    rng = np.random.default_rng(9)
    radius = np.sqrt(rng.uniform(0, 1, 1000))
    theta = rng.uniform(0, 2 * math.pi, 1000)
    pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    _, area = convex_hull_2d(pts)
    assert 0.9 * math.pi <= area <= math.pi


def test_hull2d_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        convex_hull_2d([[0, 0], [1, 1]])
    with pytest.raises(DegenerateInput):
        convex_hull_2d([[0, 0], [1, 1], [2, 2], [3, 3]])
    with pytest.raises(DegenerateInput):
        convex_hull_2d([[0, 0], [0, 0], [0, 0]])
