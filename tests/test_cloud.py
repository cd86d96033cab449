"""Cloud container, pass-through filtering, voxel downsampling."""

import hashlib
import multiprocessing
import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from pilevol.cloud import (
    AxisRange,
    _CHUNK,
    PointCloud,
    cell_means,
    passthrough_filter,
    voxel_downsample,
)
from pilevol.errors import InvalidParameter, NonFiniteCoordinate
from pilevol.synth import dense_compression_scene, generate_scene


def test_cloud_count_and_order():
    pts = [[0, 0, 0], [1, 2, 3], [4, 5, 6]]
    cloud = PointCloud(pts)
    assert len(cloud) == 3
    assert cloud.xyz.tolist() == pts


def test_cloud_rejects_non_finite():
    with pytest.raises(NonFiniteCoordinate) as err:
        PointCloud([[0, 0, 0], [np.nan, 0, 0]])
    assert err.value.row == 1
    with pytest.raises(NonFiniteCoordinate):
        PointCloud([[np.inf, 0, 0]])


def test_cloud_immutable():
    cloud = PointCloud([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        cloud.xyz[0, 0] = 9.0


def test_cloud_leaves_the_callers_array_writable_and_apart():
    xyz = np.arange(12.0).reshape(4, 3)
    cloud = PointCloud(xyz)
    assert xyz.flags.writeable
    assert not np.shares_memory(xyz, cloud.xyz)
    xyz[1, 2] = -1.0
    assert cloud.xyz[1, 2] == 5.0


def test_passthrough_z_range():
    cloud = PointCloud([[0, 0, -1], [0, 0, 0], [0, 0, 2]])
    out = passthrough_filter(cloud, [AxisRange("Z", 0.0, np.inf)])
    assert out.xyz[:, 2].tolist() == [0.0, 2.0]


def test_passthrough_empty_ranges_is_identity():
    cloud = PointCloud(np.random.default_rng(0).uniform(size=(50, 3)))
    assert passthrough_filter(cloud, []) == cloud


def test_passthrough_kept_fraction_binomial():
    # X in [0, 0.5] on uniform unit-cube points keeps about half; 99% bounds
    rng = np.random.default_rng(42)
    n = 1000
    cloud = PointCloud(rng.uniform(size=(n, 3)))
    kept = passthrough_filter(cloud, [AxisRange("X", 0.0, 0.5)])
    sigma = np.sqrt(n * 0.25)
    assert abs(len(kept) - 0.5 * n) <= 2.58 * sigma


def test_passthrough_idempotent_and_union():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.uniform(-1, 1, size=(400, 3)))
    r1 = [AxisRange("X", -0.5, 0.5)]
    r2 = [AxisRange("Z", 0.0, 1.0)]
    once = passthrough_filter(cloud, r1)
    assert passthrough_filter(once, r1) == once
    assert passthrough_filter(passthrough_filter(cloud, r1), r2) == \
        passthrough_filter(cloud, r1 + r2)


def test_passthrough_bounds_inclusive():
    cloud = PointCloud([[0.5, 0, 0], [0.5000001, 0, 0]])
    out = passthrough_filter(cloud, [AxisRange("X", 0.0, 0.5)])
    assert len(out) == 1


def test_axis_range_validation():
    with pytest.raises(InvalidParameter):
        AxisRange("W", 0, 1)
    with pytest.raises(InvalidParameter):
        AxisRange("X", 2.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(True, 2), (0, False), ("0", 1), (0, "1"),
                                    (None, 1), (0, 1j), (np.bool_(False), 1)])
def test_axis_range_rejects_a_bool_or_non_real_bound(lo, hi):
    with pytest.raises(InvalidParameter):
        AxisRange("Z", lo, hi)


def test_axis_range_takes_numpy_bounds():
    assert AxisRange("Z", np.float32(0.5), np.int64(2)).hi == 2


@pytest.mark.parametrize("build", [
    lambda cloud: voxel_downsample(cloud, float("nan")),
    lambda cloud: voxel_downsample(cloud, float("inf")),
    lambda cloud: AxisRange("X", float("nan"), 1.0),
    lambda cloud: AxisRange("X", 0.0, float("nan")),
], ids=["voxel-nan", "voxel-inf", "range-lo-nan", "range-hi-nan"])
def test_non_finite_parameters_are_rejected(build):
    # a NaN or infinite voxel would collapse the cloud to one point, and a
    # NaN bound would filter every point out; +-inf stay open range ends
    cloud = PointCloud(np.random.default_rng(0).uniform(0, 1, (100, 3)))
    with pytest.raises(InvalidParameter):
        build(cloud)


def test_voxel_downsample_cube_centroid():
    corners = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    out = voxel_downsample(PointCloud(corners), 2.0)
    assert len(out) == 1
    np.testing.assert_allclose(out.xyz[0], [0.5, 0.5, 0.5])


def test_voxel_downsample_single_point_identity():
    cloud = PointCloud([[0.3, -0.2, 5.0]])
    for size in (0.01, 1.0, 100.0):
        assert voxel_downsample(cloud, size) == cloud


def test_voxel_downsample_centroid_containment():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.uniform(-1, 1, size=(2000, 3)))
    size = 0.3
    out = voxel_downsample(cloud, size)
    anchor = cloud.xyz.min(axis=0)
    src_cells = np.floor((cloud.xyz - anchor) / size).astype(int)
    out_cells = np.floor((out.xyz - anchor) / size).astype(int)
    src_set = {tuple(c) for c in src_cells}
    # each centroid lies inside an occupied source voxel
    for cell in out_cells:
        assert tuple(cell) in src_set
    assert len(out) == len(src_set) <= len(cloud)


def test_voxel_downsample_below_min_spacing_is_permutation():
    rng = np.random.default_rng(11)
    xyz = rng.uniform(size=(60, 3))
    dmin = np.inf
    for i in range(len(xyz)):
        d = np.linalg.norm(xyz - xyz[i], axis=1)
        d[i] = np.inf
        dmin = min(dmin, d.min())
    # cube diagonal below the min pairwise distance: no two points share a cell
    out = voxel_downsample(PointCloud(xyz), 0.99 * dmin / np.sqrt(3))
    assert len(out) == len(xyz)
    assert np.array_equal(np.sort(out.xyz, axis=0), np.sort(xyz, axis=0))


def test_voxel_downsample_compression_ratio_on_dense_pile():
    # dense pile surface at 1e5 pts/m^2; 0.02 m voxels land the point-count
    # ratio in the regime where accuracy is still expected to hold
    rng = np.random.default_rng(5)
    n = 100_000
    xy = rng.uniform(-0.5, 0.5, size=(n, 2))
    r = np.hypot(xy[:, 0], xy[:, 1])
    z = np.maximum(0.6 * (1 - r / 0.5), 0.0)
    cloud = PointCloud(np.column_stack([xy, z]) + rng.normal(0, 0.003, (n, 3)))
    out = voxel_downsample(cloud, 0.02)
    ratio = len(out) / len(cloud)
    assert 0.06 <= ratio <= 0.10


def unique_rows_cell_reference(coords, size, values):
    """``cell_means`` through the row-wise ``np.unique(axis=0)``: the means
    of ``values`` over the cells of ``coords``, summed in point order, in
    sorted cell order, and each cell's lowest row."""
    cells = np.floor((coords - coords.min(axis=0)) / size).astype(np.int64)
    _, first_idx, inverse = np.unique(cells, axis=0, return_index=True,
                                      return_inverse=True)
    sums = np.zeros((first_idx.shape[0], values.shape[1]))
    np.add.at(sums, inverse.reshape(-1), values)
    counts = np.bincount(inverse.reshape(-1), minlength=first_idx.shape[0])
    return sums / counts[:, None], first_idx


def unique_rows_voxel_reference(cloud, voxel_size):
    """Voxel centroids through the row-wise ``np.unique(axis=0)``, summed in
    point order and listed by each voxel's first point."""
    means, first_idx = unique_rows_cell_reference(cloud.xyz, voxel_size, cloud.xyz)
    return means[np.argsort(first_idx, kind="stable")]


def numbering_path(cells):
    """The path ``cell_means`` takes for the (N, k) ``cells``, worked out
    from the bound it documents: "table" when the product M of the per-axis
    extents (max + 1) is at most 4 N, "sort" for a larger M that fits int64,
    and "unique" when M overflows it."""
    span = 1
    for k in range(cells.shape[1]):
        span *= int(cells[:, k].max()) + 1
    if span > np.iinfo(np.int64).max:
        return "unique"
    return "table" if span <= 4 * len(cells) else "sort"


@pytest.mark.parametrize("far, paths", [
    (None, ["sort", "sort", "table", "table"]),
    ((1e6, 1e6, 1e6), ["unique", "unique", "unique", "sort"]),
    ((2e6, 2e6, 2e6), ["unique", "unique", "unique", "sort"]),
    ((3e6, 3e6, 3e6), ["unique"] * 4),
], ids=["compact", "far-outlier", "key-fits", "key-overflows"])
def test_voxel_downsample_matches_unique_rows_reference(far, paths):
    # rounded coordinates put many points on shared cells and cell faces;
    # at voxel 1 an outlier at 2e6 keeps the cell key inside int64 and one
    # at 3e6 or (at voxel 0.01) 1e6 does not.  ``paths`` names the numbering
    # path of each voxel size: in the compact cloud (N = 20,500, 4 N =
    # 82,000) 0.01 and 0.02 span 1,030,301 and 132,651 cells and sort, and
    # 0.034 and 1 span 27,000 and 8 cells and take the table
    rng = np.random.default_rng(8)
    xyz = np.round(rng.uniform(-0.5, 0.5, size=(20_000, 3)), 2)
    xyz = np.vstack([xyz, xyz[:500]])
    if far is not None:
        xyz = np.vstack([xyz[:7000], [far], xyz[7000:]])
    cloud = PointCloud(xyz)
    for size, path in zip((0.01, 0.02, 0.034, 1.0), paths):
        cells = np.floor((xyz - xyz.min(axis=0)) / size).astype(np.int64)
        assert numbering_path(cells) == path
        out = voxel_downsample(cloud, size).xyz
        assert out.tobytes() == unique_rows_voxel_reference(cloud, size).tobytes()


def voxel_case(shape, path):
    """A cloud of negative coordinates, rounded to 1 cm in [-3.5, -2.5] m,
    whose 0.05 m voxels take the numbering ``path``: the table for the
    compact cloud, a sort past a stray point 10 m off on every axis that
    varies, and the row-wise ``np.unique`` past one 1e9 m off.
    ``shape`` "flat" gives the y axis a single value; "one-point" is a
    single point, which only the table numbers."""
    if shape == "one-point":
        return np.array([[-3.21, -2.5, -7.0]])
    rng = np.random.default_rng(13)
    xyz = np.round(rng.uniform(-3.5, -2.5, size=(5_000, 3)), 2)
    if shape == "flat":
        xyz[:, 1] = -2.25
    offset = {"table": None, "sort": 10.0, "unique": 1e9}[path]
    if offset is not None:
        stray = xyz[0] + offset
        if shape == "flat":
            stray[1] = -2.25
        xyz = np.vstack([xyz[:2000], [stray], xyz[2000:]])
    return xyz


@pytest.mark.parametrize("shape, path", [
    ("negative", "table"), ("negative", "sort"), ("negative", "unique"),
    ("flat", "table"), ("flat", "sort"), ("flat", "unique"),
    ("one-point", "table"),
])
def test_voxel_downsample_edge_clouds_match_unique_rows_reference(shape, path):
    xyz = voxel_case(shape, path)
    cells = np.floor((xyz - xyz.min(axis=0)) / 0.05).astype(np.int64)
    assert numbering_path(cells) == path
    cloud = PointCloud(xyz)
    out = voxel_downsample(cloud, 0.05).xyz
    assert out.tobytes() == unique_rows_voxel_reference(cloud, 0.05).tobytes()
    assert out.flags.c_contiguous and not out.flags.writeable


def chunk_cloud(n, path):
    """An n-point cloud, rounded to 1 cm in [-0.5, 0.5] m, that puts points
    on both sides of the cell kernel's chunk edges (``_CHUNK`` rows): rows
    _CHUNK - 1 and _CHUNK repeat one row, and rows 1, _CHUNK + 1 and
    2 _CHUNK + 1 share one 0.05 m cell, in three chunks, where the cloud
    has those rows.  Its 0.05 m cells, as voxels and as xy columns, take
    the numbering ``path``: the table for the compact cloud, a sort past a
    stray point 100 m off, and the row-wise ``np.unique`` past one 1e9 m
    off."""
    rng = np.random.default_rng(n)
    xyz = np.round(rng.uniform(-0.5, 0.5, size=(n, 3)), 2)
    xyz[0] = -0.5
    if n > _CHUNK:
        xyz[_CHUNK] = xyz[_CHUNK - 1]
    members = [(0.02, 0.02, 0.02), (0.03, 0.02, 0.04), (0.02, 0.04, 0.03)]
    for row, member in zip(range(1, n, _CHUNK), members):
        xyz[row] = member
    offset = {"table": None, "sort": 100.0, "unique": 1e9}[path]
    if offset is not None:
        xyz[n // 2] += offset
    return xyz


@pytest.mark.parametrize("path", ["table", "sort", "unique"])
@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7],
                         ids=["chunk-less-1", "chunk", "chunk-plus-1", "3-chunks-plus-7"])
def test_cell_kernel_chunk_edges_match_unique_rows_reference(n, path):
    xyz = chunk_cloud(n, path)
    cells = np.floor((xyz - xyz.min(axis=0)) / 0.05).astype(np.int64)
    if n > 2 * _CHUNK:
        assert (cells[[_CHUNK + 1, 2 * _CHUNK + 1]] == cells[1]).all()
    cloud = PointCloud(xyz)
    # the voxels
    assert numbering_path(cells) == path
    out = voxel_downsample(cloud, 0.05).xyz
    assert out.tobytes() == unique_rows_voxel_reference(cloud, 0.05).tobytes()
    # the volume grid's xy columns, averaging z
    assert numbering_path(cells[:, :2]) == path
    means, first = cell_means(xyz[:, :2], 0.05, xyz[:, 2:])
    ref_means, ref_first = unique_rows_cell_reference(xyz[:, :2], 0.05, xyz[:, 2:])
    assert means.tobytes() == ref_means.tobytes()
    assert first.tolist() == ref_first.tolist()


@lru_cache(maxsize=None)
def voxel_band_cloud():
    """The first voxel-band benchmark capture at seed 1 (perfbench
    derive_seed(1, "voxel-band", 0)): 104,000 points, 2.5 MB."""
    return generate_scene(replace(dense_compression_scene(), seed=2816247519)).cloud


def test_voxel_downsample_peak_memory_stays_near_the_clouds_size():
    # the cell kernel works in chunks, so its transient arrays are the cell
    # keys (8 bytes a point), the table (8 bytes a cell of the bounding
    # box; 107,065 cells here) and chunk-sized buffers
    cloud = voxel_band_cloud()
    voxel_downsample(cloud, 0.034)
    tracemalloc.start()
    try:
        voxel_downsample(cloud, 0.034)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * cloud.xyz.nbytes


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_voxel_downsample_rejects_a_quotient_of_2_63_on_any_axis(axis):
    # each axis's largest quotient is checked on its own; an overflow on
    # any of them must be an InvalidParameter
    for top, fits in [(2.0 ** 63, False), (np.nextafter(2.0 ** 63, 0.0), True)]:
        xyz = np.zeros((2, 3))
        xyz[1, axis] = top
        if fits:
            assert len(voxel_downsample(PointCloud(xyz), 1.0)) == 2
        else:
            with pytest.raises(InvalidParameter):
                voxel_downsample(PointCloud(xyz), 1.0)


def _voxel_digest_into(conn, xyz, size):
    conn.send(hashlib.sha256(voxel_downsample(PointCloud(xyz), size)
                             .xyz.tobytes()).hexdigest())
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_voxel_downsample_runs_in_a_forked_child():
    # the voxel pass runs on the calling thread alone, so a child forked
    # after the parent's pass runs it too and gives the parent's bytes
    cloud = PointCloud(voxel_case("negative", "table"))
    expected = unique_rows_voxel_reference(cloud, 0.05).tobytes()
    assert voxel_downsample(cloud, 0.05).xyz.tobytes() == expected
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_voxel_digest_into, args=(send, cloud.xyz, 0.05))
    child.start()
    try:
        assert recv.poll(60), "the forked child's voxel pass did not return"
        assert recv.recv() == hashlib.sha256(expected).hexdigest()
        child.join(60)
        assert child.exitcode == 0, "the forked child did not exit cleanly"
    finally:
        if child.is_alive():
            child.kill()
        child.join()


def test_voxel_downsample_from_two_threads_matches_the_reference():
    # each call keeps its chunk buffers to itself; with a short switch
    # interval two callers interleave finely between numpy calls
    clouds = [PointCloud(voxel_case("negative", path)) for path in ("table", "sort")]
    expected = [unique_rows_voxel_reference(c, 0.05).tobytes() for c in clouds]
    results = [[], []]

    def run(k):
        for _ in range(20):
            results[k].append(voxel_downsample(clouds[k], 0.05).xyz.tobytes())

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[expected[0]] * 20, [expected[1]] * 20]


def test_voxel_downsample_golden():
    # the benchmark's voxel-band capture at its voxel; 104,000 points span
    # 107,065 cells, so the table numbers them.  The hash was taken from
    # the version that numbered cells by sorting their keys
    cloud = voxel_band_cloud()
    cells = np.floor((cloud.xyz - cloud.xyz.min(axis=0)) / 0.034).astype(np.int64)
    assert numbering_path(cells) == "table"
    out = voxel_downsample(cloud, 0.034)
    assert (len(cloud), len(out)) == (104_000, 8143)
    assert (hashlib.sha256(out.xyz.tobytes()).hexdigest()
            == "31b7d993752136e868a1645bef77ef6612859f9e6a976234299d014528bb0463")


def test_voxel_downsample_cell_key_does_not_wrap():
    # cell extents 274177 x 67280421310721 x 1 multiply to 2**64 + 1, so a
    # wrapped int64 cell key would put the far cell on the origin cell's key
    cloud = PointCloud([[0.0, 0.0, 0.0], [274176.0, 67280421310720.0, 0.0],
                        [0.5, 0.5, 0.0]])
    out = voxel_downsample(cloud, 1.0)
    np.testing.assert_array_equal(
        out.xyz, [[0.25, 0.25, 0.0], [274176.0, 67280421310720.0, 0.0]])
    assert out.xyz.tobytes() == unique_rows_voxel_reference(cloud, 1.0).tobytes()


def test_voxel_downsample_rejects_a_voxel_index_past_int64():
    # a 1 m extent is 1e300 voxels of 1e-300 m; an unchecked cast to int64
    # once ended the pipeline in an IndexError
    cloud = PointCloud([[0.0, 0.0, 0.0], [1.0, 0.5, 0.25]])
    with pytest.raises(InvalidParameter):
        voxel_downsample(cloud, 1e-300)


def test_cell_means_index_stays_below_2_63():
    below = np.nextafter(2.0 ** 63, 0.0)    # the largest float under 2**63
    coords = np.array([[0.0, 0.0], [below, 1.0]])
    means, first = cell_means(coords, 1.0, coords)
    np.testing.assert_array_equal(means, coords)
    assert first.tolist() == [0, 1]
    for coords in ([[0.0, 0.0], [2.0 ** 63, 1.0]], [[-1e308, 0.0], [1e308, 1.0]]):
        with pytest.raises(InvalidParameter):
            cell_means(np.array(coords), 1.0, np.zeros((2, 1)))


def assert_cell_numbers(rows):
    """``cell_means`` over integer cells of side 1 against a dict oracle:
    the cells come in sorted order, each with its lowest row, and each
    averages its own rows, here their coordinates and their indices."""
    coords = np.array(rows, dtype=np.float64)
    index = np.arange(len(rows), dtype=np.float64)[:, None]
    means, first = cell_means(coords, 1.0, np.hstack([coords, index]))
    members: dict = {}
    for i, row in enumerate(rows):
        members.setdefault(row, []).append(i)
    cells = sorted(members)
    assert first.tolist() == [members[cell][0] for cell in cells]
    assert means[:, :3].tolist() == [list(cell) for cell in cells]
    assert means[:, 3].tolist() == [sum(members[cell]) / len(members[cell])
                                    for cell in cells]


@st.composite
def cell_rows(draw):
    top = draw(st.sampled_from([1, 3]))
    return draw(st.lists(st.tuples(*[st.integers(0, top)] * 3), min_size=1,
                         max_size=40))


@settings(max_examples=200, deadline=None)
@given(rows=cell_rows(),
       far=st.one_of(st.none(), st.sampled_from([2**20, 2**30, 2**31, 2**62])),
       at=st.integers(0, 40))
def test_first_occurrence_cells_match_dict_oracle(rows, far, at):
    # without a far row, M (at most 8 or 64) against 4 N (4 to 160) falls
    # on either side of the table bound; a row (far, 1, far) takes M to
    # about 2**42 or 2**61..2**62, which sorts (far = 2**20, 2**30), or to
    # 2**63 and beyond, which overflows int64 (far = 2**31, 2**62)
    if far is not None:
        rows.insert(at % (len(rows) + 1), (far, 1, far))
    cells = np.array(rows)
    event(numbering_path(cells - cells.min(axis=0)))
    assert_cell_numbers(rows)


@pytest.mark.parametrize("rows, path", [
    # one cell, M = 1
    ([(0, 0, 0)] * 3, "table"),
    # M = 2 * 2 * 3 = 12 <= 4 N = 24, with each cell seen again later
    ([(1, 0, 2), (0, 0, 0), (1, 1, 1), (0, 0, 0), (1, 1, 1), (1, 0, 2)], "table"),
    # M = 12 = 4 N: the table at its bound
    ([(1, 1, 2), (0, 0, 0), (1, 1, 2)], "table"),
    # M = 13 > 4 N = 12: one cell past the bound sorts
    ([(0, 0, 12), (0, 0, 0), (0, 0, 12)], "sort"),
    # a far row takes M to about 2**41, inside int64
    ([(1, 0, 2), (2**20, 1, 2**20), (0, 0, 0), (1, 0, 2)], "sort"),
    # M beyond int64: the row-wise np.unique
    ([(1, 0, 2), (2**31, 1, 2**31), (0, 0, 0), (1, 0, 2)], "unique"),
], ids=["one-cell", "table", "table-at-bound", "sort-past-bound", "sort-far-row",
        "unique-overflow"])
def test_first_occurrence_cells_on_each_path(rows, path):
    # wherever there are two cells, the rows are out of sorted order and the
    # first cell is seen again after a later one, so numbering cells as they
    # occur, or giving a cell its last row, would fail the case
    assert numbering_path(np.array(rows)) == path
    assert_cell_numbers(rows)


def test_voxel_downsample_invalid_size():
    with pytest.raises(InvalidParameter):
        voxel_downsample(PointCloud([[0, 0, 0]]), 0.0)
