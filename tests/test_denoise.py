"""Gap trimming, radius filtering and clustering against brute-force
oracles."""

import hashlib
import multiprocessing
import os
import sys
import threading
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from pilevol._hdbscan import (
    core_distances,
    mutual_reachability_mst,
    run_hdbscan,
    single_linkage,
)
from pilevol.cloud import PointCloud, voxel_downsample
from pilevol.denoise import (
    HdbscanParams,
    RadiusFilterParams,
    _forest,
    _labels,
    _radius_graph,
    gap_trim,
    hdbscan,
    largest_cluster,
    radius_outlier_filter,
    robust_filter,
)
from pilevol.errors import InvalidParameter, LabelMismatch, PilevolError
from pilevol import _hdbscan, denoise, pipeline
from pilevol.pipeline import (
    PipelineConfig,
    run_pipeline,
    run_report_csv,
)
from pilevol.synth import (
    dense_compression_scene,
    generate_scene,
    reference_scenes,
    walker_clutter,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def brute_neighbor_counts(xyz: np.ndarray, r0: float) -> np.ndarray:
    """Quadratic-loop neighbor counting, the reference the filter must match."""
    n = len(xyz)
    counts = np.zeros(n, dtype=int)
    for i in range(n):
        d = np.linalg.norm(xyz - xyz[i], axis=1)
        counts[i] = int(np.count_nonzero(d <= r0)) - 1
    return counts


def brute_components(xyz: np.ndarray, r0: float) -> np.ndarray:
    """Union-find over every pair within r0; each point is labelled with
    the lowest index of its component."""
    parent = list(range(len(xyz)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(xyz)):
        d = np.linalg.norm(xyz[i + 1:] - xyz[i], axis=1)
        for j in np.flatnonzero(d <= r0) + i + 1:
            a, b = root(i), root(int(j))
            parent[max(a, b)] = min(a, b)
    return np.array([root(i) for i in range(len(xyz))])


def brute_largest_component(xyz: np.ndarray, r0: float, n_min: int,
                            min_cluster_size: int) -> np.ndarray:
    """Rows of the brute radius survivors' largest r0 component; empty when
    no component reaches min_cluster_size."""
    surv = xyz[brute_neighbor_counts(xyz, r0) >= n_min]
    if len(surv) == 0:
        return surv
    comp = brute_components(surv, r0)
    ids, sizes = np.unique(comp, return_counts=True)
    if sizes.max() < min_cluster_size:
        return surv[:0]
    return surv[comp == ids[np.argmax(sizes)]]   # ties: earliest point


def brute_mreach_matrix(xyz: np.ndarray, k: int) -> np.ndarray:
    """Dense mutual reachability distances from exhaustive pair distances."""
    n = len(xyz)
    d = np.linalg.norm(xyz[:, None, :] - xyz[None, :, :], axis=2)
    dd = d + np.diag(np.full(n, np.inf))
    core = np.sort(dd, axis=1)[:, min(k, n - 1) - 1]
    mr = np.maximum(d, np.maximum(core[:, None], core[None, :]))
    np.fill_diagonal(mr, 0.0)
    return mr


def prim_total_weight(weights: np.ndarray) -> float:
    """Textbook Prim on an explicit weight matrix."""
    n = len(weights)
    in_tree = np.zeros(n, dtype=bool)
    best = weights[0].copy()
    in_tree[0] = True
    total = 0.0
    for _ in range(n - 1):
        best_masked = np.where(in_tree, np.inf, best)
        nxt = int(np.argmin(best_masked))
        total += best_masked[nxt]
        in_tree[nxt] = True
        best = np.minimum(best, weights[nxt])
    return total


def dense_prim_mst(xyz: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Prim with each mutual-reachability row computed on the fly: the
    exact MST in O(n) memory, as (i, j, weight) rows like
    ``mutual_reachability_mst``.  Ties go to the lowest point index."""
    n = len(xyz)
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    best_from = np.zeros(n, dtype=np.int64)
    edges = np.empty((n - 1, 3))
    current = 0
    in_tree[0] = True
    for step in range(n - 1):
        d = np.linalg.norm(xyz - xyz[current], axis=1)
        mr = np.maximum(np.maximum(d, core), core[current])
        update = (mr < best) & ~in_tree
        best[update] = mr[update]
        best_from[update] = current
        nxt = int(np.argmin(np.where(in_tree, np.inf, best)))
        edges[step] = (best_from[nxt], nxt, best[nxt])
        in_tree[nxt] = True
        current = nxt
    return edges


# ---------------------------------------------------------------------------
# radius outlier filter
# ---------------------------------------------------------------------------

def test_radius_filter_collinear_points_kept():
    cloud = PointCloud([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    out = radius_outlier_filter(cloud, RadiusFilterParams(r0=1.5, n_min=1))
    assert out == cloud


def test_radius_filter_removes_far_point():
    cloud = PointCloud([[0, 0, 0], [1, 0, 0], [2, 0, 0], [100, 0, 0]])
    out = radius_outlier_filter(cloud, RadiusFilterParams(r0=1.5, n_min=1))
    assert len(out) == 3
    assert out.xyz[:, 0].max() == 2.0


def test_radius_filter_matches_brute_force_exactly():
    rng = np.random.default_rng(13)
    blob = rng.normal(0, 0.1, size=(5000, 3))
    outliers = rng.uniform(-5, 5, size=(50, 3))
    xyz = np.vstack([blob, outliers])
    params = RadiusFilterParams(r0=0.03, n_min=5)
    counts = brute_neighbor_counts(xyz, params.r0)
    expected = xyz[counts >= params.n_min]
    out = radius_outlier_filter(PointCloud(xyz), params)
    np.testing.assert_array_equal(out.xyz, expected)


def test_radius_filter_brute_equivalence_edge_cases():
    rng = np.random.default_rng(29)
    base = rng.uniform(-1, 1, size=(300, 3))
    xyz = np.vstack([base, base[:10]])          # exact duplicates
    for r0, n_min in [(0.2, 0), (0.2, 3), (1e-9, 1), (5.0, 200)]:
        counts = brute_neighbor_counts(xyz, r0)
        out = radius_outlier_filter(PointCloud(xyz), RadiusFilterParams(r0, n_min))
        np.testing.assert_array_equal(out.xyz, xyz[counts >= n_min])


def test_radius_filter_keeps_pair_at_rounded_r0():
    # the pair is 0.04999999999999999 apart, but its coordinates sit two
    # r0-sized cells apart when measured from the cloud minimum
    xyz = np.array([[0.0, -3.98, 0.0], [0.0, -0.18, 0.0], [0.0, -0.13, 0.0]])
    counts = brute_neighbor_counts(xyz, 0.05)
    np.testing.assert_array_equal(counts, [0, 1, 1])
    out = radius_outlier_filter(PointCloud(xyz), RadiusFilterParams(0.05, 1))
    np.testing.assert_array_equal(out.xyz, xyz[1:])


def test_radius_filter_subset_and_order():
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.normal(size=(500, 3)))
    out = radius_outlier_filter(cloud, RadiusFilterParams(r0=0.4, n_min=2))
    # survivors appear in their original relative order
    kept_rows = {tuple(p) for p in out.xyz}
    original_order = [tuple(p) for p in cloud.xyz if tuple(p) in kept_rows]
    assert [tuple(p) for p in out.xyz] == original_order


def test_radius_params_validation():
    with pytest.raises(InvalidParameter):
        RadiusFilterParams(r0=0.0)
    with pytest.raises(InvalidParameter):
        RadiusFilterParams(r0=1.0, n_min=-1)
    with pytest.raises(InvalidParameter):
        RadiusFilterParams(r0=1.0, min_cluster_size=1)
    # a fractional or bool count would run the pipeline as if it were one
    for field in ("n_min", "min_cluster_size"):
        for bad in (50.5, 4.0, True, "4"):
            with pytest.raises(InvalidParameter, match=field):
                RadiusFilterParams(**{field: bad})
    assert RadiusFilterParams(n_min=np.int64(3)).n_min == 3


@pytest.mark.parametrize("bad", [True, "0.025", None])
def test_radius_params_reject_a_bool_or_non_number_radius(bad):
    # r0 = True ran as a 1 m radius: s01 read 0.0301 m^3 against a truth of
    # 0.014; a string or None ended in a TypeError from the range check
    with pytest.raises(InvalidParameter, match="r0 must be a number"):
        RadiusFilterParams(r0=bad)
    assert RadiusFilterParams(r0=np.float32(0.03)).r0 == np.float32(0.03)


@pytest.mark.parametrize("field, bad", [
    ("min_samples", 2.5), ("min_samples", True), ("min_cluster_size", 20.0),
    ("min_cluster_size", "50"),
])
def test_hdbscan_params_reject_counts_that_are_not_integers(field, bad):
    # a fractional min_samples failed only inside core_distances, with
    # numpy's IndexError
    with pytest.raises(InvalidParameter, match=field):
        HdbscanParams(**{"min_cluster_size": 20, field: bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_radius_params_reject_nan_inf_and_zero(bad):
    # r0 = inf would list every pair; only construction is tried
    with pytest.raises(InvalidParameter):
        RadiusFilterParams(r0=bad)


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def test_hdbscan_two_blobs_exact_sizes():
    rng = np.random.default_rng(3)
    a = rng.normal(0, 0.05, size=(500, 3))
    b = rng.normal(0, 0.05, size=(300, 3)) + [10, 0, 0]
    cloud = PointCloud(np.vstack([a, b]))
    labels = hdbscan(cloud, HdbscanParams(min_cluster_size=20, min_samples=10))
    assert labels.cluster_count == 2
    assert sorted(labels.cluster_sizes().tolist()) == [300, 500]
    assert int((labels.labels < 0).sum()) == 0
    # single-linkage oracle: cutting the dense mutual-reachability tree at a
    # threshold between intra- and inter-blob scales gives the same partition
    mr = brute_mreach_matrix(cloud.xyz, 10)
    intra = max(mr[:500, :500].max(), mr[500:, 500:].max())
    inter = mr[:500, 500:].min()
    assert intra < inter
    first = labels.labels[0]
    assert (labels.labels[:500] == first).all()
    assert (labels.labels[500:] == labels.labels[500]).all()
    assert labels.labels[500] != first


def test_hdbscan_too_few_points_all_noise():
    cloud = PointCloud(np.random.default_rng(0).normal(size=(5, 3)))
    labels = hdbscan(cloud, HdbscanParams(min_cluster_size=10, min_samples=2))
    assert labels.cluster_count == 0
    assert (labels.labels == -1).all()


def test_hdbscan_single_blob_one_cluster():
    cloud = PointCloud(np.random.default_rng(8).normal(0, 0.02, size=(100, 3)))
    labels = hdbscan(cloud, HdbscanParams(min_cluster_size=20, min_samples=5))
    assert labels.cluster_count == 1
    assert (labels.labels == 0).all()


def test_hdbscan_permutation_covariant():
    rng = np.random.default_rng(17)
    xyz = np.vstack([
        rng.normal(0, 0.05, size=(120, 3)),
        rng.normal(0, 0.08, size=(90, 3)) + [5, 0, 0],
        rng.uniform(-20, 20, size=(15, 3)),
    ])
    params = HdbscanParams(min_cluster_size=15, min_samples=5)
    base = hdbscan(PointCloud(xyz), params)
    perm = rng.permutation(len(xyz))
    permuted = hdbscan(PointCloud(xyz[perm]), params)

    def canonical(labels, order):
        # relabel cluster ids by first appearance along the original order
        out = np.full(len(order), -1, dtype=int)
        mapping = {}
        for pos, orig in enumerate(order):
            lbl = labels[pos]
            if lbl >= 0 and lbl not in mapping:
                mapping[lbl] = len(mapping)
        for pos, orig in enumerate(order):
            lbl = labels[pos]
            out[orig] = mapping[lbl] if lbl >= 0 else -1
        return out

    a = canonical(base.labels, np.arange(len(xyz)))
    b = canonical(permuted.labels, perm)
    # same partition up to renaming: compare co-membership on a sample
    assert (a >= 0).sum() == (b >= 0).sum()
    idx = rng.integers(0, len(xyz), size=(300, 2))
    same_a = (a[idx[:, 0]] == a[idx[:, 1]]) & (a[idx[:, 0]] >= 0)
    same_b = (b[idx[:, 0]] == b[idx[:, 1]]) & (b[idx[:, 0]] >= 0)
    np.testing.assert_array_equal(same_a, same_b)


def test_mst_weight_matches_dense_prim_oracle():
    rng = np.random.default_rng(23)
    xyz = np.vstack([
        rng.normal(0, 0.3, size=(900, 3)),
        rng.normal(0, 0.2, size=(700, 3)) + [4, 0, 0],
        rng.uniform(-8, 8, size=(400, 3)),
    ])
    k = 7
    mr = brute_mreach_matrix(xyz, k)
    oracle = prim_total_weight(mr)
    core = core_distances(xyz, k)
    mst = mutual_reachability_mst(xyz, core)
    assert mst.shape == (len(xyz) - 1, 3)
    assert abs(mst[:, 2].sum() - oracle) < 1e-9


def test_mst_weight_matches_dense_prim_at_5000_points():
    # too many points for the explicit matrix; Prim's rows on the fly fit
    rng = np.random.default_rng(31)
    xyz = np.vstack([
        rng.normal(0, 0.5, size=(2500, 3)),
        rng.normal(0, 0.4, size=(2000, 3)) + [6, 0, 0],
        rng.uniform(-10, 10, size=(500, 3)),
    ])
    assert len(xyz) == 5000
    core = core_distances(xyz, 10)
    dense = dense_prim_mst(xyz, core)
    boruvka = mutual_reachability_mst(xyz, core)
    assert abs(dense[:, 2].sum() - boruvka[:, 2].sum()) < 1e-9


def test_boruvka_labels_golden_with_duplicate_ties():
    # exact duplicates give zero-distance pairs, so many mutual-reachability
    # weights tie at a core distance and tie-breaking decides merge order
    rng = np.random.default_rng(2407)
    xyz = np.vstack([
        rng.normal(0, 0.25, size=(3000, 3)),
        rng.normal(0, 0.2, size=(2000, 3)) + [1.5, 0, 0],
        rng.uniform(-3, 3, size=(600, 3)),
    ])
    xyz = np.vstack([xyz, xyz[::7]])
    assert len(xyz) > 5000
    labels = run_hdbscan(xyz, HdbscanParams(min_cluster_size=50, min_samples=10))
    assert labels.cluster_count == 2
    assert (hashlib.sha256(labels.labels.tobytes()).hexdigest()
            == "a7ab8d29934d3ea84055799c708ea26fd89d025a7f274c6af8afd0199c8ac38d")
    # labels absorb most MST tie changes, so the Boruvka edges, their
    # orientation and their merge order are pinned as well
    mst = mutual_reachability_mst(xyz, core_distances(xyz, 10))
    assert (hashlib.sha256(mst.tobytes()).hexdigest()
            == "a8a018d7acfdff0a0efdf082772132c7bfbc90766eb43a17f72313f29335087d")
    # and so is the merge hierarchy built on those edges: left, right,
    # height and node size, in that order
    digest = hashlib.sha256()
    for array in single_linkage(mst, len(xyz)):
        digest.update(array.tobytes())
    assert (digest.hexdigest()
            == "44c6a80e8a1946d35cb973a1db30fa21d012cf22359b36ba75605c2e71bb2467")


def test_boruvka_without_progress_raises_typed_error():
    xyz = np.random.default_rng(0).uniform(size=(6000, 3))
    core = np.full(len(xyz), np.nan)
    with pytest.raises(PilevolError), np.errstate(invalid="ignore"):
        mutual_reachability_mst(xyz, core)


def _lattice_with_duplicates() -> np.ndarray:
    """400 points on a 10 cm lattice, some repeated up to three times: the
    self entry can fall out of a kNN query and many distances tie."""
    base = np.round(np.random.default_rng(77).uniform(0, 1, size=(400, 3)), 1)
    return np.vstack([base, base[::2], base[::5]])


def test_boruvka_labels_match_dense_prim_on_voxel_thinned_cloud_with_ties(
        monkeypatch):
    # on a voxel-thinned capture under 5000 points, with exact duplicates,
    # the chain must label as it does on dense Prim's MST
    scene = generate_scene(reference_scenes()[0])
    xyz = voxel_downsample(scene.cloud, 0.03).xyz
    xyz = np.vstack([xyz, xyz[::6]])
    assert 2000 < len(xyz) <= 5000
    params = HdbscanParams(min_cluster_size=50, min_samples=10)
    boruvka = run_hdbscan(xyz, params)
    monkeypatch.setattr(_hdbscan, "mutual_reachability_mst", dense_prim_mst)
    dense = run_hdbscan(xyz, params)
    assert boruvka.cluster_count == dense.cluster_count >= 1
    np.testing.assert_array_equal(boruvka.labels, dense.labels)


def test_largest_cluster_selection_and_ties():
    xyz = np.zeros((80, 3))
    labels_arr = np.array([0] * 40 + [1] * 40)
    from pilevol._hdbscan import ClusterLabels
    cloud = PointCloud(xyz)
    out = largest_cluster(cloud, ClusterLabels(labels=labels_arr, cluster_count=2))
    assert len(out) == 40
    # tie broken toward cluster 0: first 40 rows selected
    np.testing.assert_array_equal(out.xyz, xyz[:40])

    bigger = np.array([1] * 30 + [0] * 50)
    out2 = largest_cluster(cloud, ClusterLabels(labels=bigger, cluster_count=2))
    assert len(out2) == 50


def test_largest_cluster_all_noise_empty():
    from pilevol._hdbscan import ClusterLabels
    cloud = PointCloud(np.zeros((5, 3)))
    out = largest_cluster(cloud, ClusterLabels(labels=np.full(5, -1), cluster_count=0))
    assert len(out) == 0


def test_largest_cluster_label_mismatch():
    from pilevol._hdbscan import ClusterLabels
    with pytest.raises(LabelMismatch):
        largest_cluster(PointCloud(np.zeros((3, 3))),
                        ClusterLabels(labels=np.zeros(5, dtype=int), cluster_count=1))


def test_robust_filter_composes_the_stages():
    rng = np.random.default_rng(41)
    pile = rng.normal(0, 0.08, size=(2000, 3))
    clutter = rng.normal(0, 0.05, size=(400, 3)) + [3, 0, 0]
    sparse = rng.uniform(-10, 10, size=(60, 3))
    cloud = PointCloud(np.vstack([pile, clutter, sparse]))
    rparams = RadiusFilterParams(r0=0.05, n_min=3, min_cluster_size=50)
    hparams = HdbscanParams(min_cluster_size=50, min_samples=8)

    # HDBSCAN oracle composition: brute radius filter, cluster, largest
    counts = brute_neighbor_counts(cloud.xyz, rparams.r0)
    surv = PointCloud(cloud.xyz[counts >= rparams.n_min])
    outputs = {
        # the paper's chain, composed from the library
        "hdbscan": (hdbscan_chain(cloud, rparams, hparams),
                    largest_cluster(surv, hdbscan(surv, hparams))),
        # union-find over every survivor pair within r0
        "components": (robust_filter(cloud, rparams),
                       PointCloud(brute_largest_component(
                           cloud.xyz, rparams.r0, rparams.n_min,
                           rparams.min_cluster_size))),
    }
    for name, (out, expected) in outputs.items():
        assert out == expected, name
        # only the dominant blob remains
        assert len(out) > 1800
        assert np.linalg.norm(out.xyz.mean(axis=0)) < 0.05


def test_robust_filter_components_match_union_find_with_ties():
    # a rounded lattice with repeated points: many pairs sit exactly at r0
    # or at distance 0, and several components compete; a shifted copy in
    # front of it ties every component, so the earliest point must win
    xyz = _lattice_with_duplicates()
    for cloud in (xyz, np.vstack([xyz + [5.0, 0.0, 0.0], xyz])):
        for r0, n_min, min_size in [(0.1, 2, 5), (0.1, 0, 40), (0.15, 4, 2),
                                    (0.1, 30, 2)]:
            out = robust_filter(PointCloud(cloud),
                                RadiusFilterParams(r0, n_min, min_size))
            expected = brute_largest_component(cloud, r0, n_min, min_size)
            np.testing.assert_array_equal(out.xyz, expected)


def test_forest_roots_and_labels_follow_lowest_index():
    # components {0, 2}, {1, 3, 4}, {5}: each is rooted at its lowest
    # point index, and cluster ids follow that index
    pairs = np.array([[0, 2], [1, 3], [3, 4]])
    root = _forest(np.arange(6), pairs[:, 0], pairs[:, 1])
    np.testing.assert_array_equal(root, [0, 1, 0, 1, 1, 5])
    labels = _labels(root, min_cluster_size=2)
    assert labels.cluster_count == 2
    np.testing.assert_array_equal(labels.labels, [0, 1, 0, 1, 1, -1])
    labels = _labels(root, min_cluster_size=3)
    np.testing.assert_array_equal(labels.labels, [-1, 0, -1, 0, 0, -1])
    # equal sizes: the component holding the earliest point wins
    cloud = PointCloud(np.arange(18, dtype=float).reshape(6, 3))
    pairs = np.array([[5, 4], [1, 3]])
    tie = _labels(_forest(np.arange(6), pairs[:, 0], pairs[:, 1]), 1)
    np.testing.assert_array_equal(tie.labels, [0, 1, 2, 1, 3, 3])
    np.testing.assert_array_equal(largest_cluster(cloud, tie).xyz,
                                  cloud.xyz[[1, 3]])
    no_edge = np.zeros(0, dtype=np.intp)
    none = _labels(_forest(np.arange(3), no_edge, no_edge), 2)
    assert none.cluster_count == 0 and (none.labels == -1).all()
    # renumbered through loc, an edge with an end mapped to -1 is dropped
    loc = np.array([0, -1, 1, 2])
    root = _forest(np.arange(3), np.array([0, 1, 2]), np.array([1, 2, 3]), loc)
    np.testing.assert_array_equal(root, [0, 1, 1])


def scipy_components(n: int, pairs: np.ndarray, min_cluster_size: int
                     ) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference components from scipy's connected_components: each
    point's lowest component member, and labels with cluster ids in the
    order of each component's lowest point index."""
    graph = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    _, lowest, sizes = np.unique(comp, return_index=True, return_counts=True)
    order = np.argsort(lowest)
    kept = sizes[order] >= min_cluster_size
    cluster_id = np.full(len(sizes), -1)
    cluster_id[order[kept]] = np.arange(kept.sum())
    return lowest[comp], cluster_id[comp], int(kept.sum())


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 300),
       dtype=st.sampled_from([np.int32, np.int64]),
       min_cluster_size=st.integers(1, 8))
def test_forest_matches_scipy(data, n, dtype, min_cluster_size):
    # unordered, duplicate and self-loop pairs, and isolated nodes
    node = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(node, node), max_size=3 * n))
    pairs = np.array(edges, dtype=dtype).reshape(-1, 2)
    root = _forest(np.arange(n, dtype=dtype), pairs[:, 0], pairs[:, 1])
    labels = _labels(root, min_cluster_size)
    expected_root, expected, count = scipy_components(n, pairs, min_cluster_size)
    np.testing.assert_array_equal(root, expected_root)
    np.testing.assert_array_equal(labels.labels, expected)
    assert labels.cluster_count == count


def test_forest_long_shuffled_path():
    # a 200k-node path visited in random order takes the most hooking
    # rounds of any input here; it must end as one tree rooted at 0
    order = np.random.default_rng(3).permutation(200_000).astype(np.int32)
    root = _forest(np.arange(len(order), dtype=np.int32), order[:-1], order[1:])
    assert (root == 0).all()
    labels = _labels(root, min_cluster_size=2)
    assert labels.cluster_count == 1
    assert (labels.labels == 0).all()


def test_radius_pair_counts_equal_ball_counts_on_rounded_capture():
    xyz = np.round(generate_scene(reference_scenes()[0]).cloud.xyz, 2)
    tree = cKDTree(xyz)
    for r0 in (0.025, 0.0748):
        params = RadiusFilterParams(r0=r0, n_min=4)
        ball = tree.query_ball_point(xyz, r0, return_length=True) - 1
        pairs, keep = slab_graph(xyz, params)
        np.testing.assert_array_equal(
            np.bincount(pairs.ravel(), minlength=len(xyz)), ball)
        np.testing.assert_array_equal(keep, ball >= params.n_min)


# ---------------------------------------------------------------------------
# the two x-slabs against one whole-cloud pair query
# ---------------------------------------------------------------------------

def _lexsorted(pairs: np.ndarray) -> np.ndarray:
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def whole_cloud_pairs(xyz: np.ndarray, r0: float) -> np.ndarray:
    """The oracle of the slabs: one kd-tree pair query over the whole
    cloud, as the filter made before it was split; pairs (i < j) in
    lexicographic order."""
    tree = cKDTree(xyz, balanced_tree=False, compact_nodes=False)
    return _lexsorted(tree.query_pairs(r0, output_type="ndarray"))


def slab_graph(xyz: np.ndarray,
               params: RadiusFilterParams) -> tuple[np.ndarray, np.ndarray]:
    """The slabbed graph's pairs in cloud indices, and its survivor mask."""
    slabs, keep = _radius_graph(xyz, params)
    return np.vstack([index[p] for index, _, p in slabs]), keep


def whole_cloud_filter(xyz: np.ndarray, params: RadiusFilterParams) -> np.ndarray:
    """Rows of ``robust_filter`` computed from the whole-cloud query: the
    radius survivors' largest component by scipy, ties to the earliest
    point."""
    pairs = whole_cloud_pairs(xyz, params.r0)
    keep = np.bincount(pairs.ravel(), minlength=len(xyz)) >= params.n_min
    surv = xyz[keep]
    edges = (np.cumsum(keep) - 1)[pairs[keep[pairs[:, 0]] & keep[pairs[:, 1]]]]
    _, labels, count = scipy_components(len(surv), edges.reshape(-1, 2),
                                        params.min_cluster_size)
    if count == 0:
        return surv[:0]
    return surv[labels == np.argmax(np.bincount(labels[labels >= 0]))]


def assert_slabs_match_one_query(xyz: np.ndarray, params: RadiusFilterParams):
    pairs, keep = slab_graph(xyz, params)
    pairs = _lexsorted(np.sort(pairs, axis=1))
    expected = whole_cloud_pairs(xyz, params.r0)
    # equal arrays: no pair missing, none extra, none in both slabs
    np.testing.assert_array_equal(pairs, expected)
    np.testing.assert_array_equal(
        keep, np.bincount(expected.ravel(), minlength=len(xyz)) >= params.n_min)
    np.testing.assert_array_equal(
        radius_outlier_filter(PointCloud(xyz), params).xyz, xyz[keep])
    np.testing.assert_array_equal(robust_filter(PointCloud(xyz), params).xyz,
                                  whole_cloud_filter(xyz, params))


@pytest.mark.parametrize("step", [0.1, 0.125])
def test_slabs_match_one_query_on_a_lattice_with_points_at_the_cut(step):
    # the median x is a lattice value, so many points sit exactly at the
    # cut, repeats give pairs at distance 0, and many pairs lie exactly one
    # step apart across the cut (in exact binary for 0.125)
    base = np.round(np.random.default_rng(11).uniform(0, 1, size=(400, 3)) / step)
    xyz = np.vstack([base, base[::2], base[::5]]) * step
    x = xyz[:, 0]
    cut = np.partition(x, len(x) // 2)[len(x) // 2]
    assert np.count_nonzero(x == cut) > 40
    pairs = whole_cloud_pairs(xyz, step)
    across = (x[pairs[:, 0]] < cut) != (x[pairs[:, 1]] < cut)
    d2 = ((xyz[pairs[:, 0]] - xyz[pairs[:, 1]]) ** 2).sum(axis=1)
    on_r0 = np.isclose(d2, step * step, rtol=1e-12, atol=0.0)
    assert np.count_nonzero(across & on_r0) > 10
    if step == 0.125:
        assert (d2[on_r0] == step * step).all()
    for r0 in (step, 1.5 * step, 2 * step):
        for n_min, min_size in [(0, 2), (2, 5), (6, 20)]:
            assert_slabs_match_one_query(xyz, RadiusFilterParams(r0, n_min, min_size))


def test_slabs_match_one_query_when_every_x_is_equal():
    # every point sits at the cut: slab 0 has no core and slab 1 has all
    yz = np.round(np.random.default_rng(12).uniform(0, 1, size=(300, 2)), 1)
    xyz = np.column_stack([np.full(len(yz), 0.7), yz])
    slabs, _ = _radius_graph(xyz, RadiusFilterParams(0.1))
    assert (slabs[0][1], len(slabs[1][0])) == (0, len(xyz))
    for n_min, min_size in [(0, 2), (3, 5)]:
        assert_slabs_match_one_query(xyz, RadiusFilterParams(0.1, n_min, min_size))


@pytest.mark.parametrize("rows", [
    [],
    [(0.0, 0.0, 0.0)],
    [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
    [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0)],
    [(0.0, 0.0, 0.0), (0.75, 0.0, 0.0)],
    [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (1.0, 0.0, 0.0)],
    [(1.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.5, 0.5, 0.0)],
    [(0.25, 0.0, 0.0), (0.25, 0.0, 0.0), (0.25, 0.0, 0.0)],
], ids=["empty", "one", "two-coincident", "two-at-r0", "two-apart",
        "three-in-a-row", "three-at-the-cut", "three-coincident"])
def test_slabs_match_one_query_on_clouds_of_up_to_three_points(rows):
    xyz = np.array(rows, dtype=float).reshape(-1, 3)
    for n_min in (0, 1, 2):
        params = RadiusFilterParams(0.5, n_min, min_cluster_size=2)
        if len(xyz) == 0:
            # the filters return an empty cloud before building a graph
            assert len(radius_outlier_filter(PointCloud(xyz), params)) == 0
            assert len(robust_filter(PointCloud(xyz), params)) == 0
        else:
            assert_slabs_match_one_query(xyz, params)


@settings(max_examples=150, deadline=None)
@given(cells=st.lists(st.tuples(*[st.integers(-5, 5)] * 3), max_size=80),
       repeats=st.integers(0, 20),
       step=st.sampled_from([0.1, 0.125, 0.3]),
       reach=st.sampled_from([1.0, 1.5, 2.0]),
       jitter=st.sampled_from([0.0, 1e-3]),
       seed=st.integers(0, 2**32 - 1),
       n_min=st.integers(0, 5),
       min_cluster_size=st.integers(2, 6))
def test_slabs_match_one_query_on_drawn_clouds(cells, repeats, step, reach,
                                               jitter, seed, n_min,
                                               min_cluster_size):
    # lattice clouds tie many distances at exactly r0 and many x values at
    # the cut; jitter breaks the ties
    xyz = np.array(cells, dtype=float).reshape(-1, 3) * step
    xyz = np.vstack([xyz, xyz[:repeats]])
    assume(len(xyz) > 0)
    xyz += np.random.default_rng(seed).uniform(-jitter, jitter, size=xyz.shape)
    assert_slabs_match_one_query(
        xyz, RadiusFilterParams(reach * step, n_min, min_cluster_size))


@pytest.mark.parametrize("decimals", [None, 2])
def test_slabs_match_one_query_on_a_catalogue_capture(decimals):
    xyz = generate_scene(reference_scenes()[0]).cloud.xyz
    if decimals is not None:
        xyz = np.round(xyz, decimals)
    assert_slabs_match_one_query(xyz, RadiusFilterParams(0.025, 4, 50))


def test_worker_kernels_reference_only_numpy_and_scipy():
    # the kernels run on the worker thread, so they must reach no pilevol
    # function through a module global: the benchmark's tracer rebinds
    # those and keeps one stack for one thread.  The voxel pass runs on the
    # calling thread alone
    from pilevol import cloud, denoise
    for kernel in [denoise._slab_pairs, denoise._forest]:
        names = set(kernel.__code__.co_names) & set(vars(denoise))
        assert names <= {"np", "cKDTree"}, (kernel.__name__, names)
    assert "both" not in vars(cloud)


def _filter_digest_into(conn, xyz, params):
    out = robust_filter(PointCloud(xyz), params)
    conn.send(hashlib.sha256(out.xyz.tobytes()).hexdigest())
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_robust_filter_runs_in_a_forked_child():
    # the parent's filter starts the worker thread; a forked child inherits
    # the pool object without its thread and must start its own, not wait
    # on a thread that does not exist
    xyz = generate_scene(reference_scenes()[0]).cloud.xyz[::4]
    params = RadiusFilterParams(0.05, 4, 50)
    expected = hashlib.sha256(robust_filter(PointCloud(xyz), params)
                              .xyz.tobytes()).hexdigest()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_filter_digest_into, args=(send, xyz, params))
    child.start()
    try:
        assert recv.poll(60), "the forked child's filter did not return"
        assert recv.recv() == expected
        child.join(60)
        assert child.exitcode == 0, "the forked child did not exit cleanly"
    finally:
        if child.is_alive():
            child.kill()
        child.join()


def test_filters_called_from_several_threads_match_one_at_a_time(monkeypatch):
    # callers on four threads share the one worker; with a short switch
    # interval they interleave finely, and with the pool dropped first they
    # also race to start it
    from pilevol import _worker
    rng = np.random.default_rng(21)
    clouds = [PointCloud(np.round(rng.uniform(0, 1, size=(600, 3)), 1))
              for _ in range(4)]
    params = RadiusFilterParams(0.1, 3, 5)
    expected = [robust_filter(c, params) for c in clouds]
    results = [[] for _ in clouds]

    def run(k):
        for _ in range(10):
            results[k].append(robust_filter(clouds[k], params))

    monkeypatch.setattr(_worker, "_pool_pid", -1)
    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
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
    for k in range(len(clouds)):
        assert len(results[k]) == 10
        assert all(out == expected[k] for out in results[k])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), blobs=st.integers(1, 4),
       duplicates=st.booleans())
def test_robust_filter_components_permutation_invariant(seed, blobs, duplicates):
    rng = np.random.default_rng(seed)
    parts = [rng.normal(0, 0.06, size=(int(rng.integers(20, 120)), 3))
             + rng.uniform(-1, 1, size=3) for _ in range(blobs)]
    parts.append(rng.uniform(-1.5, 1.5, size=(30, 3)))
    xyz = np.vstack(parts)
    if duplicates:
        xyz = np.vstack([xyz, xyz[::5]])
    rparams = RadiusFilterParams(r0=0.05, n_min=2, min_cluster_size=10)
    surv = xyz[brute_neighbor_counts(xyz, rparams.r0) >= rparams.n_min]
    sizes = np.unique(brute_components(surv, rparams.r0), return_counts=True)[1]
    assume(len(sizes) > 0 and (sizes == sizes.max()).sum() == 1)
    out = robust_filter(PointCloud(xyz), rparams)
    perm = rng.permutation(len(xyz))
    permuted = robust_filter(PointCloud(xyz[perm]), rparams)

    def rows(cloud):
        return sorted(map(tuple, cloud.xyz))

    assert rows(out) == rows(permuted)


def test_hdbscan_chain_golden():
    # s09 at benchmark seed 3006 (perfbench derive_seed(3006, "catalogue",
    # 8)): the capture on which the pipeline, when it ran this chain as
    # both filter passes, merged the wall strip into the pile (+19.45 %).
    # The chain on the raw capture is what that pre-filter kept; the hash
    # was taken from the last version with the pipeline mode, so the
    # library chain must stay the paper's bit for bit.  The hash is of the
    # decisions, the kept rows of the raw capture (radius mask, then labels,
    # then the winner), not of their coordinates, whose last bits follow the
    # scene's truth scale and the machine's SIMD kernels
    seed = 1432710598
    cloud = generate_scene(replace(reference_scenes()[8], seed=seed)).cloud
    rparams = RadiusFilterParams(r0=0.025, n_min=4)
    keep = _radius_graph(cloud.xyz, rparams)[1]
    filtered = radius_outlier_filter(cloud, rparams)
    assert np.array_equal(filtered.xyz, cloud.xyz[keep])
    labels = hdbscan(filtered, HdbscanParams(min_cluster_size=50, min_samples=10))
    kept = largest_cluster(filtered, labels)
    winner = int(np.argmax(labels.cluster_sizes()))
    rows = np.flatnonzero(keep)[labels.labels == winner].astype(np.int64)
    assert np.array_equal(kept.xyz, cloud.xyz[rows])
    assert (len(cloud), len(filtered), labels.cluster_count, len(kept)) == (
        28140, 28023, 1, 28023)
    assert (hashlib.sha256(rows.tobytes()).hexdigest()
            == "a8c655a6f3de4ad36a79987f0f5148ac0333544837ddb05d3aa787e8e0133b9d")


def _s09_default_capture(seed):
    scene = generate_scene(replace(reference_scenes()[8], seed=seed))
    return PipelineConfig(), scene


def _filters_off_capture(seed):
    base = reference_scenes()[15]
    walker = walker_clutter(base.ground_extent, base.pile.footprint_radius, seed)
    scene = generate_scene(replace(base, seed=seed, clutter=base.clutter + (walker,)))
    return PipelineConfig(enable_prefilter=False, enable_fine_filter=False), scene


def _voxel_band_capture(seed):
    scene = generate_scene(replace(dense_compression_scene(), seed=seed))
    return PipelineConfig(downsample_voxel=0.034), scene


@pytest.mark.parametrize("capture, seed, digest", [
    (_s09_default_capture, 1432710598,
     "bdba082e54a204083c6a6fbec9e3097099560fd735283cc3c3aabf5f3fac2502"),
    (_filters_off_capture, 1775043612,
     "c43aa1e19814ddb6beb52e9dac4242a377e4b864e241e847d6f12f85e8d0a92d"),
    (_voxel_band_capture, 2816247519,
     "4ac8839da821bea94a490601364ef5183e8bdb74258122e929ccf2e6ee7291ab"),
], ids=["s09-default", "filters-off", "voxel-band"])
def test_default_mode_report_golden(capture, seed, digest):
    # default components mode: s09 at catalogue seed 3006 as above, and the
    # first capture of the filters-off and voxel-band benchmark passes at
    # seed 1 (perfbench derive_seed(1, workload, 0)).  The hashes are the
    # reports from before the grid kernels grouped cells by an int64 key, so
    # a speed-up of any stage must keep every volume bit for bit.  s09's was
    # re-pinned when the gap trim replaced the components pre-filter, which
    # had dropped 117 points that the trim keeps.  All three were re-pinned
    # when the grid's constant aggregator and compensation parameters left
    # the report: each is the hash of the earlier CSV without its
    # ``param_aggregator,MEAN`` and ``param_compensation,1.0`` lines
    config, scene = capture(seed)
    csv = run_report_csv(run_pipeline(replace(config, seed=seed), scene=scene))
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


def hdbscan_chain(cloud: PointCloud, rparams: RadiusFilterParams,
                  hparams: HdbscanParams) -> PointCloud:
    """The paper's filter: radius outlier rejection, then the largest
    HDBSCAN cluster of the survivors."""
    filtered = radius_outlier_filter(cloud, rparams)
    if len(filtered) == 0:
        return filtered
    return largest_cluster(filtered, hdbscan(filtered, hparams))


def _both_filters(cloud, rparams, hparams):
    return robust_filter(cloud, rparams), hdbscan_chain(cloud, rparams, hparams)


def test_robust_filter_clean_blob_unchanged():
    rng = np.random.default_rng(2)
    cloud = PointCloud(rng.normal(0, 0.05, size=(500, 3)))
    for out in _both_filters(cloud, RadiusFilterParams(0.15, 2, 20),
                             HdbscanParams(min_cluster_size=20, min_samples=5)):
        assert out == cloud


def test_robust_filter_empty_cloud():
    for out in _both_filters(PointCloud.empty(), RadiusFilterParams(),
                             HdbscanParams()):
        assert len(out) == 0


def test_robust_filter_never_increases_count():
    rng = np.random.default_rng(6)
    cloud = PointCloud(rng.normal(size=(300, 3)))
    for out in _both_filters(cloud, RadiusFilterParams(0.3, 2, 10),
                             HdbscanParams(min_cluster_size=10, min_samples=4)):
        assert len(out) <= len(cloud)


# ---------------------------------------------------------------------------
# gap trim
# ---------------------------------------------------------------------------

def test_gap_trim_degenerate_clouds():
    assert len(gap_trim(PointCloud.empty(), 0.1)) == 0
    one = PointCloud([[1.0, 2.0, 3.0]])
    assert gap_trim(one, 0.1) == one
    same = PointCloud(np.full((7, 3), 0.5))
    assert gap_trim(same, 0.1) == same
    # x keeps the first point (a tie, lowest run), so y never sees the
    # second, which would win there; a cloud never trims to nothing
    crossed = PointCloud([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert gap_trim(crossed, 0.1) == crossed.select([0])


def test_gap_trim_rejects_a_bad_radius():
    cloud = PointCloud(np.zeros((3, 3)))
    for r0 in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(InvalidParameter):
            gap_trim(cloud, r0)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_gap_trim_tie_keeps_the_lowest_run(axis):
    # two 5-point runs 1 m apart on one axis; the lower one wins the tie
    xyz = np.zeros((10, 3))
    xyz[5:, axis] = 1.0
    xyz[:, axis] += np.tile(np.arange(5) * 0.01, 2)
    out = gap_trim(PointCloud(xyz), 0.1)
    assert out == PointCloud(xyz[:5])


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_gap_trim_gap_of_exactly_r0_stays_joined(axis):
    # 0.0 and 0.5 are exact in binary, so the gap is r0 to the bit; a split
    # there would leave the two-point run and drop the lone point
    xyz = np.zeros((3, 3))
    xyz[1:, axis] = 0.5
    cloud = PointCloud(xyz)
    assert gap_trim(cloud, 0.5) == cloud
    assert gap_trim(cloud, np.nextafter(0.5, 0)) == PointCloud(xyz[1:])


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_gap_trim_drops_strays_off_along_each_axis(axis):
    rng = np.random.default_rng(axis)
    body = rng.uniform(-0.5, 0.5, size=(400, 3))
    stray = rng.normal(0, 0.01, size=(30, 3))
    stray[:, axis] += 50.0
    out = gap_trim(PointCloud(np.vstack([stray, body])), 0.05)
    assert out == PointCloud(body)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
       r0=st.sampled_from([0.05, 0.1, 0.3]))
def test_gap_trim_keeps_or_drops_each_r0_component_whole(seed, n, r0):
    # rounded coordinates give duplicates and gaps of exactly r0
    rng = np.random.default_rng(seed)
    xyz = np.round(rng.uniform(-1, 1, size=(n, 3)) ** 3, 1)
    kept = {row.tobytes() for row in gap_trim(PointCloud(xyz), r0).xyz}
    is_kept = np.array([row.tobytes() in kept for row in xyz])
    pairs = cKDTree(xyz).query_pairs(r0, output_type="ndarray")
    assert np.array_equal(is_kept[pairs[:, 0]], is_kept[pairs[:, 1]])
    assert is_kept.any()


def _sort_only_gap_trim(cloud, r0):
    """The trim with every axis sorted: the reference the linear gap-free
    test must match."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(denoise, "_gap_free", lambda values, r0: False)
        return gap_trim(cloud, r0)


# neighbour gaps in units of r0: duplicates, gaps around one bin (r0/2)
# and two bins (r0 / HALO_PAD), and gaps of r0 to within 1e-7 either way
GAP_FACTORS = (0.0, 0.0, 0.2, 0.5 * (1 - 1e-7), 0.5, 0.5 * (1 + 1e-7), 0.7,
               0.99, 1 / denoise.HALO_PAD, 1 - 1e-7, 1.0, 1 + 1e-7, 3.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 40),
       r0=st.sampled_from([0.125, 0.1, 0.3]),
       offset=st.sampled_from([0.0, -0.37, 1e3 + 0.1]))
def test_gap_trim_linear_test_matches_the_sort_path(data, n, r0, offset):
    # each axis walks by drawn gaps, then is shuffled; r0 = 0.125 makes the
    # gaps exact multiples of it, and every draw also has a rounded twin
    columns = []
    for _ in range(3):
        gaps = data.draw(st.lists(st.sampled_from(GAP_FACTORS),
                                  min_size=n - 1, max_size=n - 1))
        axis = offset + np.concatenate(([0.0], np.cumsum(np.multiply(gaps, r0))))
        columns.append(axis[data.draw(st.permutations(range(n)))])
    xyz = np.column_stack(columns)
    for cloud in (PointCloud(xyz), PointCloud(np.round(xyz, 1))):
        assert gap_trim(cloud, r0) == _sort_only_gap_trim(cloud, r0)


def test_gap_trim_returns_a_cloud_it_does_not_trim_as_is():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.uniform(0, 1, size=(500, 3)))
    assert gap_trim(cloud, 0.05) is cloud
    # a gap between r0/2 and r0 empties a bin, so that axis is sorted, and
    # still drops nothing
    xyz = np.zeros((4, 3))
    xyz[:, 1] = [0.0, 0.4, 1.3, 1.3]
    cloud = PointCloud(xyz)
    assert not denoise._gap_free(cloud.xyz[:, 1].copy(), 1.0)
    assert gap_trim(cloud, 1.0) is cloud


@pytest.mark.parametrize("r0, width", [(5e-324, 1e300), (5e-324, 0.0),
                                       (1e-300, 1e-298), (1e-300, 1e-296),
                                       (1e300, 1e300), (1.7e308, 1e308)])
def test_gap_trim_at_extreme_scales(monkeypatch, r0, width):
    # a subnormal r0 overflows the bin scale, and a huge one makes it tiny;
    # either way no bin array outgrows the cloud and nothing warns (pytest
    # turns a RuntimeWarning into an error)
    rng = np.random.default_rng(8)
    xyz = rng.uniform(-0.5, 0.5, size=(300, 3)) * width
    xyz[::7] = xyz[0]
    cloud = PointCloud(xyz)
    sizes = []
    bincount = np.bincount
    monkeypatch.setattr(denoise.np, "bincount",
                        lambda *args, **kwargs:
                        sizes.append(kwargs.get("minlength", 0))
                        or bincount(*args, **kwargs))
    out = gap_trim(cloud, r0)
    monkeypatch.undo()
    assert all(size <= len(cloud) for size in sizes)
    assert out == _sort_only_gap_trim(cloud, r0)


@pytest.mark.parametrize("bench_seed", [1, 2718])
def test_gap_trim_keeps_what_the_components_prefilter_keeps(bench_seed):
    # the catalogue's scenes at two benchmark seeds (perfbench's
    # derive_seed): the radius + components pass the trim replaced as the
    # default pre-filter keeps no point the trim drops
    rparams = PipelineConfig().effective_radius_params()
    for i, spec in enumerate(reference_scenes()):
        key = [bench_seed, zlib.crc32(b"catalogue"), i]
        seed = int(np.random.SeedSequence(key).generate_state(1)[0])
        cloud = generate_scene(replace(spec, seed=seed)).cloud
        kept = {row.tobytes() for row in gap_trim(cloud, rparams.r0).xyz}
        components = robust_filter(cloud, rparams)
        assert all(row.tobytes() in kept for row in components.xyz), spec.scene_id


def test_prefilter_does_not_call_robust_filter(monkeypatch):
    # the pre-filter is the gap trim; the benchmark's trace still wraps
    # pilevol.pipeline.robust_filter, so the name must stay importable
    seen = []
    monkeypatch.setattr(pipeline, "robust_filter",
                        lambda cloud, *args: seen.append(args) or cloud)
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.normal(0, 0.1, size=(200, 3)))
    config = PipelineConfig(enable_posture=False, enable_fine_filter=False)
    pipeline._run_stages(config, cloud, None, pipeline.RunReport(),
                         last="prefilter")
    assert seen == []
