"""Radius filtering and clustering against brute-force oracles."""

import hashlib

import numpy as np
import pytest
from scipy.spatial import cKDTree

from pilevol import _hdbscan
from pilevol._hdbscan import (
    KnnCache,
    _strip_self,
    core_distances,
    mutual_reachability_mst,
    run_hdbscan,
)
from pilevol.cloud import PointCloud, voxel_downsample
from pilevol.denoise import (
    HdbscanParams,
    RadiusFilterParams,
    hdbscan,
    largest_cluster,
    radius_outlier_filter,
    robust_filter,
)
from pilevol.errors import InvalidParameter, LabelMismatch, PilevolError
from pilevol.synth import generate_scene, reference_scenes


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
    for method in ("dense", "accelerated"):
        mst = mutual_reachability_mst(xyz, core, method=method)
        assert mst.shape == (len(xyz) - 1, 3)
        assert abs(mst[:, 2].sum() - oracle) < 1e-9


def test_mst_paths_agree_at_switch_boundary():
    rng = np.random.default_rng(31)
    xyz = np.vstack([
        rng.normal(0, 0.5, size=(2500, 3)),
        rng.normal(0, 0.4, size=(2000, 3)) + [6, 0, 0],
        rng.uniform(-10, 10, size=(500, 3)),
    ])
    assert len(xyz) == 5000
    core = core_distances(xyz, 10)
    dense = mutual_reachability_mst(xyz, core, method="dense")
    accel = mutual_reachability_mst(xyz, core, method="accelerated")
    assert abs(dense[:, 2].sum() - accel[:, 2].sum()) < 1e-9


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
    mst = mutual_reachability_mst(xyz, core_distances(xyz, 10), "accelerated")
    assert (hashlib.sha256(mst.tobytes()).hexdigest()
            == "a8a018d7acfdff0a0efdf082772132c7bfbc90766eb43a17f72313f29335087d")


def test_boruvka_without_progress_raises_typed_error():
    xyz = np.random.default_rng(0).uniform(size=(6000, 3))
    core = np.full(len(xyz), np.nan)
    with pytest.raises(PilevolError), np.errstate(invalid="ignore"):
        mutual_reachability_mst(xyz, core, "accelerated")


def _lattice_with_duplicates() -> np.ndarray:
    """400 points on a 10 cm lattice, some repeated up to three times: the
    self entry can fall out of a kNN query and many distances tie."""
    base = np.round(np.random.default_rng(77).uniform(0, 1, size=(400, 3)), 1)
    return np.vstack([base, base[::2], base[::5]])


@pytest.mark.parametrize("min_samples", [1, 10, 16])
def test_shared_knn_core_distances_are_exact(min_samples):
    dups = _lattice_with_duplicates()
    clouds = [dups] + [np.repeat(dups[:(n + 1) // 2], 2, axis=0)[:n]
                       for n in (2, 17, 18)]
    for xyz in clouds:
        # alone, core_distances queries exactly min_samples + 1 neighbors
        shared = core_distances(xyz, min_samples, KnnCache(xyz))
        assert shared.tobytes() == core_distances(xyz, min_samples).tobytes()


def test_core_distances_above_cache_width_use_own_query():
    xyz = _lattice_with_duplicates()
    knn = KnnCache(xyz)
    shared = core_distances(xyz, 20, knn)
    assert shared.tobytes() == core_distances(xyz, 20).tobytes()
    assert "neighbors" not in vars(knn)     # the 17-neighbor query never ran


def test_knn_cache_is_the_17_neighbor_query():
    # among equal distances the kd-tree's index order, and at the last
    # column the neighbor set, depend on k: the cache must be this query,
    # not a slice of a wider one
    xyz = _lattice_with_duplicates()
    dist, idx = KnnCache(xyz).neighbors
    want_dist, want_idx = _strip_self(*cKDTree(xyz).query(xyz, k=17))
    assert dist.tobytes() == want_dist.tobytes()
    assert idx.tobytes() == want_idx.tobytes()


def test_doubling_reuse_matches_fresh_requeries(monkeypatch):
    # a doubling re-query that found no foreign point is reused in later
    # Boruvka rounds; forgetting every stored ring must give the same edges
    # in the same order
    xyz = generate_scene(reference_scenes()[5]).cloud.xyz
    core = core_distances(xyz, 10)
    original = _hdbscan._resolve_doubling
    reused = [0]

    def counting(*args):
        open_pts, foreign_free = args[4], args[-1]
        reused[0] += sum(int(np.isfinite(known[open_pts]).sum())
                         for known in foreign_free)
        return original(*args)

    def forgetful(*args):
        return original(*args[:-1], [np.full_like(known, np.nan)
                                     for known in args[-1]])

    monkeypatch.setattr(_hdbscan, "_resolve_doubling", counting)
    kept = mutual_reachability_mst(xyz, core, "accelerated")
    monkeypatch.setattr(_hdbscan, "_resolve_doubling", forgetful)
    fresh = mutual_reachability_mst(xyz, core, "accelerated")
    assert reused[0] > 0
    assert kept.tobytes() == fresh.tobytes()


def test_auto_labels_match_dense_on_voxel_thinned_cloud_with_ties():
    # "auto" runs Boruvka at every size; on a voxel-thinned capture under
    # 5000 points, with exact duplicates, it must label like dense Prim
    scene = generate_scene(reference_scenes()[0])
    xyz = voxel_downsample(scene.cloud, 0.03).xyz
    xyz = np.vstack([xyz, xyz[::6]])
    assert 2000 < len(xyz) <= 5000
    params = HdbscanParams(min_cluster_size=50, min_samples=10)
    auto = run_hdbscan(xyz, params, "auto")
    dense = run_hdbscan(xyz, params, "dense")
    assert auto.cluster_count == dense.cluster_count >= 1
    np.testing.assert_array_equal(auto.labels, dense.labels)


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
    rparams = RadiusFilterParams(r0=0.05, n_min=3)
    hparams = HdbscanParams(min_cluster_size=50, min_samples=8)

    out = robust_filter(cloud, rparams, hparams)
    # oracle composition: brute radius filter, then cluster, then largest
    counts = brute_neighbor_counts(cloud.xyz, rparams.r0)
    surv = PointCloud(cloud.xyz[counts >= rparams.n_min])
    labels = hdbscan(surv, hparams)
    expected = largest_cluster(surv, labels)
    assert out == expected
    # only the dominant blob remains
    assert len(out) > 1800
    assert np.linalg.norm(out.xyz.mean(axis=0)) < 0.05


def test_robust_filter_clean_blob_unchanged():
    rng = np.random.default_rng(2)
    cloud = PointCloud(rng.normal(0, 0.05, size=(500, 3)))
    out = robust_filter(cloud, RadiusFilterParams(r0=0.15, n_min=2),
                        HdbscanParams(min_cluster_size=20, min_samples=5))
    assert out == cloud


def test_robust_filter_empty_cloud():
    out = robust_filter(PointCloud.empty(), RadiusFilterParams(),
                        HdbscanParams())
    assert len(out) == 0


def test_robust_filter_never_increases_count():
    rng = np.random.default_rng(6)
    cloud = PointCloud(rng.normal(size=(300, 3)))
    out = robust_filter(cloud, RadiusFilterParams(r0=0.3, n_min=2),
                        HdbscanParams(min_cluster_size=10, min_samples=4))
    assert len(out) <= len(cloud)
