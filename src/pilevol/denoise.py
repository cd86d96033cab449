"""Robust noise removal: a per-axis gap trim, radius outlier rejection
and dominant-cluster extraction.

``gap_trim`` is the pipeline's pre-filter.  On each axis it splits the
sorted coordinates wherever two neighbours lie more than r0 apart and
keeps the points inside the run holding the most points.  No r0 pair
crosses such a gap, so the trim never splits what the r0 radius graph
connects.  It drops far stray points and blobs, which would otherwise
stretch the height histogram's range, without a full-cloud pair query.
Most axes have no such gap, and a linear pass shows it without sorting:
the pigeonhole bucketing behind the maximum-gap algorithm (Gonzalez 1975;
Preparata & Shamos, Computational Geometry, 1985, section 6.4) bins the
coordinates just under r0/2 wide, and when every bin holds a value no
neighbour gap reaches r0.  Only an axis with an empty bin is sorted, and
a trim that drops no point returns the cloud it was given.

``robust_filter`` is the pipeline's fine filter: radius outlier rejection
followed by the largest connected component of the r0 radius graph among
the surviving points.  The radius filter keeps points with at least n_min
other points within r0.  The graph is built on two x-slabs at once, one
on a worker thread and one on the calling thread, as in the spatial
partition with halo regions of HPDBSCAN (Götz et al., MLHPC 2015).  The
cut is the median x.  Slab 0 holds the points below the cut followed by
its halo band, the points at most r0 past the cut, and keeps the pairs
with at least one end below the cut; slab 1 holds the points at or past
the cut and keeps all of its pairs.  So every pair within r0 lies in
exactly one slab.  Each slab's kd-tree pair query computes a pair's
distance from the same coordinates as a whole-cloud query would, so the
pair set and the counts, summed over the slabs, are identical to the
naive all-pairs loop; the test suite checks them against a brute-force
oracle and a whole-cloud query.

The components reuse the pairs the count was taken from; this is
DBSCAN-style clustering (Ester et al., KDD 1996), as in PCL's Euclidean
cluster extraction.  They come from min-label hooking on the pair list
itself (Shiloach & Vishkin, J. Algorithms 1982), with no sparse matrix:
each round hooks every edge's larger root onto its smaller one, resolves
the roots by pointer jumping and drops the edges inside one root.  Every
root that still has a cross edge is hooked onto a smaller root, so the
number of roots strictly falls and the loop ends; each component is
rooted at its lowest point index, whatever the edge order.  Each slab
hooks its own surviving pairs into a forest, and the two forests, which
share only the halo points, are merged as disjoint sets (as in PDSDBSCAN,
Patwary et al., SC 2012): each halo point's slab-0 tree is hooked onto
its slab-1 tree.  The labels therefore equal those of one whole-cloud
pass.  Components of fewer than ``min_cluster_size`` points are noise.

The paper's filter is the library composition
``largest_cluster(f, hdbscan(f, params))`` with
``f = radius_outlier_filter(cloud, rparams)``: the mutual-reachability
clustering chain of ``pilevol._hdbscan``, kept as a reference that the
pipeline no longer runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import LabelMismatch, check_number
from ._hdbscan import NOISE, ClusterLabels, HdbscanParams, run_hdbscan
from ._worker import both

__all__ = [
    "RadiusFilterParams",
    "HdbscanParams",
    "ClusterLabels",
    "gap_trim",
    "radius_outlier_filter",
    "hdbscan",
    "largest_cluster",
    "robust_filter",
]


@dataclass(frozen=True)
class RadiusFilterParams:
    r0: float = 0.025        # neighborhood radius, meters
    n_min: int = 4           # minimum neighbor count (excluding the point)
    min_cluster_size: int = 50   # smaller r0 components are noise

    def __post_init__(self):
        check_number("r0", self.r0, 0)
        check_number("n_min", self.n_min, 0, integer=True, lo_open=False)
        check_number("min_cluster_size", self.min_cluster_size, 2, integer=True,
                     lo_open=False)


# The pad widens r0 by a relative 1e-6 wherever a rounded quantity decides
# what r0 alone would: the halo band test rounds x - cut, while cKDTree
# decides a pair on its own rounded squared distance, and the gap test's
# bin index is a rounded quotient.  A wider band costs only a few points.
HALO_PAD = 1.0 + 1e-6


def _gap_free(values: np.ndarray, r0: float) -> bool:
    """True when a linear pass shows that no neighbour gap of the sorted
    ``values`` exceeds r0: every bin ``floor((v - min) * 2 * HALO_PAD /
    r0)`` from 0 to the top one holds a value.

    The bins are just under r0 / 2 wide, so each value's successor in
    sorted order lies in its own bin or the next, under two bin widths,
    r0 / HALO_PAD, away: the pad covers the quotient's rounding, under 4
    ulps of the bin index, for up to 1e9 values.  A neighbour gap above r0
    therefore only spans empty bins.  More bins than values leave one
    empty, so the bins are only counted when there are at most as many.
    """
    lo, hi = float(values.min()), float(values.max())
    # Python floats: a subnormal r0 makes the scale inf and the top bin inf
    # or nan, without a warning, and both fail the test below
    scale = 2.0 * HALO_PAD / r0
    top = (hi - lo) * scale
    if not top < len(values):
        return False
    index = ((values - lo) * scale).astype(np.intp)
    return bool(np.bincount(index, minlength=int(top) + 1).all())


def _densest_run(values: np.ndarray, r0: float) -> tuple[float, float] | None:
    """The first and last value of the run holding the most ``values``,
    where runs split the sorted values at every neighbour gap above r0;
    ties go to the lowest run.  None when one run holds every value.

    Only values that ``_gap_free`` does not clear are sorted.
    """
    if _gap_free(values, r0):
        return None
    v = np.sort(values)
    last = np.flatnonzero(np.diff(v) > r0)          # last index of every run but the last
    if len(last) == 0:
        return None
    firsts = v[np.concatenate(([0], last + 1))]
    ends = np.concatenate((last, [len(v) - 1]))
    lasts, sizes = v[ends], np.diff(ends, prepend=-1)
    best = int(np.argmax(sizes))                    # argmax takes the lowest run on ties
    return firsts[best], lasts[best]


def gap_trim(cloud: PointCloud, r0: float) -> PointCloud:
    """Keep the points that lie, on every axis, inside the most populated
    run of coordinates with no gap wider than r0 (a gap of exactly r0
    joins).

    The axes are trimmed in turn, each among the points the earlier ones
    kept, so a non-empty cloud never trims to nothing.  A connected
    component of the r0 radius graph projects onto each axis without such
    a gap, so it is kept or dropped whole.  Point order is preserved; the
    output is a subset of the input, and the input itself when no axis
    drops a point.
    """
    check_number("r0", r0, 0)
    if len(cloud) == 0:
        return cloud
    keep = None
    # contiguous columns: numpy reduces a strided column several times slower
    for coords in cloud.xyz.T.copy():
        run = _densest_run(coords if keep is None else coords[keep], r0)
        if run is not None:
            inside = (coords >= run[0]) & (coords <= run[1])
            keep = inside if keep is None else keep & inside
    return cloud if keep is None else cloud.select(keep)


def _slabs(x: np.ndarray, r0: float) -> tuple[tuple[np.ndarray, int], ...]:
    """Split the points at the median x into two slabs, each as (global
    index of its points, core size).

    Slab 0's core holds the points with x below the cut, followed by its
    halo: the points at most r0 past the cut, which slab 1 owns.  Slab 1
    holds every point at or past the cut and has no halo.
    """
    cut = np.partition(x, len(x) // 2)[len(x) // 2]
    below = x < cut
    core = np.flatnonzero(below)
    halo = np.flatnonzero(~below & (x - cut <= HALO_PAD * r0))
    upper = np.flatnonzero(~below)
    return (np.concatenate((core, halo)), len(core)), (upper, len(upper))


def _slab_pairs(xyz: np.ndarray, index: np.ndarray, n_core: int,
                r0: float) -> tuple[np.ndarray, np.ndarray]:
    """The r0 pairs (i < j) among the slab's points ``xyz[index]`` with at
    least one end in its core (the first ``n_core`` points), as int32 slab
    indices, and each slab point's count of them.

    It runs on the worker thread, so it calls numpy and scipy only, never
    a pilevol function that a tracer may have rebound.
    """
    # an unbalanced, uncompacted tree builds in about half the time and
    # finds the same pair set
    tree = cKDTree(xyz.take(index, axis=0), balanced_tree=False,
                   compact_nodes=False)
    pairs = tree.query_pairs(r0, output_type="ndarray")
    if n_core < len(index):
        # pairs of two halo points are slab 1's
        pairs = np.compress(pairs[:, 0] < n_core, pairs, axis=0)
    counts = np.bincount(pairs.ravel(), minlength=len(index))
    # int32 halves what the two pair lists hold until they are hooked
    return pairs.astype(np.int32), counts


def _radius_graph(xyz: np.ndarray, params: RadiusFilterParams
                  ) -> tuple[list[tuple[np.ndarray, int, np.ndarray]], np.ndarray]:
    """The r0 radius graph, built in two x-slabs at once, and the mask of
    points with >= n_min neighbours.

    Each slab is (global index of its points, core size, its pairs in
    slab indices); every pair of points at most r0 apart lies in exactly
    one slab.  A slab computes a pair's distance from the same coordinates
    as a whole-cloud query, so the pair set and the counts are the same.
    """
    slabs = _slabs(xyz[:, 0], params.r0)
    (pairs0, counts0), (pairs1, counts1) = both(
        _slab_pairs, (xyz, *slabs[0], params.r0), (xyz, *slabs[1], params.r0))
    counts = np.zeros(len(xyz), dtype=counts0.dtype)
    counts[slabs[0][0]] = counts0
    counts[slabs[1][0]] += counts1
    return ([(*slabs[0], pairs0), (*slabs[1], pairs1)],
            counts >= params.n_min)


def _forest(root: np.ndarray, a: np.ndarray, b: np.ndarray,
            loc: np.ndarray | None = None) -> np.ndarray:
    """Hook the edges (a[k], b[k]) onto the forest ``root``, in place, and
    return every point's root.  With ``loc``, the ends are first renumbered
    through it, and edges with an end renumbered to -1 are dropped.  Every
    (renumbered) end must be a root of ``root``.

    Min-label hooking on the edge list: each round hooks every edge's
    larger root onto the smallest root it meets, resolves the roots by
    pointer jumping and keeps only the edges whose ends still have two
    roots.  Each such edge's larger root gets a smaller parent, so the
    number of roots strictly falls every round and the loop ends.  A root
    only ever gets a smaller parent, so when every root of ``root`` is the
    lowest index of its tree, each component ends rooted at its lowest
    index, whatever the edge order.  ``root`` in the edges' dtype keeps
    ``minimum.at`` on its fast path.  It runs on the worker thread, so it
    calls numpy only.
    """
    if loc is not None:
        a, b = loc.take(a), loc.take(b)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if loc is not None:
        kept = lo >= 0
        lo, hi = lo.compress(kept), hi.compress(kept)
    while len(lo):
        np.minimum.at(root, hi, lo)
        while True:
            jumped = root.take(root)
            if np.array_equal(jumped, root):
                break
            root = jumped
        a, b = root.take(lo), root.take(hi)
        cross = a != b
        a, b = a.compress(cross), b.compress(cross)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
    return root


def _labels(root: np.ndarray, min_cluster_size: int) -> ClusterLabels:
    """Cluster labels of a resolved forest: the trees of at least
    ``min_cluster_size`` points, numbered in the order of their roots.
    With each tree rooted at its lowest point index, a tie in
    ``largest_cluster`` goes to the tree holding the earliest point."""
    # a non-root has size 0, so it is never a cluster
    kept = np.bincount(root, minlength=len(root)) >= max(min_cluster_size, 1)
    cluster_id = np.where(kept, np.cumsum(kept) - 1, NOISE)
    return ClusterLabels(labels=cluster_id.take(root),
                         cluster_count=int(kept.sum()))


def radius_outlier_filter(cloud: PointCloud,
                          params: RadiusFilterParams) -> PointCloud:
    """Keep points whose count of other points within r0 is >= n_min.

    Point order is preserved; the output is a subset of the input.
    """
    if len(cloud) == 0:
        return cloud
    return cloud.select(_radius_graph(cloud.xyz, params)[1])


def hdbscan(cloud: PointCloud, params: HdbscanParams) -> ClusterLabels:
    """Cluster the cloud; unclustered points get the NOISE label (-1)."""
    return run_hdbscan(cloud.xyz, params)


def largest_cluster(cloud: PointCloud, labels: ClusterLabels) -> PointCloud:
    """Points of the most populated cluster; ties go to the lowest id.

    Returns an empty cloud when everything is noise.
    """
    if len(labels.labels) != len(cloud):
        raise LabelMismatch(
            f"{len(labels.labels)} labels for a {len(cloud)}-point cloud"
        )
    if labels.cluster_count == 0:
        return PointCloud.empty()
    sizes = labels.cluster_sizes()
    winner = int(np.argmax(sizes))           # argmax takes the lowest id on ties
    return cloud.select(labels.labels == winner)


def robust_filter(cloud: PointCloud, rparams: RadiusFilterParams) -> PointCloud:
    """Radius outlier rejection followed by the largest r0 component of
    at least ``rparams.min_cluster_size`` survivors.

    The components are taken on the pairs of the radius count, so a pass
    makes one pair query per slab.  Each slab hooks the pairs whose two
    ends survive into its own forest over the survivors, and the two
    forests are merged through the halo points they share.
    """
    if len(cloud) == 0:
        return cloud
    slabs, keep = _radius_graph(cloud.xyz, rparams)
    filtered = cloud.select(keep)
    if len(filtered) == 0:
        return filtered
    index = np.where(keep, np.cumsum(keep, dtype=np.int32) - 1, np.int32(-1))
    n = len(filtered)
    (index0, n_core, pairs0), (index1, _, pairs1) = slabs
    root0, root1 = both(
        _forest,
        (np.arange(n, dtype=np.int32), pairs0[:, 0], pairs0[:, 1],
         index.take(index0)),
        (np.arange(n, dtype=np.int32), pairs1[:, 0], pairs1[:, 1],
         index.take(index1)))
    # the two graphs share only slab 0's halo points, and a slab-1 point
    # has no slab-0 edge unless it is one: hook each surviving halo point's
    # slab-0 root onto the slab-0 root of its slab-1 root, then read every
    # point's root through its slab-1 root (a core point's is itself)
    halo = index.take(index0[n_core:])
    halo = halo.compress(halo >= 0)
    merged = _forest(root0, root0.take(halo), root0.take(root1.take(halo)))
    return largest_cluster(filtered, _labels(merged.take(root1),
                                             rparams.min_cluster_size))
