"""Robust noise removal: radius outlier rejection and dominant-cluster
extraction.

The radius filter keeps points with at least n_min other points within
r0.  The counts come from one kd-tree pair query (every pair within r0,
each counted at both ends) and are contractually identical to the naive
all-pairs loop, which the test suite checks against a brute-force oracle.
Cluster extraction keeps the most populated cluster, isolating the
measured pile from residual clutter.  Two cluster steps are selectable:

- ``CLUSTER_COMPONENTS`` (the default): the connected components of the
  r0 radius graph among the surviving points, reusing the pairs the count
  was taken from.  This is DBSCAN-style clustering (Ester et al., KDD
  1996), as in PCL's Euclidean cluster extraction.  The components come
  from min-label hooking on the pair list itself (Shiloach & Vishkin,
  J. Algorithms 1982), with no sparse matrix: each round hooks every
  edge's larger root onto its smaller one, resolves the roots by pointer
  jumping and drops the edges inside one root.  Every root that still
  has a cross edge is hooked onto a smaller root, so the number of roots
  strictly falls and the loop ends; each component is rooted at its
  lowest point index.
- ``CLUSTER_HDBSCAN``: the paper's mutual-reachability clustering chain
  (``pilevol._hdbscan``), kept as the reference mode.

Either way, clusters of fewer than ``min_cluster_size`` points are noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import InvalidParameter, LabelMismatch
from ._hdbscan import (NOISE, ClusterLabels, HdbscanParams, _components,
                       run_hdbscan)

CLUSTER_COMPONENTS = "COMPONENTS"
CLUSTER_HDBSCAN = "HDBSCAN"

__all__ = [
    "CLUSTER_COMPONENTS",
    "CLUSTER_HDBSCAN",
    "RadiusFilterParams",
    "HdbscanParams",
    "ClusterLabels",
    "radius_outlier_filter",
    "hdbscan",
    "radius_components",
    "largest_cluster",
    "robust_filter",
]


@dataclass(frozen=True)
class RadiusFilterParams:
    r0: float = 0.015        # neighborhood radius, meters
    n_min: int = 4           # minimum neighbor count (excluding the point)

    def __post_init__(self):
        if not (math.isfinite(self.r0) and self.r0 > 0):
            raise InvalidParameter(f"r0 must be finite and > 0, got {self.r0}")
        if self.n_min < 0:
            raise InvalidParameter(f"n_min must be >= 0, got {self.n_min}")


def _radius_graph(xyz: np.ndarray,
                  params: RadiusFilterParams) -> tuple[np.ndarray, np.ndarray]:
    """The r0 radius graph: every index pair (i < j) at most r0 apart, as
    an (m, 2) array, and the mask of points with >= n_min such neighbors."""
    # an unbalanced, uncompacted tree builds in about half the time and
    # finds the same pair set
    tree = cKDTree(xyz, balanced_tree=False, compact_nodes=False)
    pairs = tree.query_pairs(params.r0, output_type="ndarray")
    counts = np.bincount(pairs.ravel(), minlength=len(xyz))
    return pairs, counts >= params.n_min


def _survivor_edges(xyz: np.ndarray,
                    params: RadiusFilterParams) -> tuple[np.ndarray, np.ndarray]:
    """The radius survivor mask, and the r0 pairs whose two ends survive,
    renumbered onto the surviving points.

    The pair list is the largest array of a filter pass and is freed on
    return.  Edges are int32, 8 bytes per edge instead of 16.
    """
    pairs, keep = _radius_graph(xyz, params)
    index = np.cumsum(keep, dtype=np.int32) - 1
    both_kept = keep[pairs[:, 0]] & keep[pairs[:, 1]]
    return keep, index[np.compress(both_kept, pairs, axis=0)]


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


def radius_components(n: int, pairs: np.ndarray,
                      min_cluster_size: int) -> ClusterLabels:
    """Connected components of the graph on ``n`` points whose edges are
    ``pairs``; components under ``min_cluster_size`` points are NOISE.

    Min-label hooking on the edge list: each round hooks every edge's
    larger root onto the smallest root it meets, resolves the roots by
    pointer jumping and keeps only the edges whose ends still have two
    roots.  Each such edge's larger root gets a smaller parent, so the
    number of roots strictly falls every round and the loop ends.  A
    root only ever gets a smaller parent, so each component ends rooted
    at its lowest point index.  Cluster ids follow that index, so a tie
    in ``largest_cluster`` goes to the component holding the earliest
    point.
    """
    # root in the edges' dtype keeps minimum.at on its fast path
    root = np.arange(n, dtype=pairs.dtype)
    a, b = pairs[:, 0], pairs[:, 1]
    while len(a):
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        np.minimum.at(root, hi, lo)
        root = _components(root)
        a, b = root[lo], root[hi]
        cross = a != b
        a, b = a[cross], b[cross]
    # a non-root has size 0, so it is never a cluster
    kept = np.bincount(root, minlength=n) >= max(min_cluster_size, 1)
    cluster_id = np.where(kept, np.cumsum(kept) - 1, NOISE)
    return ClusterLabels(labels=cluster_id[root],
                         cluster_count=int(kept.sum()))


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


def robust_filter(cloud: PointCloud, rparams: RadiusFilterParams,
                  hparams: HdbscanParams,
                  method: str = CLUSTER_COMPONENTS) -> PointCloud:
    """Radius outlier rejection followed by largest-cluster extraction.

    ``CLUSTER_COMPONENTS`` clusters on the pairs of the radius count, so a
    pass makes one kd-tree query, and reads ``hparams.min_cluster_size``
    alone; ``CLUSTER_HDBSCAN`` runs the paper's chain on the survivors.
    """
    if method == CLUSTER_HDBSCAN:
        filtered = radius_outlier_filter(cloud, rparams)
        if len(filtered) == 0:
            return filtered
        return largest_cluster(filtered, hdbscan(filtered, hparams))
    if method != CLUSTER_COMPONENTS:
        raise InvalidParameter(f"unknown cluster method {method!r}")
    if len(cloud) == 0:
        return cloud
    keep, edges = _survivor_edges(cloud.xyz, rparams)
    filtered = cloud.select(keep)
    if len(filtered) == 0:
        return filtered
    labels = radius_components(len(filtered), edges, hparams.min_cluster_size)
    return largest_cluster(filtered, labels)
