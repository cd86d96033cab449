"""Robust noise removal: radius outlier rejection and dominant-cluster
extraction.

The radius filter keeps points with at least n_min other points within
r0.  The counts come from a kd-tree ball query and are contractually
identical to the naive all-pairs loop, which the test suite checks
against a brute-force oracle.  Cluster extraction runs the
mutual-reachability clustering chain and keeps the most populated cluster,
isolating the measured pile from residual clutter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import InvalidParameter, LabelMismatch
from ._hdbscan import NOISE, ClusterLabels, HdbscanParams, run_hdbscan

__all__ = [
    "RadiusFilterParams",
    "HdbscanParams",
    "ClusterLabels",
    "radius_outlier_filter",
    "hdbscan",
    "largest_cluster",
    "robust_filter",
]


@dataclass(frozen=True)
class RadiusFilterParams:
    r0: float = 0.015        # neighborhood radius, meters
    n_min: int = 4           # minimum neighbor count (excluding the point)

    def __post_init__(self):
        if self.r0 <= 0:
            raise InvalidParameter(f"r0 must be > 0, got {self.r0}")
        if self.n_min < 0:
            raise InvalidParameter(f"n_min must be >= 0, got {self.n_min}")


def radius_outlier_filter(cloud: PointCloud,
                          params: RadiusFilterParams) -> PointCloud:
    """Keep points whose count of other points within r0 is >= n_min.

    Point order is preserved; the output is a subset of the input.
    """
    if len(cloud) == 0:
        return cloud
    # the ball around each point includes the point itself
    counts = cKDTree(cloud.xyz).query_ball_point(
        cloud.xyz, params.r0, return_length=True) - 1
    return cloud.select(counts >= params.n_min)


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


def robust_filter(cloud: PointCloud, rparams: RadiusFilterParams,
                  hparams: HdbscanParams) -> PointCloud:
    """Radius outlier rejection followed by largest-cluster extraction."""
    filtered = radius_outlier_filter(cloud, rparams)
    if len(filtered) == 0:
        return filtered
    labels = hdbscan(filtered, hparams)
    return largest_cluster(filtered, labels)
