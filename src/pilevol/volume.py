"""Volume estimators.

The column integrators are the measurement core: volume as the sum of
(ground element area x column height) over a calibrated cloud.  The grid
variant, the one the pipeline runs, reads each xy cell of the voxel
pass's lattice (``cloud.cell_means``) at its points' mean height, so memory
follows the ground area rather than the 3D extent.  The uniform variant is
the paper's per-point integration: every point gets an equal ground
footprint derived from the known scene area.  It, the slice-stacking and
the Qhull convex-hull estimators are comparison baselines with their known
pathologies.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .cloud import PointCloud, cell_means
from .errors import DegenerateCloud, DegenerateInput, InvalidParameter

METHOD_COLUMN_UNIFORM = "COLUMN_UNIFORM"
METHOD_COLUMN_GRID = "COLUMN_GRID"
METHOD_SLICE = "SLICE"
METHOD_HULL3D = "HULL3D"


@dataclass(frozen=True)
class GridSpec:
    """Square XY cells, aligned to the cloud's min corner."""

    cell_size: float = 0.025

    def __post_init__(self):
        if not isinstance(self.cell_size, numbers.Real) or isinstance(self.cell_size, bool):
            raise InvalidParameter(f"cell_size must be a number, got {self.cell_size!r}")
        # a finite area also rules out a cell so large its area overflows
        if not (math.isfinite(self.cell_size * self.cell_size) and self.cell_size > 0):
            raise InvalidParameter(
                f"cell_size must be > 0 with a finite area, got {self.cell_size}")


@dataclass(frozen=True)
class VolumeEstimate:
    volume: float
    method: str
    params_used: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def footprint_area(scene_area: float, point_count: int) -> float:
    """Ground element area per point under the uniform-sampling assumption."""
    if not (math.isfinite(scene_area) and scene_area > 0):
        raise InvalidParameter(f"scene_area must be finite and > 0, got {scene_area}")
    if point_count <= 0:
        raise InvalidParameter(f"point_count must be > 0, got {point_count}")
    return scene_area / point_count


def column_volume_uniform(cloud: PointCloud, element_area: float) -> VolumeEstimate:
    """Sum of element_area x z over all points.

    Below-ground heights stay negative, matching the single-pass
    integration that skips a positivity test.
    """
    if not (math.isfinite(element_area) and element_area > 0):
        raise InvalidParameter(
            f"element_area must be finite and > 0, got {element_area}")
    volume = element_area * float(cloud.xyz[:, 2].sum())
    return VolumeEstimate(
        volume=volume,
        method=METHOD_COLUMN_UNIFORM,
        params_used={"element_area": element_area},
        diagnostics={"point_count": len(cloud)},
    )


def column_volume_grid(cloud: PointCloud, grid: GridSpec = GridSpec()) -> VolumeEstimate:
    """Rasterized column integration over occupied ground cells.

    Each nonempty cell of ``cell_means`` on x and y contributes cell_area x
    the mean of its member z values, clamped at zero so the estimate is never
    negative.  Memory scales with the number of occupied cells.
    """
    xyz = cloud.xyz
    volume, n_cells = 0.0, 0
    if len(cloud):
        means = cell_means(xyz[:, :2], grid.cell_size, xyz[:, 2:])[0]
        n_cells = len(means)
        # the clamped heights are summed in sorted cell order
        volume = grid.cell_size ** 2 * float(np.maximum(means[:, 0], 0.0).sum())
    return VolumeEstimate(
        volume=volume,
        method=METHOD_COLUMN_GRID,
        params_used={"cell_size": grid.cell_size},
        diagnostics={"point_count": len(cloud), "cell_count": n_cells},
    )


def slice_volume(cloud: PointCloud, interval: float) -> VolumeEstimate:
    """Stacked-slab baseline: per z-layer 2D hull area x layer thickness.

    Layers start at z = 0; layers with fewer than 3 points (or collinear
    points) contribute nothing, which is the known low-interval failure of
    the method, while large intervals overestimate by integrating each
    layer's full footprint over its whole thickness.
    """
    if not (math.isfinite(interval) and interval > 0):
        raise InvalidParameter(f"interval must be finite and > 0, got {interval}")
    xyz = cloud.xyz
    total = 0.0
    n_layers = 0
    above = xyz[xyz[:, 2] >= 0.0]
    layer_idx = np.floor(above[:, 2] / interval).astype(np.int64)
    order = np.argsort(layer_idx, kind="stable")
    boundaries = np.flatnonzero(np.diff(layer_idx[order])) + 1
    for block in np.split(order, boundaries):
        try:
            _, area = convex_hull_2d(above[block][:, :2])
        except DegenerateInput:     # under 3 points, or collinear
            continue
        total += area * interval
        n_layers += 1
    return VolumeEstimate(
        volume=total,
        method=METHOD_SLICE,
        params_used={"interval": interval},
        diagnostics={"point_count": len(cloud), "slice_count": n_layers},
    )


def hull3d_volume(cloud: PointCloud) -> VolumeEstimate:
    """Exact convex hull volume, as Qhull computes it."""
    if len(cloud) < 4:
        raise DegenerateCloud(f"3D hull needs >= 4 points, got {len(cloud)}")
    try:
        hull = ConvexHull(cloud.xyz)
    except QhullError as exc:
        raise DegenerateCloud(f"degenerate cloud for 3D hull: {exc}") from exc
    return VolumeEstimate(
        volume=float(hull.volume),
        method=METHOD_HULL3D,
        params_used={},
        diagnostics={"point_count": len(cloud),
                     "hull_vertex_count": int(len(hull.vertices))},
    )


def convex_hull_2d(points: Sequence | np.ndarray) -> tuple[np.ndarray, float]:
    """2D convex hull from Qhull: its vertices, counter-clockwise, and the
    area they enclose.

    Raises:
        DegenerateInput: fewer than 3 points, or all coincident or collinear.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if len(pts) < 3:
        raise DegenerateInput(f"2D hull needs >= 3 points, got {len(pts)}")
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateInput(f"degenerate points for 2D hull: {exc}") from exc
    # in 2D Qhull lists the vertices counter-clockwise, and "volume" is area
    return pts[hull.vertices], float(hull.volume)
