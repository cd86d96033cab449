"""Point cloud container and elementary geometry operations.

A cloud is stored as an immutable (N, 3) float64 array of x, y, z
coordinates in meters, one point per row.  All operations are pure:
they return new clouds and never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import EmptyCloud, InvalidParameter, NonFiniteCoordinate

AXIS_INDEX = {"x": 0, "y": 1, "z": 2, "X": 0, "Y": 1, "Z": 2}


class Point3(NamedTuple):
    x: float
    y: float
    z: float


class PointCloud:
    """Ordered, immutable collection of 3D points.

    Iteration order is the storage order and is stable across runs, so
    downstream filters can preserve relative point order deterministically.
    """

    __slots__ = ("_xyz",)

    def __init__(self, xyz, *, validate: bool = True):
        arr = np.asarray(xyz, dtype=np.float64)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise InvalidParameter(f"expected (N, 3) coordinates, got shape {arr.shape}")
        if validate and arr.size and not np.isfinite(arr).all():
            row = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
            raise NonFiniteCoordinate(row)
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        self._xyz = arr

    @property
    def xyz(self) -> np.ndarray:
        """(N, 3) read-only coordinate array."""
        return self._xyz

    @property
    def count(self) -> int:
        return self._xyz.shape[0]

    def __len__(self) -> int:
        return self._xyz.shape[0]

    def __iter__(self) -> Iterable[Point3]:
        for row in self._xyz:
            yield Point3(*row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return self._xyz.shape == other._xyz.shape and bool(
            np.array_equal(self._xyz, other._xyz)
        )

    def __repr__(self) -> str:
        return f"PointCloud({self.count} points)"

    def select(self, mask_or_indices) -> "PointCloud":
        """New cloud keeping the given rows, in their original order."""
        return PointCloud(self._xyz[mask_or_indices], validate=False)

    def translated(self, offset) -> "PointCloud":
        return PointCloud(self._xyz + np.asarray(offset, dtype=np.float64), validate=False)

    def transformed(self, rotation: np.ndarray, offset=(0.0, 0.0, 0.0)) -> "PointCloud":
        """Apply p' = R @ p + offset to every point."""
        rotated = self._xyz @ np.asarray(rotation, dtype=np.float64).T
        return PointCloud(rotated + np.asarray(offset, dtype=np.float64), validate=False)

    @staticmethod
    def empty() -> "PointCloud":
        return PointCloud(np.empty((0, 3)), validate=False)


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned bounding box; min_corner <= max_corner componentwise."""

    min_corner: Point3
    max_corner: Point3

    def __post_init__(self):
        if any(lo > hi for lo, hi in zip(self.min_corner, self.max_corner)):
            raise InvalidParameter("Aabb min corner exceeds max corner")

    def contains(self, points: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.min_corner)
        hi = np.asarray(self.max_corner)
        return ((points >= lo) & (points <= hi)).all(axis=1)


@dataclass(frozen=True)
class AxisRange:
    """Closed interval constraint on one coordinate axis.

    Either bound may be infinite; lo <= hi is required when both are finite.
    """

    axis: str
    lo: float = -np.inf
    hi: float = np.inf

    def __post_init__(self):
        if self.axis not in AXIS_INDEX:
            raise InvalidParameter(f"axis must be one of X/Y/Z, got {self.axis!r}")
        if self.lo > self.hi:
            raise InvalidParameter(f"AxisRange lo {self.lo} > hi {self.hi}")


def passthrough_filter(cloud: PointCloud, ranges: Sequence[AxisRange]) -> PointCloud:
    """Keep points satisfying lo <= coordinate <= hi for every range.

    Both ends are inclusive.  Relative point order is preserved; an empty
    range list returns the cloud unchanged.
    """
    if not ranges:
        return cloud
    xyz = cloud.xyz
    mask = np.ones(len(cloud), dtype=bool)
    for rng in ranges:
        col = xyz[:, AXIS_INDEX[rng.axis]]
        mask &= (col >= rng.lo) & (col <= rng.hi)
    return cloud.select(mask)


def voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """Replace the points of every occupied voxel by their centroid.

    The voxel grid is a lattice of axis-aligned cubes of side ``voxel_size``,
    anchored at the cloud's min corner so the result is deterministic for a
    given cloud.  Output points are ordered by first-occurring member point,
    which keeps repeated runs identical.
    """
    if voxel_size <= 0:
        raise InvalidParameter(f"voxel_size must be > 0, got {voxel_size}")
    if len(cloud) == 0:
        return cloud
    xyz = cloud.xyz
    anchor = xyz.min(axis=0)
    cells = np.floor((xyz - anchor) / voxel_size).astype(np.int64)
    inverse, n_cells = _first_occurrence_cells(cells)
    counts = np.bincount(inverse, minlength=n_cells).astype(np.float64)
    centroids = np.column_stack([
        np.bincount(inverse, weights=xyz[:, k], minlength=n_cells) for k in range(3)
    ]) / counts[:, None]
    return PointCloud(centroids, validate=False)


def _first_occurrence_cells(cells: np.ndarray) -> tuple[np.ndarray, int]:
    """Number the distinct rows of the non-negative (N, 3) ``cells`` in order
    of first occurrence; return each row's number and the count."""
    extent = [int(v) + 1 for v in cells.max(axis=0)]
    if math.prod(extent) <= np.iinfo(np.int64).max:
        # one int64 key per cell; a stable sort keeps each run's first row first
        key = (cells[:, 0] * extent[1] + cells[:, 1]) * extent[2] + cells[:, 2]
        _, first_idx, run_of = np.unique(key, return_index=True, return_inverse=True)
    else:
        # the key would overflow (e.g. a far outlier): unique over the rows
        _, first_idx, run_of = np.unique(cells, axis=0, return_index=True,
                                         return_inverse=True)
    rank = np.empty(first_idx.shape[0], dtype=np.intp)
    rank[np.argsort(first_idx, kind="stable")] = np.arange(first_idx.shape[0])
    return rank[run_of], first_idx.shape[0]


def bounding_box(cloud: PointCloud) -> Aabb:
    """Tight componentwise min/max box of a nonempty cloud."""
    if len(cloud) == 0:
        raise EmptyCloud("bounding_box requires at least one point")
    lo = cloud.xyz.min(axis=0)
    hi = cloud.xyz.max(axis=0)
    return Aabb(Point3(*lo), Point3(*hi))
