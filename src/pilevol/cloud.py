"""Point cloud container and elementary geometry operations.

A cloud is stored as an immutable (N, 3) float64 array of x, y, z
coordinates in meters, one point per row.  All operations are pure:
they return new clouds and never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameter, NonFiniteCoordinate

AXIS_INDEX = {"x": 0, "y": 1, "z": 2, "X": 0, "Y": 1, "Z": 2}


class PointCloud:
    """Ordered, immutable collection of 3D points.

    Row order is the storage order and is stable across runs, so
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

    def __len__(self) -> int:
        return self._xyz.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return self._xyz.shape == other._xyz.shape and bool(
            np.array_equal(self._xyz, other._xyz)
        )

    def __repr__(self) -> str:
        return f"PointCloud({len(self)} points)"

    def select(self, mask_or_indices) -> "PointCloud":
        """New cloud keeping the given rows, in their original order."""
        rows = np.asarray(mask_or_indices)
        if rows.dtype == bool and rows.shape == (len(self),):
            # compress copies the kept rows several times faster than a
            # boolean index on (N, 3) rows
            return PointCloud(np.compress(rows, self._xyz, axis=0), validate=False)
        return PointCloud(self._xyz[rows], validate=False)

    def translated(self, offset) -> "PointCloud":
        return PointCloud(_add_to_columns(self._xyz.copy(), offset), validate=False)

    def transformed(self, rotation: np.ndarray, offset=(0.0, 0.0, 0.0)) -> "PointCloud":
        """Apply p' = R @ p + offset to every point."""
        # a C-contiguous R^T takes numpy's fast matmul path; the transposed
        # view is about 3x slower on large clouds
        rt = np.ascontiguousarray(np.asarray(rotation, dtype=np.float64).T)
        rotated = self._xyz @ rt
        return PointCloud(_add_to_columns(rotated, offset), validate=False)

    @staticmethod
    def empty() -> "PointCloud":
        return PointCloud(np.empty((0, 3)), validate=False)


def _add_to_columns(xyz: np.ndarray, offset) -> np.ndarray:
    """Add the 3-vector ``offset`` to the (N, 3) ``xyz`` in place, one column
    at a time: the same sums as ``xyz + offset``, without the broadcast's
    slow length-3 inner loop."""
    for k, value in enumerate(np.asarray(offset, dtype=np.float64).reshape(3)):
        xyz[:, k] += value
    return xyz


@dataclass(frozen=True)
class AxisRange:
    """Closed interval constraint on one coordinate axis.

    Either bound may be infinite, for an open end; NaN is rejected, and
    lo <= hi is required.
    """

    axis: str
    lo: float = -np.inf
    hi: float = np.inf

    def __post_init__(self):
        if self.axis not in AXIS_INDEX:
            raise InvalidParameter(f"axis must be one of X/Y/Z, got {self.axis!r}")
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise InvalidParameter(f"AxisRange bounds must not be NaN, got "
                                   f"{self.lo}, {self.hi}")
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


def grid_cells(coords: np.ndarray, size: float) -> np.ndarray:
    """``floor((coords - min) / size)`` of the (N, k) ``coords`` as (N, k)
    int64, the cells of the voxels and of the volume grid; a column that
    spans 2**63 cells or more is an ``InvalidParameter``.

    One column at a time, without the (N, k) broadcast's slow length-k inner
    loop; stored column-major, so each column the keys read is contiguous.
    """
    cells = np.empty((coords.shape[1], len(coords)), dtype=np.int64).T
    for k in range(coords.shape[1]):
        col = coords[:, k]
        with np.errstate(over="ignore"):    # an overflow is inf, rejected below
            quotient = (col - col.min()) / size
        if not quotient.max() < 2.0 ** 63:
            raise InvalidParameter(f"cell size {size} puts 2**63 or more cells "
                                   "along one axis, past an int64 index")
        cells[:, k] = np.floor(quotient, out=quotient)
    return cells


def voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """Replace the points of every occupied voxel by their centroid.

    The voxels are the cubes of ``grid_cells``, anchored at the cloud's min
    corner so the result is deterministic for a given cloud.  Output points
    are ordered by first-occurring member point, which keeps repeated runs
    identical.

    When the occupied cells' bounding box spans at most 4 cells per point,
    the cells are numbered through a direct-addressed table of at most 4*N
    intp entries (32 bytes per point) and no sort; a sparser grid, such as
    one stretched by a far stray point, sorts the cell keys instead.
    """
    if not (math.isfinite(voxel_size) and voxel_size > 0):
        raise InvalidParameter(f"voxel_size must be finite and > 0, got {voxel_size}")
    if len(cloud) == 0:
        return cloud
    xyz = cloud.xyz
    inverse, n_cells = _first_occurrence_cells(grid_cells(xyz, voxel_size))
    counts = np.bincount(inverse, minlength=n_cells).astype(np.float64)
    centroids = np.empty((n_cells, 3))
    for k in range(3):
        # bincount adds each cell's members in point order
        np.divide(np.bincount(inverse, weights=xyz[:, k], minlength=n_cells), counts,
                  out=centroids[:, k])
    return PointCloud(centroids, validate=False)


def _keys_and_span(cells: np.ndarray) -> tuple[np.ndarray | None, int]:
    """One int64 key per row of the non-negative (N, k) integer ``cells``,
    ordered as the rows sort lexicographically (so sorted keys number the
    rows as ``np.unique(cells, axis=0)`` does), and the number of keys the
    cells' bounding box spans.  The key is None when the span overflows
    int64, e.g. past a far outlier; callers then use the row-wise unique.
    """
    extent = [int(cells[:, k].max()) + 1 for k in range(cells.shape[1])]
    span = math.prod(extent)
    if span > np.iinfo(np.int64).max:
        return None, span
    key = cells[:, 0]
    for k in range(1, cells.shape[1]):
        key = key * extent[k] + cells[:, k]
    return key, span


def _first_occurrence_cells(cells: np.ndarray) -> tuple[np.ndarray, int]:
    """Number the distinct rows of the non-negative (N, 3) ``cells`` in order
    of first occurrence; return each row's number and the count."""
    n = cells.shape[0]
    key, span = _keys_and_span(cells)
    if key is not None and span <= 4 * n:
        # a table over every key holds each cell's lowest point index; the
        # points that are their cell's first are numbered in point order
        point = np.arange(n)
        first = np.full(span, n)
        np.minimum.at(first, key, point)
        first_of = first[key]
        number = np.cumsum(first_of == point) - 1
        return number[first_of], int(number[-1]) + 1
    if key is None:
        _, first_idx, run_of = np.unique(cells, axis=0, return_index=True,
                                         return_inverse=True)
    else:
        # an unstable sort groups equal keys; each run's first row is the
        # lowest point index in it
        order = np.argsort(key)
        sorted_key = key[order]
        new_run = np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))
        starts = np.flatnonzero(new_run)
        first_idx = np.minimum.reduceat(order, starts)
        run_of = np.empty(len(key), dtype=np.intp)
        run_of[order] = np.cumsum(new_run) - 1
    rank = np.empty(first_idx.shape[0], dtype=np.intp)
    rank[np.argsort(first_idx)] = np.arange(first_idx.shape[0])
    return rank[run_of], first_idx.shape[0]
