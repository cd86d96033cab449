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

from ._worker import both
from .errors import InvalidParameter, NonFiniteCoordinate

AXIS_INDEX = {"x": 0, "y": 1, "z": 2, "X": 0, "Y": 1, "Z": 2}


class PointCloud:
    """Ordered, immutable collection of 3D points.

    Row order is the storage order and is stable across runs, so
    downstream filters can preserve relative point order deterministically.
    """

    __slots__ = ("_xyz",)

    def __init__(self, xyz):
        # the cloud's own copy: the caller's array stays writable, and a
        # later write to it does not reach the cloud
        self._xyz = _frozen(np.array(xyz, dtype=np.float64, order="C"), validate=True)

    @classmethod
    def _own(cls, xyz: np.ndarray, *, validate: bool = False) -> "PointCloud":
        """A cloud over the C-contiguous float64 (N, 3) ``xyz`` that the
        library has just allocated and hands on, without a copy."""
        cloud = cls.__new__(cls)
        cloud._xyz = _frozen(xyz, validate)
        return cloud

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
            return PointCloud._own(np.compress(rows, self._xyz, axis=0))
        return PointCloud._own(self._xyz[rows])

    def translated(self, offset) -> "PointCloud":
        return PointCloud._own(_add_to_columns(self._xyz.copy(), offset))

    def transformed(self, rotation: np.ndarray, offset=(0.0, 0.0, 0.0)) -> "PointCloud":
        """Apply p' = R @ p + offset to every point."""
        # a C-contiguous R^T takes numpy's fast matmul path; the transposed
        # view is about 3x slower on large clouds
        rt = np.ascontiguousarray(np.asarray(rotation, dtype=np.float64).T)
        rotated = self._xyz @ rt
        return PointCloud._own(_add_to_columns(rotated, offset))

    @staticmethod
    def empty() -> "PointCloud":
        return PointCloud._own(np.empty((0, 3)))


def _frozen(arr: np.ndarray, validate: bool) -> np.ndarray:
    """The float64 ``arr`` as read-only (N, 3) coordinates; with
    ``validate``, a non-finite row is a ``NonFiniteCoordinate``."""
    if arr.size == 0 and arr.shape != (0, 3):
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InvalidParameter(f"expected (N, 3) coordinates, got shape {arr.shape}")
    if validate and arr.size and not np.isfinite(arr).all():
        row = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
        raise NonFiniteCoordinate(row)
    arr.flags.writeable = False
    return arr


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


def _grid_cells(coords: np.ndarray, size: float) -> tuple[np.ndarray, list[int]]:
    """``floor((coords - min) / size)`` of the (N, k) ``coords`` as (N, k)
    int64, the cells of the voxels and of the volume grid, and each column's
    extent, its largest cell + 1; a column that spans 2**63 cells or more is
    an ``InvalidParameter``.

    One column at a time, without the (N, k) broadcast's slow length-k inner
    loop; stored column-major, so each column the keys read is contiguous.
    """
    cells = _empty_cells(coords)
    tops = _cell_columns(coords, size, cells, range(coords.shape[1]))
    return cells, _extents(tops, size)


def _empty_cells(coords: np.ndarray) -> np.ndarray:
    """An uninitialised column-major int64 array shaped like ``coords``."""
    return np.empty((coords.shape[1], len(coords)), dtype=np.int64).T


def _cell_columns(coords: np.ndarray, size: float, cells: np.ndarray,
                  columns) -> list[float]:
    """Write ``floor((col - min) / size)`` of each of the ``columns`` of
    ``coords`` into the same column of ``cells``; return each column's
    largest quotient.  A column whose quotient reaches 2**63 (or is NaN)
    is left unwritten, for ``_extents`` to reject.

    It runs on the worker thread, so it calls numpy only.
    """
    tops = []
    for k in columns:
        col = coords[:, k]
        with np.errstate(over="ignore"):    # an overflow is inf, rejected later
            quotient = col - col.min()
            quotient /= size
        top = float(quotient.max())
        if top < 2.0 ** 63:
            # the quotient is non-negative, so the truncating cast is the floor
            cells[:, k] = quotient
        tops.append(top)
    return tops


def _extents(tops: list[float], size: float) -> list[int]:
    """Each column's extent, its largest cell + 1, from its largest
    quotient; a quotient of 2**63 or more is an ``InvalidParameter``."""
    for top in tops:
        if not top < 2.0 ** 63:
            raise InvalidParameter(f"cell size {size} puts 2**63 or more cells "
                                   "along one axis, past an int64 index")
    return [int(top) + 1 for top in tops]


def cell_means(coords: np.ndarray, size: float,
               values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the points of the non-empty (N, k) ``coords`` into the cells of
    ``_grid_cells`` and average the (N, j) ``values`` over each occupied cell.

    Returns the (M, j) means, one row per cell in sorted cell order, and each
    cell's lowest point index.
    """
    return _cell_means(*_grid_cells(coords, size), values)


def _cell_means(cells: np.ndarray, extent: list[int],
                values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cell_means`` over the (N, k) ``cells``, whose column k lies below
    ``extent[k]``.  ``np.bincount`` adds each cell's members in point order,
    so a mean does not depend on how the cells are numbered."""
    number, first = _number_cells(cells, extent)
    m = len(first)
    counts = np.bincount(number, minlength=m)
    means = np.empty((m, values.shape[1]))
    for k in range(values.shape[1]):
        np.divide(np.bincount(number, weights=values[:, k], minlength=m), counts,
                  out=means[:, k])
    return means, first


def _number_cells(cells: np.ndarray,
                  extent: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of the non-negative (N, k) integer ``cells``,
    whose column k lies below ``extent[k]``, in sorted (lexicographic)
    order; return each row's number and each number's lowest row index.

    The rows are keyed as int64 in that order.  When the cells' bounding box
    spans at most 4 keys per row, a direct-addressed table of at most 4*N
    intp entries (32 bytes per row) numbers them with no sort; a sparser
    grid, such as one stretched by a far stray point, sorts the keys; and a
    box of more keys than int64 holds, past a far outlier, falls back to the
    row-wise ``np.unique``.
    """
    n, width = cells.shape
    span = math.prod(extent)
    if span > np.iinfo(np.int64).max:
        _, first, number = np.unique(cells, axis=0, return_index=True,
                                     return_inverse=True)
        return number.reshape(n), first
    key = cells[:, 0].copy()
    for k in range(1, width):
        key *= extent[k]
        key += cells[:, k]
    if span <= 4 * n:
        # the table holds each key's lowest row index, or n where unoccupied;
        # the occupied keys, in sorted order, then get their ranks in place
        table = np.full(span, n)
        np.minimum.at(table, key, np.arange(n))
        occupied = np.flatnonzero(table < n)
        first = table.take(occupied)
        table[occupied] = np.arange(len(occupied))
        return table.take(key), first
    # an unstable sort groups equal keys, so each run's lowest row index is
    # its minimum, not necessarily its first entry
    order = np.argsort(key)
    sorted_key = key[order]
    new_run = np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))
    number = np.empty(n, dtype=np.intp)
    number[order] = np.cumsum(new_run) - 1
    return number, np.minimum.reduceat(order, np.flatnonzero(new_run))


def voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """Replace the points of every occupied voxel by their centroid.

    The voxels are the cubes of ``_grid_cells``, anchored at the cloud's min
    corner so the result is deterministic for a given cloud.  Output points
    are ordered by first-occurring member point, which keeps repeated runs
    identical.
    """
    if not (math.isfinite(voxel_size) and voxel_size > 0):
        raise InvalidParameter(f"voxel_size must be finite and > 0, got {voxel_size}")
    if len(cloud) == 0:
        return cloud
    xyz = cloud.xyz
    # the cells form on two threads, as N-element passes that release the
    # GIL: the x and y cells here and the z cells on the worker
    cells = _empty_cells(xyz)
    tops_xy, tops_z = both(_cell_columns, (xyz, voxel_size, cells, (0, 1)),
                           (xyz, voxel_size, cells, (2,)))
    centroids, first = _cell_means(cells, _extents(tops_xy + tops_z, voxel_size), xyz)
    # list the voxels by first point; take copies the rows several times
    # faster than a fancy index
    return PointCloud._own(centroids.take(np.argsort(first), axis=0))
