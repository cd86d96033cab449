"""Point cloud container and elementary geometry operations.

A cloud is stored as an immutable (N, 3) float64 array of x, y, z
coordinates in meters, one point per row.  All operations are pure:
they return new clouds and never mutate their inputs.
"""

from __future__ import annotations

import math
import numbers
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
        for bound in (self.lo, self.hi):
            if not isinstance(bound, numbers.Real) or isinstance(bound, bool):
                raise InvalidParameter(f"AxisRange bounds must be numbers, got {bound!r}")
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


# rows per chunk of the cell kernel's passes, the scene generator and the
# text writers: their buffers are this long, so the table path's only
# N-long array is the int64 cell keys.  A whole number of SIMD vectors, so
# a chunked elementwise pass leaves its scalar tail on the same rows as one
# pass over the whole array.
_CHUNK = 1 << 14


def _chunks(n: int) -> list[slice]:
    """The slices of ``_CHUNK`` rows, the last one shorter, that cover
    ``n`` rows in order."""
    return [slice(start, min(start + _CHUNK, n)) for start in range(0, n, _CHUNK)]


def cell_means(coords: np.ndarray, size: float,
               values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the points of the non-empty (N, k) ``coords`` into cells of side
    ``size``, ``floor((coords - min) / size)``, and average the (N, j)
    ``values`` over each occupied cell: the voxels and the volume grid.

    Returns the (M, j) means, one row per cell in sorted (lexicographic)
    cell order, and each cell's lowest point index.  An axis that spans
    2**63 cells or more is an ``InvalidParameter``.

    The cells are keyed as int64 in sorted order, ``_CHUNK`` rows at a
    time.  When the cells' bounding box spans at most 4 keys per row, a
    direct-addressed table of at most 4*N intp entries (32 bytes per row)
    numbers them with no sort; a sparser grid, such as one stretched by a
    far stray point, sorts the keys; and a box of more keys than int64
    holds, past a far outlier, falls back to the row-wise ``np.unique``.
    Each cell's members are added in point order, the additions of one
    ``np.bincount``, so a mean does not depend on the chunks or on how the
    cells are numbered.
    """
    n, width = coords.shape
    chunks = _chunks(n)
    # each chunk's coordinates, one contiguous row per axis: reading the
    # strided columns of an (N, 3) cloud directly takes about twice as long
    axes = np.empty((width, min(n, _CHUNK)))

    def chunk_axes(rows: slice) -> np.ndarray:
        out = axes[:, :rows.stop - rows.start]
        np.copyto(out, coords[rows].T)
        return out

    lo, hi = np.full(width, np.inf), np.full(width, -np.inf)
    for rows in chunks:
        part = chunk_axes(rows)
        np.minimum(lo, part.min(axis=1), out=lo)
        np.maximum(hi, part.max(axis=1), out=hi)
    # (max - min) / size is the largest quotient, as subtraction and
    # division round monotonically; an overflow is inf, rejected here
    tops = [(top - bottom) / size for bottom, top in zip(lo.tolist(), hi.tolist())]
    if not all(top < 2.0 ** 63 for top in tops):
        raise InvalidParameter(f"cell size {size} puts 2**63 or more cells "
                               "along one axis, past an int64 index")
    extent = [int(top) + 1 for top in tops]
    span = math.prod(extent)
    origin = lo[:, None]

    def quotients(rows: slice) -> np.ndarray:
        # non-negative, so the truncating cast to int64 is the floor
        part = chunk_axes(rows)
        part -= origin
        part /= size
        return part

    table = number = None
    if span > np.iinfo(np.int64).max:
        grid = np.empty((width, n), dtype=np.int64)
        for rows in chunks:
            grid[:, rows] = quotients(rows)
        _, first, number = np.unique(grid.T, axis=0, return_index=True,
                                     return_inverse=True)
        number = number.reshape(n)
    else:
        key = np.empty(n, dtype=np.int64)
        cell = np.empty(axes.shape[1], dtype=np.int64)
        if span <= 4 * n:
            # the table holds each key's lowest row index, or n where
            # unoccupied; the occupied keys, in sorted order, then get
            # their ranks in place
            table = np.full(span, n)
        for rows in chunks:
            part = quotients(rows)
            chunk_key = key[rows]
            chunk_key[...] = part[0]
            chunk_cell = cell[:len(chunk_key)]
            for k in range(1, width):
                chunk_key *= extent[k]
                chunk_cell[...] = part[k]
                chunk_key += chunk_cell
            if table is not None:
                np.minimum.at(table, chunk_key, np.arange(rows.start, rows.stop))
        if table is not None:
            occupied = np.flatnonzero(table < n)
            first = table.take(occupied)
            table[occupied] = np.arange(len(occupied))
        else:
            # an unstable sort groups equal keys, so each run's lowest row
            # index is its minimum, not necessarily its first entry
            order = np.argsort(key)
            sorted_key = key[order]
            new_run = np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))
            number = np.empty(n, dtype=np.intp)
            number[order] = np.cumsum(new_run) - 1
            first = np.minimum.reduceat(order, np.flatnonzero(new_run))
    m = len(first)
    counts = np.zeros(m, dtype=np.intp)
    sums = np.zeros((values.shape[1], m))
    for rows in chunks:
        chunk_number = table.take(key[rows]) if table is not None else number[rows]
        counts += np.bincount(chunk_number, minlength=m)
        for k, total in enumerate(sums):
            np.add.at(total, chunk_number, values[rows, k])
    for total in sums:
        total /= counts
    return sums.T, first


def voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """Replace the points of every occupied voxel by their centroid.

    The voxels are the cells of ``cell_means``, anchored at the cloud's min
    corner so the result is deterministic for a given cloud.  Output points
    are ordered by first-occurring member point, which keeps repeated runs
    identical.
    """
    if not (math.isfinite(voxel_size) and voxel_size > 0):
        raise InvalidParameter(f"voxel_size must be finite and > 0, got {voxel_size}")
    if len(cloud) == 0:
        return cloud
    centroids, first = cell_means(cloud.xyz, voxel_size, cloud.xyz)
    # list the voxels by first point; take copies the rows several times
    # faster than a fancy index
    return PointCloud._own(centroids.take(np.argsort(first), axis=0))
