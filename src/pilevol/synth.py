"""Deterministic synthetic scenes with analytic ground-truth volumes.

A scene is what a downward-looking depth sensor over a pile would return:
points sampled uniformly per unit of ground (projected) area across a
rectangular extent, with z equal to the pile's upper surface inside its
footprint and 0 on the surrounding ground.  Clutter blobs, isotropic
Gaussian noise, a tilt about a horizontal axis, and a rigid offset model
the disturbances the measurement pipeline has to undo.  Everything is a
pure function of the scene seed.
"""

from __future__ import annotations

import math
import numbers
import threading
from concurrent import futures
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Union

import numpy as np

from ._worker import _worker
from .cloud import _CHUNK, PointCloud, _add_to_columns, _chunks
from .errors import InvalidParameter
from .pose import rodrigues

HEIGHTFIELD_QUADRATURE_N = 2048
# the wave field's lower clamp, so the surface stays above ground inside
# the footprint
_HEIGHTFIELD_FLOOR = 0.05
# rows of the quadrant a quadrature block takes: at 32, its taper block,
# the worker's two scratch blocks and the field temporaries peak below
# what 64-row blocks with no worker held
_QUADRATURE_BLOCK_ROWS = 32
# rows of the pile surface a scene evaluates at once: half a chunk, a whole
# number of SIMD vectors
_SURFACE_ROWS = _CHUNK // 2


def _is_count(value) -> bool:
    """True for an integer >= 0 that is not a bool."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 0)


def _require_positive(shape, *fields: str) -> None:
    """Raise ``InvalidParameter`` unless each named dimension of ``shape`` is
    finite and > 0; the test is written so that NaN fails it as well as
    inf."""
    for name in fields:
        value = getattr(shape, name)
        if not 0.0 < value < math.inf:
            raise InvalidParameter(
                f"{type(shape).__name__}.{name} must be finite and > 0, got {value!r}")


# ---------------------------------------------------------------------------
# Pile shapes: a footprint, an upper-surface height function, and an
# analytic volume
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cone:
    radius: float
    height: float

    def __post_init__(self):
        _require_positive(self, "radius", "height")

    @property
    def footprint_radius(self) -> float:
        return self.radius

    @property
    def true_volume(self) -> float:
        return math.pi * self.radius ** 2 * self.height / 3.0

    def surface_height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = np.hypot(x, y)
        return np.maximum(self.height * (1.0 - r / self.radius), 0.0)


@dataclass(frozen=True)
class Frustum:
    r_base: float
    r_top: float
    height: float

    def __post_init__(self):
        _require_positive(self, "r_base", "height")
        # equal radii would divide by zero in surface_height
        if not 0.0 <= self.r_top < self.r_base:
            raise InvalidParameter(
                f"Frustum.r_top must be in [0, r_base), got {self.r_top!r}")

    @property
    def footprint_radius(self) -> float:
        return self.r_base

    @property
    def true_volume(self) -> float:
        r1, r2 = self.r_base, self.r_top
        return math.pi * self.height * (r1 * r1 + r1 * r2 + r2 * r2) / 3.0

    def surface_height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = np.hypot(x, y)
        slope_part = (self.r_base - r) / (self.r_base - self.r_top)
        return self.height * np.clip(slope_part, 0.0, 1.0)


@dataclass(frozen=True)
class SphericalCap:
    sphere_radius: float
    cap_height: float

    def __post_init__(self):
        _require_positive(self, "sphere_radius", "cap_height")
        # past a hemisphere the surface does not meet the ground at the
        # footprint rim
        if not self.cap_height <= self.sphere_radius:
            raise InvalidParameter(
                f"SphericalCap.cap_height must be <= sphere_radius, got "
                f"{self.cap_height!r}")

    @property
    def footprint_radius(self) -> float:
        return math.sqrt(self.cap_height * (2.0 * self.sphere_radius - self.cap_height))

    @property
    def true_volume(self) -> float:
        h, R = self.cap_height, self.sphere_radius
        return math.pi * h * h * (3.0 * R - h) / 3.0

    def surface_height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r2 = x * x + y * y
        a2 = self.footprint_radius ** 2
        inside = r2 <= a2
        z = np.zeros_like(np.asarray(x, dtype=np.float64))
        z[inside] = (np.sqrt(self.sphere_radius ** 2 - r2[inside])
                     - (self.sphere_radius - self.cap_height))
        return np.maximum(z, 0.0)


@dataclass(frozen=True)
class Heightfield:
    """Random smooth pile: low-frequency cosine bumps under a taper that
    reaches zero at the footprint rim, scaled to hit a target volume."""

    shape_seed: int
    radius: float
    target_volume: float

    def __post_init__(self):
        if not _is_count(self.shape_seed):
            raise InvalidParameter(
                f"Heightfield.shape_seed must be an integer >= 0, got {self.shape_seed!r}")
        _require_positive(self, "radius", "target_volume")

    @property
    def footprint_radius(self) -> float:
        return self.radius

    @property
    def true_volume(self) -> float:
        # heights scale linearly with the calibration factor, so the scaled
        # quadrature equals the target exactly
        return self.target_volume

    def _raw_height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        kvecs, phases, amps = _heightfield_waves(self.shape_seed, self.radius)
        taper = _heightfield_taper(np.asarray(np.hypot(x, y)), self.radius)
        field = np.ones_like(taper)
        for k, phi, amp in zip(kvecs, phases, amps):
            field = field + amp * np.cos(k[0] * x + k[1] * y + phi)
        return taper * np.maximum(field, _HEIGHTFIELD_FLOOR)

    def surface_height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _heightfield_scale(self) * self._raw_height(x, y)


def _heightfield_taper(r: np.ndarray, radius: float,
                       outside: np.ndarray | None = None) -> np.ndarray:
    """cos²(π/2 · r/R) inside the footprint, 0 outside, written over the
    distances ``r`` (an array, >= 0) and returned.

    The outside mask goes into ``outside`` (a bool array of r's shape)
    when one is given, and the taper then allocates no array.  It names no
    module global but ``np``, as the quadrature's worker half calls it.
    """
    outside = np.greater_equal(r, radius, out=outside)
    r /= radius
    # r >= 0, so the upper clamp alone is clip(r/R, 0, 1)
    np.minimum(r, 1.0, out=r)
    r *= 0.5 * np.pi
    np.cos(r, out=r)
    np.square(r, out=r)
    r[outside] = 0.0
    return r


def _taper_blocks(taper, axis: np.ndarray, radius: float, spans: list,
                  outside: np.ndarray, free: list, ready: list,
                  halt: threading.Event) -> None:
    """The worker's half of ``heightfield_quadrature``: for each block
    ``(start, stop, first, out)`` of ``spans``, once its ``free`` event says
    the caller is done with ``out``, the taper at rows start..stop and
    columns first..centre, written into ``out`` with ``outside`` as its
    mask; then the block's ``ready`` event.  The caller hands in ``taper``
    (``_heightfield_taper``), as a worker kernel names no pilevol global.

    It allocates no array and calls no BLAS.  It returns as soon as it sees
    ``halt``; if it raises, it sets ``halt`` and every ``ready`` event, so
    the caller never waits on a block that will not come.
    """
    try:
        for (start, stop, first, out), free_k, ready_k in zip(spans, free, ready):
            free_k.wait()
            if halt.is_set():
                return
            np.hypot(axis[first:first + out.shape[1]], axis[start:stop, None], out=out)
            taper(out, radius, outside[:out.size].reshape(out.shape))
            ready_k.set()
    except BaseException:
        halt.set()
        for event in ready:
            event.set()
        raise


@lru_cache(maxsize=None)
def _heightfield_waves(shape_seed: int, radius: float):
    rng = np.random.default_rng(shape_seed)
    n_waves = 4
    angles = rng.uniform(0.0, 2.0 * math.pi, n_waves)
    freqs = rng.uniform(1.5, 4.0, n_waves) / radius
    kvecs = tuple((f * math.cos(a), f * math.sin(a)) for f, a in zip(freqs, angles))
    phases = tuple(rng.uniform(0.0, 2.0 * math.pi, n_waves))
    amps = tuple(rng.uniform(0.10, 0.25, n_waves))
    return kvecs, phases, amps


@lru_cache(maxsize=None)
def _heightfield_scale(pile: Heightfield) -> float:
    raw = heightfield_quadrature(pile, n=HEIGHTFIELD_QUADRATURE_N, scaled=False)
    return pile.target_volume / raw


def heightfield_quadrature(pile: Heightfield, n: int = HEIGHTFIELD_QUADRATURE_N,
                           scaled: bool = True) -> float:
    """Midpoint-rule volume of the heightfield over its footprint square.

    The rule sums ``pile._raw_height`` at the n × n cell centres, evaluated
    separably instead of point by point.  Each wave splits by angle
    addition, cos(kx·x + ky·y + φ) = cos(kx·x)·cos(ky·y + φ)
    − sin(kx·x)·sin(ky·y + φ), so the wave field of a block of 32 rows is
    one rank-8 matrix product of per-row and per-column factors: 16 n
    cosines and sines in place of 4 n².  The radial taper is computed on
    one quadrant and mirrored to the other three.  The quadrant is
    symmetric, as hypot(x, y) == hypot(y, x), so each block of rows
    computes it only from the diagonal on and takes the columns before
    the diagonal from transposed tiles that earlier blocks kept.  Columns
    whose x² + y² at the block's innermost row passes R²(1 + 1e-9) are
    outside the disc on every row of the block, and their taper is set to
    0 with no ``hypot`` or ``cos``.  That leaves about 0.43 of the
    quadrant's cells to evaluate at n = 2048.

    The two halves run side by side.  The worker thread
    (``pilevol._worker``) evaluates each block's taper, from the block's
    first evaluated column to the centre, into one of two scratch blocks
    the caller allocated (``_taper_blocks``).  While it evaluates block
    k + 1, the calling thread copies block k out of its scratch block,
    fills in the kept tiles, mirrors the block, and forms the wave field,
    the clamp, the taper product and the row sums.  A pair of events per
    block hands each scratch block back and forth.  The worker allocates
    no array and calls no BLAS: variants that did raised the benchmark's
    peak resident memory.
    The clamp, the taper product and the row sums still run over whole
    rows, each cell gets the same operations in the same order, and each
    row sum is the same whole-row pairwise sum, so the sum has the bits of
    the whole-quadrant evaluation.  The kept tiles peak at about a quarter
    of the quadrant; every other temporary is a block of 32 rows at most.

    The result agrees with the direct evaluation to about 1e-16 relative.
    At n = 2048 the six catalogue piles take 126–142 ms together, against
    169–182 ms with the whole quadrature on one thread (p50 of two series
    of 15 alternating rounds, one BLAS thread, a 2-vCPU x86-64 VM); point
    by point, one pile takes 0.4 s.
    """
    if not (_is_count(n) and n >= 1):
        raise InvalidParameter(f"quadrature size n must be an integer >= 1, got {n!r}")
    a = pile.radius
    step = 2.0 * a / n
    axis = -a + (np.arange(n) + 0.5) * step
    kvecs, phases, amps = _heightfield_waves(pile.shape_seed, a)
    k, amps = np.array(kvecs), np.array(amps)
    x_phase = np.outer(k[:, 0], axis)
    y_phase = np.outer(axis, k[:, 1]) + phases
    per_row = np.hstack([amps * np.cos(y_phase), -(amps * np.sin(y_phase))])
    per_column = np.vstack([np.cos(x_phase), np.sin(x_phase)])
    # row i and row n-1-i see the same taper, as do columns j and n-1-j;
    # with n odd the centre row is its own partner (evaluated twice, stored
    # once) and the centre column is not mirrored
    half = (n + 1) // 2
    # x² falls column by column towards the centre; past R²(1 + 1e-9),
    # x² + y² puts hypot at R or beyond whatever its rounding
    x2 = axis[:half] ** 2
    rim = a * a * (1.0 + 1e-9)
    size = min(_QUADRATURE_BLOCK_ROWS, half) * half
    # the worker writes block k's taper into scratch[k % 2], the columns
    # first..centre as one contiguous array, the layout of a fresh one
    scratch = (np.empty(size), np.empty(size))
    spans = []
    for start in range(0, half, _QUADRATURE_BLOCK_ROWS):
        stop = min(start + _QUADRATURE_BLOCK_ROWS, half)
        cut = int(np.count_nonzero(x2 + axis[stop - 1] ** 2 > rim))
        first = max(cut, start)
        shape = (stop - start, half - first)
        out = scratch[len(spans) % 2][:shape[0] * shape[1]].reshape(shape)
        spans.append((start, stop, first, out))
    free = [threading.Event() for _ in spans]
    ready = [threading.Event() for _ in spans]
    halt = threading.Event()
    for event in free[:2]:
        event.set()
    job = _worker().submit(_taper_blocks, _heightfield_taper, axis, a, spans,
                           np.empty(size, dtype=bool), free, ready, halt)
    taper = np.empty((min(_QUADRATURE_BLOCK_ROWS, half), n))
    # kept[s] holds (r, tile) pairs: an earlier block's taper at its rows
    # r.. and block s's columns, transposed to block s's rows at columns r..
    kept: dict[int, list] = {}
    row_sums = np.empty(n)
    try:
        for b, (start, stop, first, out) in enumerate(spans):
            block = taper[:stop - start]
            block[:, :first] = 0.0
            for row, tile in kept.pop(start, ()):
                block[len(block) - len(tile):, row:row + tile.shape[1]] = tile
            ready[b].wait()
            if halt.is_set():
                break
            block[:, first:half] = out
            if b + 2 < len(spans):
                free[b + 2].set()
            for later in range(stop, half, _QUADRATURE_BLOCK_ROWS):
                end = min(later + _QUADRATURE_BLOCK_ROWS, half)
                if end > first:
                    tile = block[:, max(later, first):end]
                    kept.setdefault(later, []).append((start, tile.T.copy()))
            block[:, half:] = block[:, :n - half][:, ::-1]
            top = np.arange(start, stop)
            for rows in (top, n - 1 - top):
                field = per_row[rows] @ per_column
                field += 1.0
                np.maximum(field, _HEIGHTFIELD_FLOOR, out=field)
                field *= block
                row_sums[rows] = field.sum(axis=1)
                # freed here, so that it and the next block's tiles are not
                # held at once
                del field
    finally:
        # the worker's half returns before the caller's error leaves, so
        # no half outlives the call
        halt.set()
        for event in free:
            event.set()
        futures.wait((job,))
    job.result()
    raw = float(row_sums.sum()) * step * step
    return raw * _heightfield_scale(pile) if scaled else raw


Pile = Union[Cone, Frustum, SphericalCap, Heightfield]


# ---------------------------------------------------------------------------
# Scene description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClutterSpec:
    """A clutter blob: an axis-aligned box or a solid ball of points."""

    kind: str                      # "box" or "sphere"
    center: tuple[float, float, float]
    size: tuple[float, float, float]   # box extents; spheres use size[0] as radius
    count: int

    def __post_init__(self):
        if self.kind not in ("box", "sphere"):
            raise InvalidParameter(f"clutter kind must be box or sphere, got {self.kind!r}")
        if not _is_count(self.count):
            raise InvalidParameter(f"clutter count must be an integer >= 0, got {self.count!r}")
        # each test is written so that NaN fails it as well as inf
        if not (len(self.center) == 3
                and all(-math.inf < v < math.inf for v in self.center)):
            raise InvalidParameter(f"clutter center must be 3 finite values, got {self.center}")
        if not (len(self.size) == 3 and all(0.0 < v < math.inf for v in self.size)):
            raise InvalidParameter(
                f"clutter size must be 3 finite values > 0, got {self.size}")


@dataclass(frozen=True)
class SceneSpec:
    pile: Pile
    footprint_area: float              # known measured scene area, m^2
    ground_extent: tuple[float, float]  # rectangle (width, length), m
    point_density: float               # points per m^2 of projected area
    noise_sigma: float = 0.005
    tilt_deg: float = 0.0
    clutter: tuple[ClutterSpec, ...] = ()
    seed: int = 0
    scene_id: str = ""

    def __post_init__(self):
        # each test is written so that NaN fails it as well as inf
        if not (0.0 < self.footprint_area < math.inf
                and 0.0 < self.point_density < math.inf):
            raise InvalidParameter(
                "footprint_area and point_density must be finite and > 0, got "
                f"{self.footprint_area} and {self.point_density}")
        if not all(0.0 < side < math.inf for side in self.ground_extent):
            raise InvalidParameter(
                f"ground_extent must be finite and positive, got {self.ground_extent}")
        if not 0.0 <= self.tilt_deg <= 30.0:
            raise InvalidParameter(f"tilt_deg must be in [0, 30], got {self.tilt_deg}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise InvalidParameter(
                f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not _is_count(self.seed):
            raise InvalidParameter(f"seed must be an integer >= 0, got {self.seed!r}")
        if 2.0 * self.pile.footprint_radius > min(self.ground_extent):
            raise InvalidParameter("pile footprint does not fit in the ground extent")


@dataclass(frozen=True)
class Scene:
    cloud: PointCloud
    true_volume: float


def _sample_clutter(blob: ClutterSpec, rng: np.random.Generator) -> np.ndarray:
    if blob.kind == "box":
        lo = np.asarray(blob.center) - 0.5 * np.asarray(blob.size)
        return lo + rng.uniform(0.0, 1.0, (blob.count, 3)) * np.asarray(blob.size)
    radius = blob.size[0]
    # rejection-free ball sampling: direction x radius * u^(1/3)
    direction = rng.normal(size=(blob.count, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    rad = radius * rng.uniform(0.0, 1.0, blob.count) ** (1.0 / 3.0)
    return np.asarray(blob.center) + direction * rad[:, None]


def _draw_noise(rng: np.random.Generator, sigma: float, xyz: np.ndarray,
                every: list, ready: list, buf: np.ndarray) -> None:
    """The worker's half of ``_generate``: each chunk's noise, drawn as
    ``rng.normal(0.0, sigma, (rows, 3))`` draws it (0.0 + sigma * z, so
    -0.0 reads +0.0) into ``buf``, and added to the chunk's rows once its
    event says the caller is done with them."""
    for rows, event in zip(every, ready):
        noise = buf[:rows.stop - rows.start]
        rng.standard_normal(out=noise)
        noise *= sigma
        noise += 0.0
        event.wait()
        xyz[rows] += noise


def _generate(spec: SceneSpec, ground_warp=None) -> Scene:
    """The scene cloud, built in one (N, 3) array.

    Each stage runs ``_CHUNK`` rows at a time, in place, and draws from
    the seed's generator in the order of whole-array passes: all x, then
    all y, each clutter blob, the noise of every row, the tilt axis and
    the offset.  Every row gets the bits those passes gave it, and no
    temporary outgrows a chunk.

    With noise on, the generator passes to the worker thread
    (``pilevol._worker``) once the clutter is drawn.  It draws each
    chunk's noise into one chunk-sized buffer while the caller evaluates
    the pile's surface, ``_SURFACE_ROWS`` rows at a time, and applies the
    warp; the worker adds a chunk's noise once the caller has set that
    chunk's event.  The caller sets every event and waits for the worker
    before it takes the generator back for the tilt axis and the offset,
    also when its own half raises.  The surface pieces are whole numbers
    of SIMD vectors, so each row gets the bits of one whole-array pass.
    A heightfield's scale is taken before the noise job is handed over:
    its quadrature is a worker job of its own, which would otherwise queue
    behind the noise job that waits on this thread.
    """
    rng = np.random.default_rng(spec.seed)
    width, length = spec.ground_extent
    n_scene = int(round(spec.point_density * width * length))
    xyz = np.empty((n_scene + sum(blob.count for blob in spec.clutter), 3))
    ground, every = _chunks(n_scene), _chunks(len(xyz))
    for k, half in enumerate((0.5 * width, 0.5 * length)):
        for rows in ground:
            xyz[rows, k] = rng.uniform(-half, half, rows.stop - rows.start)
    start = n_scene
    for blob in spec.clutter:
        xyz[start:start + blob.count] = _sample_clutter(blob, rng)
        start += blob.count
    if isinstance(spec.pile, Heightfield):
        # a worker job of its own, so it must come before the noise job
        _heightfield_scale(spec.pile)
    ready = [threading.Event() for _ in every]
    noise = None
    if spec.noise_sigma > 0:
        noise = _worker().submit(_draw_noise, rng, spec.noise_sigma, xyz, every,
                                 ready, np.empty((min(len(xyz), _CHUNK), 3)))
    try:
        for rows, event in zip(every, ready):
            for lo in range(rows.start, min(rows.stop, n_scene), _SURFACE_ROWS):
                part = slice(lo, min(lo + _SURFACE_ROWS, rows.stop, n_scene))
                # contiguous copies, as the pile's ufuncs saw whole-array x and y
                xyz[part, 2] = spec.pile.surface_height(xyz[part, 0].copy(),
                                                        xyz[part, 1].copy())
            if ground_warp is not None:
                xyz[rows, 2] += ground_warp(xyz[rows, 0], xyz[rows, 1])
            event.set()
    finally:
        for event in ready:
            event.set()
        if noise is not None:
            futures.wait((noise,))
    if noise is not None:
        noise.result()
    if spec.tilt_deg > 0:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        theta = math.radians(spec.tilt_deg)
        rot = rodrigues((math.cos(phi), math.sin(phi), 0.0),
                        math.sin(theta), math.cos(theta))
        for rows in every:
            part = xyz[rows]
            if len(part) == 1 < len(xyz):
                # numpy takes one row as a gemv, which may round unlike the
                # gemm of the whole array; the row doubled stays a gemm
                part = part[[0, 0]]
            xyz[rows] = (part @ rot.T)[:rows.stop - rows.start]
    offset = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                       rng.uniform(-0.3, 0.3)])
    return Scene(cloud=PointCloud._own(_add_to_columns(xyz, offset)),
                 true_volume=spec.pile.true_volume)


def generate_scene(spec: SceneSpec) -> Scene:
    """Build the scene cloud; bit-deterministic for a given spec.

    Ground and pile points come from one uniform XY draw over the extent
    (the projected-area uniformity the element-area division relies on);
    clutter blobs follow in list order; then noise, tilt, and the rigid
    offset are applied.
    """
    return _generate(spec)


def smeared_ground_scene(spec: SceneSpec, rise: float) -> Scene:
    """Scene whose originally flat ground is warped by a symmetric V-ramp.

    Every point gains rise * |x| / (width/2) in z, the way accumulated
    registration error bows a reconstructed floor.  The warp is symmetric,
    so plane fitting cannot level it away and the ground peak smears into a
    plateau of width ~rise; pile heights above the local ground are
    untouched, so the analytic volume still holds.  Tilt is disabled to
    keep the warp the only posture disturbance.
    """
    flat = replace(spec, tilt_deg=0.0)
    width = spec.ground_extent[0]

    def warp(x, y):
        return rise * np.abs(x) / (0.5 * width)

    return _generate(flat, ground_warp=warp)


def default_clutter(ground_extent: tuple[float, float]) -> tuple[ClutterSpec, ...]:
    """Wall strip, pole, small far pile, and sparse scatter sized to the scene.

    Each blob is far smaller than any reference pile so dominant-cluster
    extraction stays well posed.
    """
    width, length = ground_extent
    wall = ClutterSpec(
        kind="box",
        center=(0.0, 0.5 * length - 0.03, 0.125),
        size=(0.4 * width, 0.03, 0.25),
        count=1200,
    )
    pole = ClutterSpec(
        kind="box",
        center=(-0.38 * width, -0.32 * length, 0.35),
        size=(0.04, 0.04, 0.7),
        count=300,
    )
    far_pile = ClutterSpec(
        kind="sphere",
        center=(0.38 * width, -0.32 * length, 0.05),
        size=(0.09, 0.09, 0.09),
        count=600,
    )
    scatter = ClutterSpec(
        kind="box",
        center=(0.0, 0.0, 0.2),
        size=(width, length, 0.4),
        count=40,
    )
    return (wall, pole, far_pile, scatter)


# ---------------------------------------------------------------------------
# Reference catalogue: 3 scene areas x pile volumes x 3 shape variants
# ---------------------------------------------------------------------------

# (scene area m^2, pile volumes m^3) grid; three shapes per volume
_CATALOGUE_GRID = (
    (1.3, (0.014, 0.028, 0.035)),
    (2.6, (0.028, 0.035)),
    (5.2, (0.335,)),
)

# points per m^2, chosen per footprint to keep the full benchmark fast
# while leaving thousands of points on every pile
_CATALOGUE_DENSITY = {1.3: 20000.0, 2.6: 13000.0, 5.2: 9000.0}

# base radii per (area, volume); heights follow from the volume formulas
_CATALOGUE_RADII = {
    (1.3, 0.014): 0.24, (1.3, 0.028): 0.27, (1.3, 0.035): 0.29,
    (2.6, 0.028): 0.32, (2.6, 0.035): 0.34,
    (5.2, 0.335): 0.62,
}

CATALOGUE_TILT_DEG = 8.0
CATALOGUE_NOISE_SIGMA = 0.005


def _cone_for(volume: float, radius: float) -> Cone:
    return Cone(radius=radius, height=3.0 * volume / (math.pi * radius ** 2))


def _frustum_for(volume: float, radius: float) -> Frustum:
    r1, r2 = 1.05 * radius, 0.525 * radius
    height = 3.0 * volume / (math.pi * (r1 * r1 + r1 * r2 + r2 * r2))
    return Frustum(r_base=r1, r_top=r2, height=height)


def _heightfield_for(volume: float, radius: float, shape_seed: int) -> Heightfield:
    return Heightfield(shape_seed=shape_seed, radius=1.1 * radius,
                       target_volume=volume)


def reference_scenes() -> list[SceneSpec]:
    """The fixed 18-scene catalogue: per scene area, each pile volume
    appears as a cone, a frustum, and a random heightfield."""
    specs: list[SceneSpec] = []
    serial = 0
    for area, volumes in _CATALOGUE_GRID:
        width = math.sqrt(2.0 * area)
        extent = (width, width / 2.0)
        density = _CATALOGUE_DENSITY[area]
        for volume in volumes:
            radius = _CATALOGUE_RADII[(area, volume)]
            shapes = (
                ("cone", _cone_for(volume, radius)),
                ("frustum", _frustum_for(volume, radius)),
                ("heightfield", _heightfield_for(volume, radius, 700 + serial)),
            )
            for label, pile in shapes:
                serial += 1
                specs.append(SceneSpec(
                    pile=pile,
                    footprint_area=area,
                    ground_extent=extent,
                    point_density=density,
                    noise_sigma=CATALOGUE_NOISE_SIGMA,
                    tilt_deg=CATALOGUE_TILT_DEG,
                    clutter=default_clutter(extent),
                    seed=1000 + serial,
                    scene_id=f"s{serial:02d}-a{area}-v{volume}-{label}",
                ))
    return specs


def dense_compression_scene() -> SceneSpec:
    """Clutter-free, densely sampled large scene for the compression sweep
    (about 100k points over the largest catalogue footprint); another
    capture of it is ``replace(spec, seed=...)``."""
    area = 5.2
    width = math.sqrt(2.0 * area)
    return SceneSpec(
        pile=_frustum_for(0.335, _CATALOGUE_RADII[(area, 0.335)]),
        footprint_area=area,
        ground_extent=(width, width / 2.0),
        point_density=20000.0,
        noise_sigma=CATALOGUE_NOISE_SIGMA,
        tilt_deg=CATALOGUE_TILT_DEG,
        clutter=(),
        seed=9000,
        scene_id="compression-frustum-5.2",
    )


def walker_clutter(ground_extent: tuple[float, float], pile_radius: float,
                   seed: int) -> ClutterSpec:
    """A person-sized blob whose position and girth change per seed,
    modeling moving personnel: the filter stages must remove it, and runs
    without them inherit its seed-to-seed volume swing."""
    rng = np.random.default_rng(seed)
    width, length = ground_extent
    radius = float(rng.uniform(0.08, 0.18))
    margin = pile_radius + radius + 0.15
    for _ in range(100):
        cx = rng.uniform(-0.5 * width + radius, 0.5 * width - radius)
        cy = rng.uniform(-0.5 * length + radius, 0.5 * length - radius)
        if math.hypot(cx, cy) >= margin:
            break
    return ClutterSpec(kind="sphere", center=(cx, cy, radius * 0.7),
                       size=(radius, radius, radius), count=1200)


# ---------------------------------------------------------------------------
# Concave pile for the hull-baseline pathology study
# ---------------------------------------------------------------------------

# the crescent's inner radius, outer radius and height (m), and its sweep
CRESCENT_R_INNER, CRESCENT_R_OUTER, CRESCENT_HEIGHT = 0.25, 0.55, 0.3
CRESCENT_SWEEP_DEG = 240.0


def crescent_scene(point_density: float = 4e4) -> Scene:
    """Crescent-shaped pile (annular sector footprint): surface-only samples
    with analytic volume; convex estimators must overestimate it.

    Height profile: h(r) = height * sin(pi * (r - r_inner) / w) across the
    radial width w, tapering to zero at both rims.  Closed-form volume:
    sweep * height * w * (w + 2 r_inner) / pi.  The draw is seeded with 0.
    """
    if not (math.isfinite(point_density) and point_density > 0):
        raise InvalidParameter(f"point_density must be finite and > 0, got {point_density}")
    r_inner, r_outer, height = CRESCENT_R_INNER, CRESCENT_R_OUTER, CRESCENT_HEIGHT
    rng = np.random.default_rng(0)
    half = r_outer + 0.15
    n = int(round(point_density * (2 * half) ** 2))
    x = rng.uniform(-half, half, n)
    y = rng.uniform(-half, half, n)
    r = np.hypot(x, y)
    theta = np.mod(np.arctan2(y, x), 2.0 * math.pi)
    sweep = math.radians(CRESCENT_SWEEP_DEG)
    w = r_outer - r_inner
    inside = (r >= r_inner) & (r <= r_outer) & (theta <= sweep)
    z = np.zeros(n)
    z[inside] = height * np.sin(math.pi * (r[inside] - r_inner) / w)
    true_volume = sweep * height * w * (w + 2.0 * r_inner) / math.pi
    return Scene(cloud=PointCloud._own(np.column_stack([x, y, z])),
                 true_volume=true_volume)
