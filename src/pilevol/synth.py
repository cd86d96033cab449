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
import threading
from concurrent import futures
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Union

import numpy as np

from ._worker import _worker
from .cloud import _CHUNK, PointCloud, _add_to_columns, _chunks
from .errors import InvalidParameter, check_number
from .pose import rodrigues

# terms of each power series in a heightfield's closed-form volume
_SERIES_TERMS = 30
# rows of the pile surface a scene evaluates at once: half a chunk, a whole
# number of SIMD vectors
_SURFACE_ROWS = _CHUNK // 2


def _require_positive(shape, *fields: str) -> None:
    """Raise ``InvalidParameter`` unless each named dimension of ``shape`` is
    a finite number > 0."""
    for name in fields:
        check_number(f"{type(shape).__name__}.{name}", getattr(shape, name), 0)


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
        check_number("Frustum.r_top", self.r_top, 0, self.r_base, lo_open=False)

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
        _require_positive(self, "sphere_radius")
        # past a hemisphere the surface does not meet the ground at the
        # footprint rim
        check_number("SphericalCap.cap_height", self.cap_height, 0, self.sphere_radius,
                     hi_open=False)

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
        check_number("Heightfield.shape_seed", self.shape_seed, 0, integer=True,
                     lo_open=False)
        _require_positive(self, "radius", "target_volume")

    @property
    def footprint_radius(self) -> float:
        return self.radius

    @property
    def true_volume(self) -> float:
        # heights scale linearly with the calibration factor, so the scaled
        # surface's volume equals the target exactly
        return self.target_volume

    def _raw_height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The unscaled surface: the taper times the wave field inside the
        footprint disc, +0.0 outside it.

        Outside the disc the taper is exactly 0, so the waves are evaluated
        on the points inside it alone.  Each of those goes through the
        ufuncs of a whole-array pass on the same values, and so gets its
        bits (``tests/test_synth.py`` holds the whole-array formula).
        """
        kvecs, phases, amps = _heightfield_waves(self.shape_seed, self.radius)
        x, y = np.broadcast_arrays(x, y)
        r = np.hypot(x, y)
        inside = np.flatnonzero(r < self.radius)
        x, y = x.take(inside), y.take(inside)
        taper = _heightfield_taper(r.take(inside), self.radius)
        # four amplitudes of at most 0.25 each, so the field stays >= 0
        field = np.ones_like(taper)
        for k, phi, amp in zip(kvecs, phases, amps):
            field = field + amp * np.cos(k[0] * x + k[1] * y + phi)
        height = np.zeros(r.shape)
        height.put(inside, taper * field)
        return height

    def surface_height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _heightfield_scale(self) * self._raw_height(x, y)


def _heightfield_taper(r: np.ndarray, radius: float) -> np.ndarray:
    """cos²(π/2 · r/R), written over the distances ``r`` (an array, all in
    [0, R)) and returned."""
    r /= radius
    r *= 0.5 * np.pi
    np.cos(r, out=r)
    np.square(r, out=r)
    return r


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


def _taper_moment(m: int) -> float:
    """c_m = ∫₀¹ u^(2m+1) cos²(πu/2) du, from the power series of
    cos²(πu/2) = (1 + cos πu)/2 integrated term by term."""
    series = sum((-math.pi ** 2) ** j / (math.factorial(2 * j) * (2 * m + 2 * j + 2))
                 for j in range(_SERIES_TERMS))
    return 0.5 * (1.0 / (2 * m + 2) + series)


_TAPER_MOMENTS = tuple(_taper_moment(m) for m in range(_SERIES_TERMS))


def _heightfield_raw_volume(pile: Heightfield) -> float:
    """The exact volume under ``pile._raw_height``, in closed form.

    The surface is T(r)·(1 + Σᵢ aᵢ cos(kᵢ·p + φᵢ)) with the taper
    T(r) = cos²(πr/2R) on the disc r < R.  Over the angle, each wave
    integrates to 2π J₀(|kᵢ|r) cos φᵢ, so with u = r/R the volume is

        2πR² [c₀ + Σᵢ aᵢ cos φᵢ Σₘ (−xᵢ²)ᵐ/(m!)² cₘ],   xᵢ = |kᵢ|R/2,

    the inner sum being ∫₀¹ u J₀(|kᵢ|R u) T du from J₀'s power series and
    cₘ the taper's moments (``_taper_moment``).  Every drawn wave has |k|R
    in [1.5, 4), so x < 2, where ``_SERIES_TERMS`` terms leave a remainder
    far below one ulp.  It agrees with an adaptive quadrature of the
    radial integral to about 1e-16 relative.
    """
    kvecs, phases, amps = _heightfield_waves(pile.shape_seed, pile.radius)
    total = _TAPER_MOMENTS[0]
    for (kx, ky), phi, amp in zip(kvecs, phases, amps):
        x2 = (0.5 * math.hypot(kx, ky) * pile.radius) ** 2
        term, bessel = 1.0, 0.0
        for m, moment in enumerate(_TAPER_MOMENTS):
            bessel += term * moment
            term *= -x2 / (m + 1) ** 2
        total += amp * math.cos(phi) * bessel
    return 2.0 * math.pi * pile.radius ** 2 * total


@lru_cache(maxsize=None)
def _heightfield_scale(pile: Heightfield) -> float:
    return pile.target_volume / _heightfield_raw_volume(pile)


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
        check_number("clutter count", self.count, 0, integer=True, lo_open=False)
        for name, lo in (("center", -math.inf), ("size", 0)):
            values = getattr(self, name)
            if not (hasattr(values, "__len__") and len(values) == 3):
                raise InvalidParameter(f"clutter {name} must hold 3 values, got {values!r}")
            for value in values:
                check_number(f"clutter {name}", value, lo)


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
        if not isinstance(self.pile, Pile):
            raise InvalidParameter("pile must be a Cone, Frustum, SphericalCap or "
                                   f"Heightfield, got {self.pile!r}")
        check_number("footprint_area", self.footprint_area, 0)
        check_number("point_density", self.point_density, 0)
        try:
            width, length = self.ground_extent
        except (TypeError, ValueError):
            raise InvalidParameter(f"ground_extent must hold two values, got "
                                   f"{self.ground_extent!r}") from None
        check_number("ground_extent[0]", width, 0)
        check_number("ground_extent[1]", length, 0)
        check_number("tilt_deg", self.tilt_deg, 0, 30, lo_open=False, hi_open=False)
        check_number("noise_sigma", self.noise_sigma, 0, lo_open=False)
        if not (isinstance(self.clutter, tuple)
                and all(isinstance(blob, ClutterSpec) for blob in self.clutter)):
            raise InvalidParameter(f"clutter must be a tuple of ClutterSpec, got "
                                   f"{self.clutter!r}")
        check_number("seed", self.seed, 0, integer=True, lo_open=False)
        if 2.0 * self.pile.footprint_radius > min(width, length):
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
    check_number("rise", rise)
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
    check_number("pile_radius", pile_radius, 0, lo_open=False)
    check_number("seed", seed, 0, integer=True, lo_open=False)
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
    check_number("point_density", point_density, 0)
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
