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
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Union

import numpy as np

from .cloud import PointCloud
from .errors import InvalidParameter
from .pose import rodrigues

HEIGHTFIELD_QUADRATURE_N = 2048
# the wave field's lower clamp, so the surface stays above ground inside
# the footprint
_HEIGHTFIELD_FLOOR = 0.05
_QUADRATURE_BLOCK_ROWS = 64


# ---------------------------------------------------------------------------
# Pile shapes: a footprint, an upper-surface height function, and an
# analytic volume
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cone:
    radius: float
    height: float

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
        taper = _heightfield_taper(np.hypot(x, y), self.radius)
        field = np.ones_like(taper)
        for k, phi, amp in zip(kvecs, phases, amps):
            field = field + amp * np.cos(k[0] * x + k[1] * y + phi)
        return taper * np.maximum(field, _HEIGHTFIELD_FLOOR)

    def surface_height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _heightfield_scale(self) * self._raw_height(x, y)


def _heightfield_taper(r: np.ndarray, radius: float) -> np.ndarray:
    """cos²(π/2 · r/R) inside the footprint, 0 outside."""
    return np.where(r < radius, np.cos(0.5 * math.pi * np.clip(r / radius, 0, 1)) ** 2,
                    0.0)


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
    − sin(kx·x)·sin(ky·y + φ), so the wave field of a block of rows is one
    rank-8 matrix product of per-row and per-column factors: 16 n cosines
    and sines in place of 4 n².  The radial taper is computed on one
    quadrant, a quarter of the grid, and mirrored to the other three.  The
    clamp and the taper product stay point by point, and rows are summed
    block by block, so no temporary outgrows a block of 64 rows.  The
    result agrees with the direct evaluation to about 1e-16 relative; at
    n = 2048 it takes about 0.04 s per pile on one core of a 2-core x86-64
    VM, against 0.4 s point by point.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
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
    row_sums = np.empty(n)
    for start in range(0, half, _QUADRATURE_BLOCK_ROWS):
        top = np.arange(start, min(start + _QUADRATURE_BLOCK_ROWS, half))
        quadrant = _heightfield_taper(np.hypot(axis[:half], axis[top, None]), a)
        taper = np.hstack([quadrant, quadrant[:, :n - half][:, ::-1]])
        for rows in (top, n - 1 - top):
            field = per_row[rows] @ per_column
            field += 1.0
            np.maximum(field, _HEIGHTFIELD_FLOOR, out=field)
            field *= taper
            row_sums[rows] = field.sum(axis=1)
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
        if self.count < 0:
            raise InvalidParameter("clutter count must be >= 0")


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
        if self.footprint_area <= 0 or self.point_density <= 0:
            raise InvalidParameter("footprint_area and point_density must be > 0")
        if self.ground_extent[0] <= 0 or self.ground_extent[1] <= 0:
            raise InvalidParameter("ground_extent must be positive")
        if not 0.0 <= self.tilt_deg <= 30.0:
            raise InvalidParameter(f"tilt_deg must be in [0, 30], got {self.tilt_deg}")
        if self.noise_sigma < 0:
            raise InvalidParameter("noise_sigma must be >= 0")
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


def _generate(spec: SceneSpec, ground_warp=None) -> Scene:
    rng = np.random.default_rng(spec.seed)
    width, length = spec.ground_extent
    n_scene = int(round(spec.point_density * width * length))
    x = rng.uniform(-0.5 * width, 0.5 * width, n_scene)
    y = rng.uniform(-0.5 * length, 0.5 * length, n_scene)
    z = spec.pile.surface_height(x, y)
    parts = [np.column_stack([x, y, z])]
    for blob in spec.clutter:
        parts.append(_sample_clutter(blob, rng))
    xyz = np.concatenate(parts, axis=0)
    if ground_warp is not None:
        xyz[:, 2] += ground_warp(xyz[:, 0], xyz[:, 1])
    if spec.noise_sigma > 0:
        xyz = xyz + rng.normal(0.0, spec.noise_sigma, xyz.shape)
    if spec.tilt_deg > 0:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        theta = math.radians(spec.tilt_deg)
        rot = rodrigues((math.cos(phi), math.sin(phi), 0.0),
                        math.sin(theta), math.cos(theta))
        xyz = xyz @ rot.T
    offset = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                       rng.uniform(-0.3, 0.3)])
    xyz = xyz + offset
    return Scene(cloud=PointCloud._own(xyz),
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
