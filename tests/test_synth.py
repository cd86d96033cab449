"""Synthetic scene generation and ground-truth bookkeeping."""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import traceback
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from pilevol import synth
from pilevol.cloud import _CHUNK, PointCloud
from pilevol.errors import InvalidParameter
from pilevol.pose import rodrigues
from pilevol.synth import (
    ClutterSpec,
    Cone,
    Frustum,
    Heightfield,
    SceneSpec,
    SphericalCap,
    crescent_scene,
    default_clutter,
    dense_compression_scene,
    generate_scene,
    reference_scenes,
    smeared_ground_scene,
    walker_clutter,
)
from pilevol.volume import GridSpec, column_volume_grid


def plain_spec(pile, extent=(1.6, 0.8), density=5000.0, **kw):
    return SceneSpec(pile=pile, footprint_area=extent[0] * extent[1],
                     ground_extent=extent, point_density=density, **kw)


# ---------------------------------------------------------------------------
# analytic truths
# ---------------------------------------------------------------------------

def test_cone_true_volume():
    pile = Cone(radius=0.5, height=0.6)
    assert pile.true_volume == pytest.approx(0.15707963, abs=1e-7)


def test_spherical_cap_true_volume():
    pile = SphericalCap(sphere_radius=1.0, cap_height=0.2)
    assert pile.true_volume == pytest.approx(math.pi * 0.04 * 2.8 / 3)
    assert pile.true_volume == pytest.approx(0.117286, abs=1e-6)


def test_frustum_true_volume():
    pile = Frustum(r_base=0.3, r_top=0.15, height=0.2)
    expected = math.pi * 0.2 * (0.09 + 0.045 + 0.0225) / 3
    assert pile.true_volume == pytest.approx(expected)


def test_surface_heights_match_volume_by_quadrature():
    # midpoint quadrature over each pile's own surface function
    for pile in (Cone(0.4, 0.3), Frustum(0.4, 0.2, 0.25), SphericalCap(0.8, 0.15)):
        a = pile.footprint_radius
        n = 1200
        step = 2 * a / n
        axis = -a + (np.arange(n) + 0.5) * step
        xs, ys = np.meshgrid(axis, axis)
        vol = float(pile.surface_height(xs, ys).sum()) * step * step
        assert vol == pytest.approx(pile.true_volume, rel=2e-3)


def direct_quadrature(pile, n):
    """The midpoint rule point by point: ``_raw_height`` on the whole grid."""
    a = pile.radius
    step = 2 * a / n
    axis = -a + (np.arange(n) + 0.5) * step
    xs, ys = np.meshgrid(axis, axis)
    return float(pile._raw_height(xs, ys).sum()) * step * step


def whole_quadrant_quadrature(pile, n):
    """The midpoint rule at the n × n cell centres, evaluated separably: the
    wave field of a block of rows as one rank-8 matrix product of per-row
    and per-column factors, and the radial taper on one quadrant, mirrored
    to the other three.  At n = 2048 it gave the truth's scale before the
    closed form, with its wave field clamped below at 0.05, as here."""
    a = pile.radius
    step = 2.0 * a / n
    axis = -a + (np.arange(n) + 0.5) * step
    kvecs, phases, amps = synth._heightfield_waves(pile.shape_seed, a)
    k, amps = np.array(kvecs), np.array(amps)
    x_phase = np.outer(k[:, 0], axis)
    y_phase = np.outer(axis, k[:, 1]) + phases
    per_row = np.hstack([amps * np.cos(y_phase), -(amps * np.sin(y_phase))])
    per_column = np.vstack([np.cos(x_phase), np.sin(x_phase)])
    half = (n + 1) // 2
    row_sums = np.empty(n)
    for start in range(0, half, 64):
        top = np.arange(start, min(start + 64, half))
        r = np.hypot(axis[:half], axis[top, None])
        quadrant = np.where(r < a, np.cos(0.5 * math.pi * np.clip(r / a, 0, 1)) ** 2, 0.0)
        taper = np.hstack([quadrant, quadrant[:, :n - half][:, ::-1]])
        for rows in (top, n - 1 - top):
            field = per_row[rows] @ per_column
            field += 1.0
            np.maximum(field, 0.05, out=field)
            field *= taper
            row_sums[rows] = field.sum(axis=1)
    return float(row_sums.sum()) * step * step


def radial_reference(pile):
    """The raw volume as an adaptive quadrature of the radial integral: the
    taper against 1 and against each wave's J₀(|k|r), which is its
    integral over the angle."""
    kvecs, phases, amps = synth._heightfield_waves(pile.shape_seed, pile.radius)
    a = pile.radius

    def taper(r):
        return math.cos(0.5 * math.pi * r / a) ** 2

    def radial(weight):
        return integrate.quad(lambda r: taper(r) * weight(r) * r, 0.0, a,
                              epsabs=0.0, epsrel=2e-14, limit=200)[0]

    volume = radial(lambda r: 1.0)
    for (kx, ky), phi, amp in zip(kvecs, phases, amps):
        k = math.hypot(kx, ky)
        volume += amp * math.cos(phi) * radial(lambda r: special.j0(k * r))
    return 2.0 * math.pi * volume


CATALOGUE_HEIGHTFIELDS = [s.pile for s in reference_scenes()
                          if isinstance(s.pile, Heightfield)]


def test_heightfield_quadrature_convergence():
    # the scaled midpoint rule approaches the declared truth
    pile = Heightfield(shape_seed=7, radius=0.4, target_volume=0.05)
    declared = pile.true_volume
    assert declared == 0.05
    fine = whole_quadrant_quadrature(pile, 4096) * synth._heightfield_scale(pile)
    assert abs(fine - declared) / declared < 5e-4


@pytest.mark.parametrize("n", [1, 2, 63, 64, 255, 256])
def test_heightfield_quadrature_matches_direct_rule(n):
    # the separable rule the closed form is held to is the midpoint rule
    # of the surface itself; odd n has a centre row and column with no
    # mirror partner
    pile = Heightfield(shape_seed=7, radius=0.4, target_volume=0.05)
    separable = whole_quadrant_quadrature(pile, n)
    assert separable == pytest.approx(direct_quadrature(pile, n), rel=1e-13, abs=0)


def test_catalogue_heightfield_quadratures_match_direct_rule():
    assert len(CATALOGUE_HEIGHTFIELDS) == 6
    for pile in CATALOGUE_HEIGHTFIELDS:
        separable = whole_quadrant_quadrature(pile, 512)
        assert separable == pytest.approx(direct_quadrature(pile, 512), rel=1e-13, abs=0)


def blocked_direct_quadrature(pile, n, rows=64):
    """``direct_quadrature`` a block of rows at a time, so that n = 2048
    holds no n × n grid."""
    a = pile.radius
    step = 2 * a / n
    axis = -a + (np.arange(n) + 0.5) * step
    total = 0.0
    for start in range(0, n, rows):
        xs, ys = np.meshgrid(axis, axis[start:start + rows])
        total += float(pile._raw_height(xs, ys).sum())
    return total * step * step


# the sizes the reference's mirroring and 64-row blocks treat apart: odd
# sizes with an unmirrored centre row and column, half a block, a block
# and a block and a row of the quadrant, and the old truth's 2048
@pytest.mark.parametrize("n", [1, 2, 7, 31, 32, 33, 63, 64, 65, 129, 2047, 2048])
@pytest.mark.parametrize("pile", CATALOGUE_HEIGHTFIELDS,
                         ids=[f"seed{p.shape_seed}" for p in CATALOGUE_HEIGHTFIELDS])
def test_quadrature_matches_the_whole_quadrant_reference(pile, n):
    # the midpoint rule of the surface the scenes sample is the separable
    # rule the closed form is held to, for every catalogue pile and size
    assert blocked_direct_quadrature(pile, n) == pytest.approx(
        whole_quadrant_quadrature(pile, n), rel=1e-13, abs=0)


# four waves at the largest |k|R a draw reaches, in phase at the centre
STEEPEST_WAVES = (tuple((4.0 / 0.4 * math.cos(t), 4.0 / 0.4 * math.sin(t))
                        for t in (0.3, 1.1, 2.0, 4.0)),
                  (0.0, 0.0, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25))


def test_closed_form_matches_the_radial_quadrature(monkeypatch):
    for pile in CATALOGUE_HEIGHTFIELDS:
        assert synth._heightfield_raw_volume(pile) == pytest.approx(
            radial_reference(pile), rel=1e-13, abs=0), pile.shape_seed
    monkeypatch.setattr(synth, "_heightfield_waves",
                        lambda shape_seed, radius: STEEPEST_WAVES)
    pile = Heightfield(shape_seed=0, radius=0.4, target_volume=0.05)
    assert synth._heightfield_raw_volume(pile) == pytest.approx(
        radial_reference(pile), rel=1e-13, abs=0)


def test_closed_form_matches_the_old_rule():
    # the midpoint rule at n = 2048 gave the truth's scale before the
    # closed form; its error there is about 5e-12
    for pile in CATALOGUE_HEIGHTFIELDS:
        assert synth._heightfield_raw_volume(pile) == pytest.approx(
            whole_quadrant_quadrature(pile, 2048), rel=1e-11, abs=0), pile.shape_seed


def whole_array_raw_height(pile, x, y):
    """``Heightfield._raw_height`` as a whole-array pass over every point:
    the taper, clamped and zeroed outside the footprint disc, times the
    wave field evaluated everywhere."""
    kvecs, phases, amps = synth._heightfield_waves(pile.shape_seed, pile.radius)
    r = np.hypot(x, y)
    taper = np.square(np.cos(np.minimum(r / pile.radius, 1.0) * (0.5 * np.pi)))
    taper[r >= pile.radius] = 0.0
    field = np.ones_like(taper)
    for k, phi, amp in zip(kvecs, phases, amps):
        field = field + amp * np.cos(k[0] * x + k[1] * y + phi)
    return taper * field


def _drawn_heightfields(count):
    """``count`` heightfields of drawn shape seeds and radii, each with a
    drawn ground extent that holds its footprint."""
    rng = np.random.default_rng(11)
    piles = []
    for _ in range(count):
        radius = float(rng.uniform(0.1, 0.8))
        pile = Heightfield(shape_seed=int(rng.integers(0, 2 ** 31)), radius=radius,
                           target_volume=float(rng.uniform(0.01, 0.4)))
        piles.append((pile, tuple(2.0 * radius * rng.uniform(1.0, 2.5, 2))))
    return piles


SURFACE_CASES = ([(s.pile, s.ground_extent) for s in reference_scenes()
                  if isinstance(s.pile, Heightfield)] + _drawn_heightfields(20))


def rim_points(radius, extent):
    """The points where the disc test decides: the centre, the rim on
    both axes, one ulp inside and outside it, a ring of angles at r = R,
    and the extent's corners."""
    inner, outer = np.nextafter(radius, 0.0), np.nextafter(radius, np.inf)
    on_axes = [(0.0, 0.0)]
    for r in (radius, inner, outer):
        on_axes += [(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)]
    angles = np.linspace(0.0, 2.0 * math.pi, 37)
    ring = np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])
    half_w, half_l = 0.5 * extent[0], 0.5 * extent[1]
    corners = [(sx * half_w, sy * half_l) for sx in (-1, 1) for sy in (-1, 1)]
    return np.vstack([np.array(on_axes), ring, np.array(corners)])


@pytest.mark.parametrize("pile, extent", SURFACE_CASES,
                         ids=[f"seed{p.shape_seed}" for p, _ in SURFACE_CASES])
def test_heightfield_surface_matches_the_whole_array_reference(pile, extent):
    # the waves are evaluated on the footprint disc alone, yet every height
    # keeps the bits of the whole-array formula, and the ground outside
    # the disc is +0.0
    rng = np.random.default_rng(pile.shape_seed)
    n = 4099
    drawn = np.column_stack([rng.uniform(-0.5 * extent[0], 0.5 * extent[0], n),
                             rng.uniform(-0.5 * extent[1], 0.5 * extent[1], n)])
    rim = rim_points(pile.radius, extent)
    scale = synth._heightfield_scale(pile)
    for points in (np.vstack([drawn, rim]), rim):
        x, y = points[:, 0].copy(), points[:, 1].copy()
        heights = pile.surface_height(x, y)
        assert heights.tobytes() == (scale * whole_array_raw_height(pile, x, y)).tobytes()
        outside = np.hypot(x, y) >= pile.radius
        assert outside.any() and not outside.all()
        assert (heights[outside] == 0.0).all()
        assert not np.signbit(heights[outside]).any()


def test_raw_height_is_nonnegative_over_the_footprint():
    # the closed form integrates the wave field unclamped: with four
    # amplitudes of at most 0.25 it never goes below 0.  The lowest field
    # of any drawn wave set over seeds 0..400000 is 0.067
    n = 101
    axis = np.linspace(-1.0, 1.0, n)
    xs, ys = np.meshgrid(axis, axis)
    for seed in range(200):
        pile = Heightfield(shape_seed=seed, radius=0.3 + 0.001 * seed, target_volume=0.05)
        _, _, amps = synth._heightfield_waves(seed, pile.radius)
        assert sum(amps) <= 1.0
        heights = pile._raw_height(pile.radius * xs, pile.radius * ys)
        assert (heights >= 0.0).all(), seed


# the scales every catalogue heightfield's truth rests on, as the closed
# form gives them
PINNED_SCALES = ["0x1.da91ad896839bp-3", "0x1.92e85a94ecbdbp-2",
                 "0x1.64af33df4df75p-2", "0x1.97233db26f8fap-3",
                 "0x1.055f7cfd1702bp-2", "0x1.8dfe9d238d719p-1"]


def test_catalogue_heightfield_scales_are_pinned():
    scales = [synth._heightfield_scale(pile).hex() for pile in CATALOGUE_HEIGHTFIELDS]
    assert scales == PINNED_SCALES


# ---------------------------------------------------------------------------
# generate_scene
# ---------------------------------------------------------------------------

def test_scene_deterministic_per_seed():
    spec = plain_spec(Cone(0.3, 0.25), noise_sigma=0.004, tilt_deg=5.0,
                      clutter=default_clutter((1.6, 0.8)), seed=77)
    a = generate_scene(spec)
    b = generate_scene(spec)
    assert np.array_equal(a.cloud.xyz, b.cloud.xyz)
    c = generate_scene(replace(spec, seed=78))
    assert not np.array_equal(a.cloud.xyz, c.cloud.xyz)


# SHA-256 of the cloud bytes: one tilted catalogue scene of each shape,
# and the first one with its ground smeared by a 2 cm rise.  The report
# goldens print volumes to 8 decimals, so these catch a last-bit change in
# the sampling, noise, tilt or offset that those would pass unseen.
SCENE_DIGESTS = {
    "s01-a1.3-v0.014-cone":
        "f26c7b5dda6557ccd85e60faea17678c30dbf50deedf4ae087b4fea24f7a5756",
    "s02-a1.3-v0.014-frustum":
        "9f824aee5e0d7bfe5dfee0bedda4450a3feb35510f8e8aff8c7f01fdbffbb552",
    "s03-a1.3-v0.014-heightfield":
        "5199689814fefc5aa861853f3600cfeee486822e08459048bcc0479d0649d097",
}
SMEARED_S01_DIGEST = "9b25f7e6dc3872cbc0c09f1cc9e4d48ab569425e07c1dc7d8130d209117e4625"


def _cloud_digest(scene) -> str:
    return hashlib.sha256(scene.cloud.xyz.tobytes()).hexdigest()


def test_scene_bytes_golden():
    specs = reference_scenes()[:3]
    assert all(spec.tilt_deg > 0 for spec in specs)
    assert {spec.scene_id: _cloud_digest(generate_scene(spec))
            for spec in specs} == SCENE_DIGESTS
    assert (_cloud_digest(smeared_ground_scene(specs[0], rise=0.02))
            == SMEARED_S01_DIGEST)


def whole_array_generate(spec, ground_warp=None) -> np.ndarray:
    """The scene generator as it was before it filled one array in chunks:
    each stage a whole-array pass that returns a new array."""
    rng = np.random.default_rng(spec.seed)
    width, length = spec.ground_extent
    n_scene = int(round(spec.point_density * width * length))
    x = rng.uniform(-0.5 * width, 0.5 * width, n_scene)
    y = rng.uniform(-0.5 * length, 0.5 * length, n_scene)
    z = spec.pile.surface_height(x, y)
    parts = [np.column_stack([x, y, z])]
    for blob in spec.clutter:
        parts.append(synth._sample_clutter(blob, rng))
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
    return xyz + offset


# one and two rows, and both sides of a chunk edge; with clutter, every
# size but _CHUNK puts the first clutter row inside the last ground chunk,
# which the worker's noise and the caller's surface then share
CHUNK_EDGES = [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 7]


def edge_spec(pile, n, **kw):
    """A scene of exactly ``n`` ground and pile points."""
    extent = (1.6, 0.8)
    spec = plain_spec(pile, extent, density=n / (extent[0] * extent[1]), seed=n, **kw)
    assert int(round(spec.point_density * extent[0] * extent[1])) == n
    return spec


@pytest.mark.parametrize("clutter", [(), default_clutter((1.6, 0.8))],
                         ids=["bare", "clutter"])
@pytest.mark.parametrize("n", CHUNK_EDGES)
def test_chunked_scene_matches_the_whole_array_reference(n, clutter):
    # on both sides of a chunk edge, every shape's ufuncs, the noise draw
    # and the BLAS tilt give each row the bits of one whole-array pass,
    # with the noise or the tilt off as well; a single last row of the
    # tilt is a gemv in numpy unless it is kept a gemm
    piles = (Cone(0.3, 0.25), Frustum(0.3, 0.15, 0.2), SphericalCap(0.5, 0.1),
             Heightfield(shape_seed=7, radius=0.3, target_volume=0.02))
    for pile in piles:
        for noise_sigma, tilt_deg in ((0.005, 8.0), (0.0, 8.0), (0.005, 0.0)):
            spec = edge_spec(pile, n, noise_sigma=noise_sigma, tilt_deg=tilt_deg,
                             clutter=clutter)
            cloud = generate_scene(spec).cloud.xyz
            assert cloud.tobytes() == whole_array_generate(spec).tobytes(), (
                pile, noise_sigma, tilt_deg)


def test_large_chunked_scene_matches_the_whole_array_reference():
    # past about 111k rows (M*N*K > 1e6 for the 3x3 tilt) OpenBLAS may take
    # the whole-array gemm through another dgemm kernel than the 2**14-row
    # chunks; the rows must still read the same bits
    spec = edge_spec(Cone(0.3, 0.25), 2**17 + 7, noise_sigma=0.005, tilt_deg=8.0,
                     clutter=default_clutter((1.6, 0.8)))
    cloud = generate_scene(spec).cloud.xyz
    assert cloud.tobytes() == whole_array_generate(spec).tobytes()


@pytest.mark.parametrize("n", CHUNK_EDGES)
def test_chunked_smeared_scene_matches_the_whole_array_reference(n):
    # the warp runs over the clutter rows too, between the caller's surface
    # and the worker's noise of the same chunk, and alone with the noise off
    rise = 0.02
    for noise_sigma in (0.002, 0.0):
        spec = edge_spec(Cone(0.3, 0.25), n, noise_sigma=noise_sigma, tilt_deg=5.0,
                         clutter=default_clutter((1.6, 0.8)))

        def warp(x, y):
            return rise * np.abs(x) / (0.5 * spec.ground_extent[0])

        reference = whole_array_generate(replace(spec, tilt_deg=0.0), warp)
        assert (smeared_ground_scene(spec, rise).cloud.xyz.tobytes()
                == reference.tobytes()), noise_sigma


class SecondChunkFails(Cone):
    """A cone whose surface raises once it is asked for a row past the
    first chunk; ``asked`` lists the rows of each request."""

    def __init__(self):
        super().__init__(radius=0.3, height=0.25)
        object.__setattr__(self, "asked", [])

    def surface_height(self, x, y):
        self.asked.append(len(x))
        if sum(self.asked) > _CHUNK:
            raise RuntimeError("surface failed in the second chunk")
        return np.zeros_like(x)


def _scene_bytes(spec):
    return generate_scene(spec).cloud.xyz.tobytes()


# the bodies of the child-process tests, in the order one child runs
# them: the cold-cache one first, while the heightfield caches are cold
CHILD_BODIES = ("_cold_cache_heightfield_scenes", "_failing_surface_then_next_scene",
                "_failing_noise_draw_then_next_scene", "_scenes_on_two_threads")


def _run_child_bodies():
    """The child's side of ``_child_outcomes``: run each body of
    ``CHILD_BODIES`` and print one JSON line per body, its name and its
    traceback, or null where it passed."""
    for name in CHILD_BODIES:
        try:
            globals()[name]()
            error = None
        except (Exception, pytest.fail.Exception):
            # pytest.raises fails with a BaseException that is no Exception
            error = traceback.format_exc()
        print(json.dumps([name, error]), flush=True)


@functools.cache
def _child_outcomes(seconds=120) -> dict:
    """Run every body of ``CHILD_BODIES`` in one fresh process, and return
    each body's traceback, or None where it passed.

    A worker job stuck on an event in the test run's own process would
    hold its exit, since ``concurrent.futures`` joins its threads at
    interpreter shutdown; the timeout ends a hung child instead.  A child
    that hangs or exits with an error fails every body, since any of them
    may have left it so; the interpreter, numpy, scipy and this module
    are imported once for all four.
    """
    here = Path(__file__).resolve()
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(here.parents[1] / "src"), str(here.parent)])}
    code = f"import {here.stem}; {here.stem}._run_child_bodies()"
    failure = None
    try:
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=seconds)
        out = result.stdout
        if result.returncode != 0:
            failure = f"the child exited with code {result.returncode}:\n{result.stderr}"
    except subprocess.TimeoutExpired as exc:
        # on a timeout the output read so far comes undecoded
        out = (exc.stdout or b"").decode()
        failure = f"the child still ran after {seconds} s:\n{(exc.stderr or b'').decode()}"
    done = dict(json.loads(line) for line in out.splitlines() if line.startswith('["'))
    return {name: done.get(name, f"the body did not finish: {failure}") or failure
            for name in CHILD_BODIES}


def in_child(body):
    """Fail if ``body``, one of ``CHILD_BODIES``, raised in the child, or
    if the child did not exit cleanly."""
    error = _child_outcomes()[body.__name__]
    assert error is None, error


def _failing_surface_then_next_scene():
    draw, drawn = synth._draw_noise, []

    def recorded(*args):
        draw(*args)
        drawn.append(len(args[3]))

    failing = edge_spec(SecondChunkFails(), 3 * _CHUNK, clutter=default_clutter((1.6, 0.8)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "_draw_noise", recorded)
        with pytest.raises(RuntimeError, match="second chunk"):
            generate_scene(failing)
    assert sum(failing.pile.asked) > _CHUNK
    # the worker's half had returned, every chunk drawn, before the error
    # left generate_scene
    assert drawn == [4]
    spec = edge_spec(Cone(0.3, 0.25), 2 * _CHUNK + 7, tilt_deg=8.0,
                     clutter=default_clutter((1.6, 0.8)))
    assert _scene_bytes(spec) == whole_array_generate(spec).tobytes()


def test_scene_after_a_failing_surface_matches_the_whole_array_reference():
    # the surface's error reaches the caller only after the worker has drawn
    # its noise and returned: a worker left waiting for a chunk's event would
    # hang the next scene that draws noise
    in_child(_failing_surface_then_next_scene)


def _failing_noise_draw_then_next_scene():
    def broken(*args):
        raise MemoryError("noise draw failed")

    spec = edge_spec(Cone(0.3, 0.25), _CHUNK + 1, tilt_deg=8.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "_draw_noise", broken)
        with pytest.raises(MemoryError, match="noise draw failed"):
            generate_scene(spec)
    assert _scene_bytes(spec) == whole_array_generate(spec).tobytes()


def test_failing_noise_draw_raises_and_the_next_scene_matches_the_whole_array_reference():
    in_child(_failing_noise_draw_then_next_scene)


def _scenes_on_two_threads():
    from pilevol import _worker
    specs = [edge_spec(Frustum(0.3, 0.15, 0.2), 2 * _CHUNK + 7, tilt_deg=8.0,
                       clutter=default_clutter((1.6, 0.8))),
             edge_spec(Heightfield(shape_seed=7, radius=0.3, target_volume=0.02),
                       _CHUNK + 1, tilt_deg=5.0)]
    expected = [whole_array_generate(spec).tobytes() for spec in specs]
    results = [[] for _ in specs]

    def run(k):
        for _ in range(5):
            results[k].append(_scene_bytes(specs[k]))

    # dropped, so that the two threads also race to start the pool
    _worker._pool_pid = -1
    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(specs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(len(specs)):
        assert results[k] == [expected[k]] * 5


def test_scenes_on_two_threads_match_the_whole_array_reference():
    # both callers share the one worker: one scene's noise waits in its
    # queue while the other's is drawn, and neither waits on the other's
    # events.  A short switch interval interleaves them finely
    in_child(_scenes_on_two_threads)


def test_noise_kernel_references_only_numpy():
    # it runs on the worker thread, so it must reach no pilevol function
    # through a module global: the benchmark's tracer rebinds those and
    # keeps one stack for one thread
    names = set(synth._draw_noise.__code__.co_names) & set(vars(synth))
    assert names <= {"np"}, names


def _cold_cache_heightfield_scenes():
    # the child runs this body first, before any scale is cached
    assert synth._heightfield_scale.cache_info().currsize == 0
    for spec in reference_scenes():
        if isinstance(spec.pile, Heightfield):
            assert _scene_bytes(spec) == whole_array_generate(spec).tobytes(), spec.scene_id


def test_cold_cache_heightfield_scenes_match_the_whole_array_reference():
    # a heightfield scene takes its truth's scale lazily, on the caller,
    # while the worker's noise job waits on that caller; a fresh process
    # starts with the scale's cache cold
    in_child(_cold_cache_heightfield_scenes)


def test_generate_scene_holds_about_one_copy_of_the_cloud():
    # each stage runs in place on the scene's one array, a chunk at a time;
    # the whole-array stages held about four copies of the cloud
    spec = dense_compression_scene()
    tracemalloc.start()
    try:
        scene = generate_scene(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * scene.cloud.xyz.nbytes


# SHA-256 of the crescent's cloud bytes at its default density and at the
# density of test_crescent_truth_against_quadrature, and its analytic truth
CRESCENT_DIGESTS = {
    None: "07edf9200c354a30741686664db99910e94849488b25ffb0dd3d9148d6086e07",
    1e4: "d081a7fa4692f1c25ffd59648a5a231dd72915deb4379ff59f12b638f8136ac0",
}
CRESCENT_TRUTH = float.fromhex("0x1.89374bc6a7efap-4")


def test_crescent_bytes_golden():
    for density, digest in CRESCENT_DIGESTS.items():
        scene = (crescent_scene() if density is None
                 else crescent_scene(point_density=density))
        assert _cloud_digest(scene) == digest, density
        assert scene.true_volume == CRESCENT_TRUTH


@pytest.mark.parametrize("density", [0.0, -1.0, math.nan, math.inf])
def test_crescent_rejects_a_density_that_is_not_finite_and_positive(density):
    # an infinite density passed the > 0 check and ended in the raw
    # OverflowError of the point count's int()
    with pytest.raises(InvalidParameter, match="point_density"):
        crescent_scene(point_density=density)


# repr prints every float with the shortest digits that read back to the
# same bits, so an equal text is an equal spec
COMPRESSION_SPEC_REPR = (
    "SceneSpec(pile=Frustum(r_base=0.651, r_top=0.3255, "
    "height=0.43133645355075295), footprint_area=5.2, "
    "ground_extent=(3.22490309931942, 1.61245154965971), "
    "point_density=20000.0, noise_sigma=0.005, tilt_deg=8.0, clutter=(), "
    "seed=9000, scene_id='compression-frustum-5.2')")


def test_dense_compression_scene_fields_golden():
    assert repr(dense_compression_scene()) == COMPRESSION_SPEC_REPR


def test_scene_noiseless_untilted_ground_exactly_zero():
    spec = plain_spec(Cone(0.3, 0.25), noise_sigma=0.0, tilt_deg=0.0, seed=5)
    scene = generate_scene(spec)
    # only the rigid z-offset remains: every ground point sits at exactly the
    # same level, the cloud minimum
    z = scene.cloud.xyz[:, 2]
    on_ground = z == np.min(z)
    assert on_ground.sum() > 0.5 * len(z)


def test_scene_grid_volume_converges_with_density():
    pile = Cone(0.3, 0.25)
    errors = []
    for density in (1e4, 4e4, 1e5):
        spec = plain_spec(pile, density=density, noise_sigma=0.0, tilt_deg=0.0,
                          seed=3)
        scene = generate_scene(spec)
        xyz = scene.cloud.xyz
        z = xyz[:, 2] - xyz[:, 2].min()
        est = column_volume_grid(PointCloud(np.column_stack([xyz[:, :2], z])),
                                 GridSpec(cell_size=0.02))
        errors.append(abs(est.volume - pile.true_volume) / pile.true_volume)
    assert errors[-1] < 0.01
    assert errors[-1] <= errors[0] + 0.01


def test_scene_point_budget():
    spec = plain_spec(Cone(0.3, 0.2), density=3000.0, seed=1)
    scene = generate_scene(spec)
    expected = round(3000.0 * 1.6 * 0.8)
    assert len(scene.cloud) == expected


def test_scene_clutter_appended():
    blob = ClutterSpec(kind="sphere", center=(0.5, 0.2, 0.1),
                       size=(0.05, 0.05, 0.05), count=123)
    spec = plain_spec(Cone(0.3, 0.2), density=1000.0, clutter=(blob,), seed=2)
    scene = generate_scene(spec)
    assert len(scene.cloud) == round(1000.0 * 1.28) + 123


def test_spec_validation():
    with pytest.raises(InvalidParameter):
        plain_spec(Cone(0.5, 0.3), extent=(0.6, 0.6))      # pile does not fit
    with pytest.raises(InvalidParameter):
        plain_spec(Cone(0.2, 0.3), tilt_deg=45.0)
    with pytest.raises(InvalidParameter):
        ClutterSpec(kind="cylinder", center=(0, 0, 0), size=(1, 1, 1), count=5)


def _blob(**changes):
    return ClutterSpec(**{"kind": "box", "center": (0.5, 0.2, 0.1),
                          "size": (0.05, 0.05, 0.05), "count": 10, **changes})


@pytest.mark.parametrize("call", [
    # numpy's ValueError and TypeError from default_rng
    lambda: generate_scene(replace(reference_scenes()[0], seed=-1)),
    lambda: generate_scene(replace(reference_scenes()[0], seed=1.5)),
    lambda: _blob(count=2.5),
    lambda: _blob(count=True),
    lambda: _blob(count="10"),
    # a non-finite blob put NaN rows in the scene, read as a silent 0 m^3
    lambda: _blob(center=(math.nan, 0.0, 0.0)),
    lambda: _blob(center=(0.0, math.inf, 0.0)),
    lambda: _blob(size=(0.05, math.nan, 0.05)),
    lambda: _blob(size=(0.0, 0.05, 0.05)),
    lambda: _blob(size=(0.05, 0.05, -0.05)),
    # a center or size that is no sequence ended in the TypeError of len()
    lambda: _blob(center=None),
    lambda: _blob(size=0.05),
    lambda: _blob(center=(0.0, 0.0)),
    # a NaN dimension gave NaN rows and a NaN truth, a negative radius a
    # positive truth
    lambda: Cone(0.3, math.nan),
    lambda: Cone(-0.3, 0.2),
    lambda: Cone(math.inf, 0.2),
    lambda: Frustum(0.3, 0.1, math.nan),
    lambda: Frustum(0.3, math.nan, 0.2),
    lambda: Frustum(0.3, -0.1, 0.2),
    # equal radii divided by zero in surface_height
    lambda: Frustum(0.3, 0.3, 0.2),
    lambda: Frustum(0.3, 0.4, 0.2),
    lambda: SphericalCap(math.nan, 0.1),
    lambda: SphericalCap(0.5, 0.0),
    # past a hemisphere the surface does not close at the footprint rim
    lambda: SphericalCap(0.1, 0.2),
    lambda: Heightfield(shape_seed=1.5, radius=0.4, target_volume=0.05),
    lambda: Heightfield(shape_seed=True, radius=0.4, target_volume=0.05),
    lambda: Heightfield(shape_seed=7, radius=-0.4, target_volume=0.05),
    lambda: Heightfield(shape_seed=7, radius=0.4, target_volume=math.inf),
], ids=["negative-seed", "fractional-seed", "fractional-count", "bool-count",
        "string-count", "nan-center", "inf-center", "nan-size", "zero-size",
        "negative-size", "none-center", "scalar-size", "two-value-center",
        "nan-cone-height",
        "negative-cone-radius", "inf-cone-radius", "nan-frustum-height",
        "nan-frustum-top", "negative-frustum-top", "equal-frustum-radii",
        "frustum-top-past-base", "nan-cap-radius", "zero-cap-height",
        "cap-past-hemisphere", "fractional-shape-seed", "bool-shape-seed",
        "negative-heightfield-radius", "inf-heightfield-volume"])
def test_synth_inputs_raise_typed_errors(call):
    with pytest.raises(InvalidParameter):
        call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1", None],
                         ids=["nan", "inf", "-inf", "bool", "string", "none"])
@pytest.mark.parametrize("field", ["footprint_area", "point_density",
                                   "ground_extent[0]", "ground_extent[1]",
                                   "noise_sigma", "tilt_deg", "seed"])
def test_spec_rejects_values_that_are_not_finite(field, bad):
    # an infinite density ended in the raw OverflowError of the point
    # count's int(), a NaN area built a scene, and an infinite noise sigma
    # built one after a numpy warning; a bool density was taken as 1 point
    # per m^2, and a string tilt ended in a bare TypeError
    spec = reference_scenes()[0]
    if field.startswith("ground_extent"):
        extent = list(spec.ground_extent)
        extent[int(field[-2])] = bad
        change = {"ground_extent": tuple(extent)}
    else:
        change = {field: bad}
    with pytest.raises(InvalidParameter, match=field.split("[")[0]):
        replace(spec, **change)


@pytest.mark.parametrize("field, bad", [
    ("pile", 3), ("pile", None), ("pile", reference_scenes()[0]),
    ("ground_extent", (1.0,)), ("ground_extent", (1.6, 0.8, 0.5)),
    ("ground_extent", 1.6), ("ground_extent", None),
    ("clutter", [_blob()]), ("clutter", (_blob(), "wall")), ("clutter", None),
])
def test_spec_rejects_a_wrongly_typed_pile_extent_or_clutter(field, bad):
    # pile = 3 ended in an AttributeError of the footprint check, and a
    # one-value extent in the unpacking ValueError of generate_scene
    with pytest.raises(InvalidParameter, match=field):
        replace(reference_scenes()[0], **{field: bad})


# ---------------------------------------------------------------------------
# reference catalogue
# ---------------------------------------------------------------------------

def test_catalogue_has_18_scenes():
    assert len(reference_scenes()) == 18


def test_catalogue_grid_structure():
    specs = reference_scenes()
    by_area = {}
    for spec in specs:
        by_area.setdefault(spec.footprint_area, []).append(spec)
    assert sorted(by_area) == [1.3, 2.6, 5.2]
    assert len(by_area[1.3]) == 9
    assert len(by_area[2.6]) == 6
    assert len(by_area[5.2]) == 3

    small_volumes = sorted({round(s.pile.true_volume, 6) for s in by_area[1.3]})
    assert small_volumes == [0.014, 0.028, 0.035]
    assert {round(s.pile.true_volume, 6) for s in by_area[2.6]} == {0.028, 0.035}
    assert {round(s.pile.true_volume, 6) for s in by_area[5.2]} == {0.335}

    # three shape variants per (area, volume) pair
    for area, volume in [(1.3, 0.014), (5.2, 0.335)]:
        variants = [type(s.pile).__name__ for s in specs
                    if s.footprint_area == area
                    and round(s.pile.true_volume, 6) == volume]
        assert sorted(variants) == ["Cone", "Frustum", "Heightfield"]


def test_catalogue_piles_fit_and_truths_exact():
    for spec in reference_scenes():
        assert 2 * spec.pile.footprint_radius < min(spec.ground_extent)
        assert spec.pile.true_volume == pytest.approx(
            {0.014: 0.014, 0.028: 0.028, 0.035: 0.035, 0.335: 0.335}[
                round(spec.pile.true_volume, 3)])
        assert spec.clutter      # clutter present by default


def test_catalogue_extent_matches_declared_area():
    for spec in reference_scenes():
        width, length = spec.ground_extent
        assert width * length == pytest.approx(spec.footprint_area)


# ---------------------------------------------------------------------------
# special scenes
# ---------------------------------------------------------------------------

def test_crescent_truth_against_quadrature():
    scene = crescent_scene(point_density=1e4)
    r_in, r_out, height, sweep = 0.25, 0.55, 0.3, math.radians(240.0)
    n = 2000
    axis = np.linspace(-r_out, r_out, n)
    xs, ys = np.meshgrid(axis, axis)
    r = np.hypot(xs, ys)
    theta = np.mod(np.arctan2(ys, xs), 2 * math.pi)
    w = r_out - r_in
    inside = (r >= r_in) & (r <= r_out) & (theta <= sweep)
    z = np.where(inside, height * np.sin(math.pi * (r - r_in) / w), 0.0)
    cell = (axis[1] - axis[0]) ** 2
    quad = float(z.sum()) * cell
    assert scene.true_volume == pytest.approx(quad, rel=2e-3)


def test_smeared_ground_keeps_truth_and_widens_peak():
    spec = plain_spec(Cone(0.3, 0.25), density=2e4, noise_sigma=0.002, seed=9)
    rise = 0.02
    scene = smeared_ground_scene(spec, rise)
    assert scene.true_volume == spec.pile.true_volume
    # ground z spread grows to about the rise
    z = scene.cloud.xyz[:, 2]
    ground = z[z < np.quantile(z, 0.5)]
    assert ground.max() - ground.min() > 0.6 * rise


def test_walker_clutter_respects_bounds():
    for seed in range(20):
        blob = walker_clutter((3.2, 1.6), pile_radius=0.6, seed=seed)
        cx, cy, _ = blob.center
        assert abs(cx) <= 1.6
        assert abs(cy) <= 0.8
        assert math.hypot(cx, cy) >= 0.6 + blob.size[0] + 0.15 - 1e-9
        assert 0.08 <= blob.size[0] <= 0.18


def test_dense_compression_scene_is_large_and_clean():
    spec = dense_compression_scene()
    assert spec.clutter == ()
    assert spec.footprint_area == 5.2
    scene = generate_scene(spec)
    assert len(scene.cloud) > 90_000
