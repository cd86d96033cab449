"""Synthetic scene generation and ground-truth bookkeeping."""

import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pilevol import synth
from pilevol.cloud import _CHUNK, PointCloud
from pilevol.errors import InvalidParameter
from pilevol.pose import rodrigues
from pilevol.synth import (
    HEIGHTFIELD_QUADRATURE_N,
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
    heightfield_quadrature,
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


def test_heightfield_quadrature_convergence():
    pile = Heightfield(shape_seed=7, radius=0.4, target_volume=0.05)
    declared = pile.true_volume
    assert declared == 0.05
    fine = heightfield_quadrature(pile, n=4096)
    assert abs(fine - declared) / declared < 5e-4


def direct_quadrature(pile, n):
    """The midpoint rule point by point: ``_raw_height`` on the whole grid."""
    a = pile.radius
    step = 2 * a / n
    axis = -a + (np.arange(n) + 0.5) * step
    xs, ys = np.meshgrid(axis, axis)
    return float(pile._raw_height(xs, ys).sum()) * step * step


@pytest.mark.parametrize("n", [1, 2, 63, 64, 255, 256])
def test_heightfield_quadrature_matches_direct_rule(n):
    # odd n has a centre row and column with no mirror partner
    pile = Heightfield(shape_seed=7, radius=0.4, target_volume=0.05)
    separable = heightfield_quadrature(pile, n=n, scaled=False)
    assert separable == pytest.approx(direct_quadrature(pile, n), rel=1e-13, abs=0)


# no drawn wave set dips below the clamp (the lowest field over seeds
# 0..400000 is 0.067), so these waves are made to dip below it on about
# 1 % of the footprint
CLAMPED_WAVES = (((9.0, 2.0), (-3.0, 8.0), (5.0, -6.0), (7.0, 7.0)),
                 (0.3, 1.1, 2.0, 4.0), (0.6, 0.5, 0.55, 0.45))


def test_heightfield_quadrature_matches_direct_rule_where_clamped(monkeypatch):
    waves = CLAMPED_WAVES
    monkeypatch.setattr(synth, "_heightfield_waves", lambda shape_seed, radius: waves)
    pile = Heightfield(shape_seed=0, radius=0.4, target_volume=0.05)
    n = 255
    axis = -0.4 + (np.arange(n) + 0.5) * (0.8 / n)
    xs, ys = np.meshgrid(axis, axis)
    field = 1 + sum(amp * np.cos(kx * xs + ky * ys + phi)
                    for (kx, ky), phi, amp in zip(*waves))
    assert (field[np.hypot(xs, ys) < 0.4] < 0.05).mean() > 0.005
    separable = heightfield_quadrature(pile, n=n, scaled=False)
    assert separable == pytest.approx(direct_quadrature(pile, n), rel=1e-13, abs=0)


def test_catalogue_heightfield_quadratures_match_direct_rule():
    piles = [s.pile for s in reference_scenes() if isinstance(s.pile, Heightfield)]
    assert len(piles) == 6
    for pile in piles:
        separable = heightfield_quadrature(pile, n=512, scaled=False)
        assert separable == pytest.approx(direct_quadrature(pile, 512), rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [0, -3, 2.5])
def test_heightfield_quadrature_rejects_bad_size(n):
    pile = Heightfield(shape_seed=7, radius=0.4, target_volume=0.05)
    with pytest.raises(InvalidParameter):
        heightfield_quadrature(pile, n=n)


def test_catalogue_heightfield_scales_independent_of_blas_threads():
    # the wave field is a BLAS product; its truths must not depend on how
    # many threads the product runs on
    code = ("from pilevol.synth import Heightfield, _heightfield_scale, reference_scenes\n"
            "print(*[_heightfield_scale(s.pile).hex() for s in reference_scenes()"
            " if isinstance(s.pile, Heightfield)])")
    src = Path(__file__).resolve().parents[1] / "src"
    scales = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        scales.append(result.stdout.split())
    assert len(scales[0]) == 6
    assert scales[0] == scales[1]


def whole_quadrant_quadrature(pile, n):
    """The separable rule with the radial taper evaluated on the whole
    quadrant of every block, the way ``heightfield_quadrature`` did before
    it mirrored the quadrant about its diagonal and skipped the cells
    outside the disc: the reference its sum must equal bit for bit."""
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


CATALOGUE_HEIGHTFIELDS = [s.pile for s in reference_scenes()
                          if isinstance(s.pile, Heightfield)]


# one block, one block and a row, and two blocks and a row of the quadrant,
# at the block rows' own n too; odd sizes with an unmirrored centre row and
# column, and the catalogue's 2048
BLOCK_ROWS = synth._QUADRATURE_BLOCK_ROWS


@pytest.mark.parametrize("n", [1, 2, 7, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               63, 64, 65, 129, 2047, 2048])
@pytest.mark.parametrize("pile", CATALOGUE_HEIGHTFIELDS,
                         ids=[f"seed{p.shape_seed}" for p in CATALOGUE_HEIGHTFIELDS])
def test_quadrature_matches_the_whole_quadrant_reference(pile, n):
    assert (heightfield_quadrature(pile, n=n, scaled=False)
            == whole_quadrant_quadrature(pile, n))


@pytest.mark.parametrize("n", [7, 65, 255, 2048])
def test_clamped_quadrature_matches_the_whole_quadrant_reference(monkeypatch, n):
    monkeypatch.setattr(synth, "_heightfield_waves", lambda shape_seed, radius: CLAMPED_WAVES)
    pile = Heightfield(shape_seed=0, radius=0.4, target_volume=0.05)
    assert (heightfield_quadrature(pile, n=n, scaled=False)
            == whole_quadrant_quadrature(pile, n))


# the scales every catalogue heightfield's truth rests on, as the
# whole-quadrant quadrature gave them
PINNED_SCALES = ["0x1.da91ad897180ep-3", "0x1.92e85a94f5b57p-2",
                 "0x1.64af33df540f9p-2", "0x1.97233db275aebp-3",
                 "0x1.055f7cfd1b6b7p-2", "0x1.8dfe9d23968b5p-1"]


def test_catalogue_heightfield_scales_are_pinned():
    scales = [synth._heightfield_scale(pile).hex() for pile in CATALOGUE_HEIGHTFIELDS]
    assert scales == PINNED_SCALES


def fresh_catalogue_scales() -> list[str]:
    """Each catalogue heightfield's scale from a quadrature of its own, by
    ``float.hex``, with no cache between."""
    return [(pile.target_volume
             / heightfield_quadrature(pile, HEIGHTFIELD_QUADRATURE_N, scaled=False)).hex()
            for pile in CATALOGUE_HEIGHTFIELDS]


def run_within(seconds, fn, *args):
    """``fn(*args)`` on a thread of its own; a call still running after
    ``seconds`` fails the test instead of hanging it."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn(*args)
        except BaseException as error:
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{fn.__name__} did not return in {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class FloorFailsAt:
    """A wave-field floor whose ``fail_at``-th use raises: the quadrature's
    caller half fails part-way through its blocks."""

    floor = synth._HEIGHTFIELD_FLOOR

    def __init__(self, fail_at):
        self.uses, self.fail_at = 0, fail_at

    def __array__(self, dtype=None, copy=None):
        self.uses += 1
        if self.uses == self.fail_at:
            raise RuntimeError("caller half failed")
        return np.array(self.floor, dtype=dtype)


def test_failing_caller_half_raises_and_the_next_scales_are_pinned(monkeypatch):
    # the worker's half returns before the caller's error leaves the
    # quadrature: a worker left waiting for a scratch block would hang the
    # next quadrature and the next scene
    taper_blocks, returned = synth._taper_blocks, []

    def recorded(*args):
        taper_blocks(*args)
        returned.append(sum(event.is_set() for event in args[6]))

    floor = FloorFailsAt(fail_at=9)
    with monkeypatch.context() as patch:
        patch.setattr(synth, "_HEIGHTFIELD_FLOOR", floor)
        patch.setattr(synth, "_taper_blocks", recorded)
        with pytest.raises(RuntimeError, match="caller half failed"):
            run_within(60, heightfield_quadrature, CATALOGUE_HEIGHTFIELDS[0],
                       HEIGHTFIELD_QUADRATURE_N, False)
    assert floor.uses == 9
    # the ninth use is block 4's first, so the worker had written blocks
    # 0..4 and at most two past them
    assert len(returned) == 1 and 5 <= returned[0] <= 7
    assert run_within(60, fresh_catalogue_scales) == PINNED_SCALES


def test_failing_worker_half_raises_and_the_next_scales_are_pinned(monkeypatch):
    # the caller never waits on a block the failed worker will not write
    taper, calls = synth._heightfield_taper, []

    def fails_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise MemoryError("worker half failed")
        return taper(*args)

    with monkeypatch.context() as patch:
        patch.setattr(synth, "_heightfield_taper", fails_third)
        with pytest.raises(MemoryError, match="worker half failed"):
            run_within(60, heightfield_quadrature, CATALOGUE_HEIGHTFIELDS[0],
                       HEIGHTFIELD_QUADRATURE_N, False)
    assert len(calls) == 3
    assert run_within(60, fresh_catalogue_scales) == PINNED_SCALES


def test_quadratures_on_two_threads_scales_are_pinned(monkeypatch):
    # both callers share the one worker: one quadrature's taper job waits in
    # its queue while the other's runs, and neither waits on the other's
    # events.  A short switch interval interleaves them finely, and with the
    # pool dropped first they also race to start it
    from pilevol import _worker
    results = [None, None]

    def run(k):
        results[k] = fresh_catalogue_scales()

    monkeypatch.setattr(_worker, "_pool_pid", -1)
    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
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
    assert results == [PINNED_SCALES, PINNED_SCALES]


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
        "6e1b2164a3f4420b67a2c71e384d39d8ab7220012807280fb5f734ea1d127a28",
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


class SecondChunkFails:
    """A pile whose surface raises once it is asked for a row past the
    first chunk."""

    footprint_radius = 0.3
    true_volume = 0.0

    def __init__(self):
        self.rows = 0

    def surface_height(self, x, y):
        self.rows += len(x)
        if self.rows > _CHUNK:
            raise RuntimeError("surface failed in the second chunk")
        return np.zeros_like(x)


def _scene_bytes(spec):
    return generate_scene(spec).cloud.xyz.tobytes()


def test_scene_after_a_failing_surface_matches_the_whole_array_reference(monkeypatch):
    # the surface's error reaches the caller only after the worker has drawn
    # its noise and returned: a worker left waiting for a chunk's event would
    # hang the next scene that draws noise
    draw, drawn = synth._draw_noise, []

    def recorded(*args):
        draw(*args)
        drawn.append(len(args[3]))

    failing = edge_spec(SecondChunkFails(), 3 * _CHUNK, clutter=default_clutter((1.6, 0.8)))
    with monkeypatch.context() as patch:
        patch.setattr(synth, "_draw_noise", recorded)
        with pytest.raises(RuntimeError, match="second chunk"):
            run_within(60, generate_scene, failing)
    assert failing.pile.rows > _CHUNK
    # the worker's half had returned, every chunk drawn, before the error
    # left generate_scene
    assert drawn == [4]
    spec = edge_spec(Cone(0.3, 0.25), 2 * _CHUNK + 7, tilt_deg=8.0,
                     clutter=default_clutter((1.6, 0.8)))
    assert run_within(60, _scene_bytes, spec) == whole_array_generate(spec).tobytes()


def test_failing_noise_draw_raises_and_the_next_scene_matches_the_whole_array_reference(
        monkeypatch):
    def broken(*args):
        raise MemoryError("noise draw failed")

    spec = edge_spec(Cone(0.3, 0.25), _CHUNK + 1, tilt_deg=8.0)
    with monkeypatch.context() as patch:
        patch.setattr(synth, "_draw_noise", broken)
        with pytest.raises(MemoryError, match="noise draw failed"):
            run_within(60, generate_scene, spec)
    assert run_within(60, _scene_bytes, spec) == whole_array_generate(spec).tobytes()


def test_scenes_on_two_threads_match_the_whole_array_reference(monkeypatch):
    # both callers share the one worker: one scene's noise waits in its
    # queue while the other's is drawn, and neither waits on the other's
    # events.  A short switch interval interleaves them finely, and with the
    # pool dropped first they also race to start it
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

    monkeypatch.setattr(_worker, "_pool_pid", -1)
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


def test_noise_kernel_references_only_numpy():
    # it runs on the worker thread, so it must reach no pilevol function
    # through a module global: the benchmark's tracer rebinds those and
    # keeps one stack for one thread
    names = set(synth._draw_noise.__code__.co_names) & set(vars(synth))
    assert names <= {"np"}, names


@pytest.mark.parametrize("kernel", [synth._taper_blocks, synth._heightfield_taper],
                         ids=["taper_blocks", "heightfield_taper"])
def test_quadrature_worker_kernels_reference_only_numpy(kernel):
    # the quadrature's worker half, and the taper it is handed, run on the
    # worker thread under the same rule as the noise kernel
    names = set(kernel.__code__.co_names) & set(vars(synth))
    assert names <= {"np"}, names


def test_quadrature_worker_half_allocates_no_array():
    # it writes a block's taper into the caller's scratch block and its mask
    # into the caller's bool block; numpy's broadcast hypot takes its own
    # iteration buffer, of at most 8192 elements an operand
    n, a = 2048, 0.4
    axis = -a + (np.arange(n) + 0.5) * (2.0 * a / n)
    out = np.empty((BLOCK_ROWS, n // 2))
    free, ready = [threading.Event()], [threading.Event()]
    free[0].set()
    args = (synth._heightfield_taper, axis, a, [(0, BLOCK_ROWS, 0, out)],
            np.empty(out.size, dtype=bool), free, ready, threading.Event())
    synth._taper_blocks(*args)
    first = out.copy()
    tracemalloc.start()
    try:
        synth._taper_blocks(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ready[0].is_set()
    assert peak < 3 * 8 * 8192 < out.nbytes
    r = np.hypot(axis[:n // 2], axis[:BLOCK_ROWS, None])
    assert np.array_equal(out, first)
    assert np.array_equal(first, synth._heightfield_taper(r, a))


def test_cold_cache_heightfield_scenes_match_the_whole_array_reference():
    # a heightfield scene takes its truth's scale, half of whose quadrature
    # runs on the worker, before its noise job holds the worker waiting on
    # the caller; taken lazily by the surface, the quadrature's job would
    # queue behind the noise job, and neither would finish.  A fresh process
    # starts with cold caches, and its timeout ends a hang that, on a thread
    # of the test run, would also hold the run's exit on the stuck worker
    specs = [spec for spec in reference_scenes() if isinstance(spec.pile, Heightfield)]
    expected = [hashlib.sha256(whole_array_generate(spec).tobytes()).hexdigest()
                for spec in specs]
    code = ("import hashlib\n"
            "from pilevol.synth import Heightfield, generate_scene, reference_scenes\n"
            "print(*[hashlib.sha256(generate_scene(s).cloud.xyz.tobytes()).hexdigest()"
            " for s in reference_scenes() if isinstance(s.pile, Heightfield)])")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.split() == expected


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
    lambda: heightfield_quadrature(
        Heightfield(shape_seed=7, radius=0.4, target_volume=0.05), n=True),
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
        "negative-size", "bool-quadrature-size", "nan-cone-height",
        "negative-cone-radius", "inf-cone-radius", "nan-frustum-height",
        "nan-frustum-top", "negative-frustum-top", "equal-frustum-radii",
        "frustum-top-past-base", "nan-cap-radius", "zero-cap-height",
        "cap-past-hemisphere", "fractional-shape-seed", "bool-shape-seed",
        "negative-heightfield-radius", "inf-heightfield-volume"])
def test_synth_inputs_raise_typed_errors(call):
    with pytest.raises(InvalidParameter):
        call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["footprint_area", "point_density",
                                   "ground_extent[0]", "ground_extent[1]",
                                   "noise_sigma"])
def test_spec_rejects_values_that_are_not_finite(field, bad):
    # an infinite density ended in the raw OverflowError of the point
    # count's int(), a NaN area built a scene, and an infinite noise sigma
    # built one after a numpy warning
    spec = reference_scenes()[0]
    if field.startswith("ground_extent"):
        extent = list(spec.ground_extent)
        extent[int(field[-2])] = bad
        change = {"ground_extent": tuple(extent)}
    else:
        change = {field: bad}
    with pytest.raises(InvalidParameter, match=field.split("[")[0]):
        replace(spec, **change)


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
