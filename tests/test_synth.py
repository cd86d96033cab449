"""Synthetic scene generation and ground-truth bookkeeping."""

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pilevol import synth
from pilevol.cloud import PointCloud
from pilevol.errors import InvalidParameter
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


def test_heightfield_quadrature_matches_direct_rule_where_clamped(monkeypatch):
    # no drawn wave set dips below the clamp (the lowest field over seeds
    # 0..400000 is 0.067), so these waves are made to dip below it on about
    # 1 % of the footprint
    waves = (((9.0, 2.0), (-3.0, 8.0), (5.0, -6.0), (7.0, 7.0)),
             (0.3, 1.1, 2.0, 4.0), (0.6, 0.5, 0.55, 0.45))
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
