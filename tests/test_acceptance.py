"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a PASS line with the measured figures, so running
``pytest tests/test_acceptance.py -s`` doubles as the acceptance report.
All expected values come from analytic ground truth or from brute-force
oracles computed in-test.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pilevol._hdbscan import core_distances, mutual_reachability_mst
from pilevol.cloud import PointCloud
from pilevol.ground import height_histogram
from pilevol.pipeline import (
    PipelineConfig,
    _round_seed,
    compression_sweep,
    run_pipeline,
    run_report_csv,
)
from pilevol.pose import RansacParams, ransac_plane, rotation_to_up
from pilevol.synth import (
    crescent_scene,
    dense_compression_scene,
    generate_scene,
    reference_scenes,
    smeared_ground_scene,
    walker_clutter,
)
from pilevol.volume import (
    GridSpec,
    column_volume_grid,
    convex_hull_2d,
    hull3d_volume,
    slice_volume,
)


def _run_scene(spec, seed=None, **config_kw):
    seed = spec.seed if seed is None else seed
    scene = generate_scene(replace(spec, seed=seed))
    config = PipelineConfig(seed=seed, **config_kw)
    return run_pipeline(config, scene=scene)


def _study(spec, config, rounds, add_walker=False):
    errors = []
    for r in range(rounds):
        seed = _round_seed(spec.seed, r)
        s = replace(spec, seed=seed)
        if add_walker:
            s = replace(s, clutter=s.clutter + (walker_clutter(
                s.ground_extent, s.pile.footprint_radius, seed),))
        report = run_pipeline(replace(config, seed=seed),
                              scene=generate_scene(s))
        errors.append(report.relative_error)
    return np.asarray(errors)


# ---------------------------------------------------------------------------
# 1. End-to-end accuracy over the 18-scene catalogue
# ---------------------------------------------------------------------------

def test_end_to_end_accuracy():
    t0 = time.perf_counter()
    by_footprint: dict[float, list[float]] = {}
    worst = 0.0
    for spec in reference_scenes():
        report = _run_scene(spec)
        err = abs(report.relative_error)
        by_footprint.setdefault(spec.footprint_area, []).append(err)
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    means = {area: float(np.mean(errs)) for area, errs in by_footprint.items()}
    for area, mean in means.items():
        assert mean <= 0.03, f"footprint {area}: mean error {mean:.2%} > 3%"
    assert worst <= 0.05, f"worst scene error {worst:.2%} > 5%"
    assert elapsed <= 600.0, f"catalogue run took {elapsed:.0f}s > 10 min"
    print(f"\nPASS end-to-end accuracy: per-footprint means "
          f"{ {a: round(m * 100, 2) for a, m in means.items()} }%, "
          f"worst {worst:.2%}, runtime {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. Compression robustness
# ---------------------------------------------------------------------------

def test_compression_robustness():
    spec = dense_compression_scene()
    rows = compression_sweep(spec, [0.034, 0.3], rounds=2)
    origin, band, crushed = rows
    assert origin.compressed_ratio == 1.0
    assert 0.06 <= band.compressed_ratio <= 0.10, band.compressed_ratio
    assert band.mean_error <= origin.mean_error + 0.015, (
        f"{band.mean_error:.2%} vs origin {origin.mean_error:.2%}"
    )
    assert crushed.compressed_ratio <= 0.001
    assert crushed.mean_error > 0.15
    print(f"\nPASS compression: origin {origin.mean_error:.2%}, "
          f"ratio {band.compressed_ratio:.4f} -> {band.mean_error:.2%} "
          f"(delta {100 * (band.mean_error - origin.mean_error):+.2f}pp), "
          f"ratio {crushed.compressed_ratio:.4f} -> {crushed.mean_error:.2%}")


# ---------------------------------------------------------------------------
# 3. Ablation: posture correction off on tilted scenes
# ---------------------------------------------------------------------------

def test_ablation_posture_off():
    rounds = 5
    on_errors = []
    off_errors = []
    for spec in reference_scenes()[:3]:
        tilted = replace(spec, tilt_deg=10.0)
        on_errors.extend(_study(tilted, PipelineConfig(), rounds))
        off_errors.extend(_study(
            tilted, PipelineConfig(enable_posture=False), rounds))
    on = np.asarray(on_errors)
    off = np.asarray(off_errors)
    mean_ratio = np.abs(off).mean() / np.abs(on).mean()
    var_ratio = off.var() / on.var()
    assert mean_ratio >= 5.0, f"mean inflation {mean_ratio:.1f}x < 5x"
    assert var_ratio >= 10.0, f"variance inflation {var_ratio:.1f}x < 10x"
    print(f"\nPASS posture ablation: mean {np.abs(on).mean():.2%} -> "
          f"{np.abs(off).mean():.2%} ({mean_ratio:.0f}x), "
          f"variance {on.var():.2e} -> {off.var():.2e} ({var_ratio:.0f}x)")


# ---------------------------------------------------------------------------
# 4. Ablation: both filters off with clutter (50-seed variance)
# ---------------------------------------------------------------------------

def test_ablation_filters_off():
    rounds = 50
    spec = reference_scenes()[15]      # largest footprint: clutter is a small
    on = _study(spec, PipelineConfig(), rounds, add_walker=True)
    off = _study(spec, PipelineConfig(enable_prefilter=False,
                                      enable_fine_filter=False),
                 rounds, add_walker=True)
    var_ratio = off.var() / on.var()
    mean_off = float(np.abs(off).mean())
    assert var_ratio >= 5.0, f"variance inflation {var_ratio:.1f}x < 5x"
    assert mean_off < 0.10, f"filters-off mean error {mean_off:.2%} >= 10%"
    print(f"\nPASS filter ablation ({rounds} seeds): variance "
          f"{on.var():.2e} -> {off.var():.2e} ({var_ratio:.0f}x), "
          f"mean error {np.abs(on).mean():.2%} -> {mean_off:.2%}")


# ---------------------------------------------------------------------------
# 5. Mid-plateau fallback on smeared ground
# ---------------------------------------------------------------------------

def test_mid_plateau_on_smeared_ground():
    errors = []
    for spec in reference_scenes()[:3]:
        flat = generate_scene(replace(spec, tilt_deg=0.0))
        z = flat.cloud.xyz[:, 2]
        bin_width = (z.max() - z.min()) / 256
        scene = smeared_ground_scene(spec, rise=3 * bin_width)
        report = run_pipeline(
            PipelineConfig(seed=spec.seed, ground_mode="MID_PLATEAU"),
            scene=scene)
        errors.append(abs(report.relative_error))
    mean = float(np.mean(errors))
    assert mean <= 0.05, f"mid-plateau mean error {mean:.2%} > 5%"
    print(f"\nPASS mid-plateau: mean error {mean:.2%} over "
          f"{len(errors)} smeared-ground scenes "
          f"(per-scene {[round(e * 100, 2) for e in errors]}%)")


# ---------------------------------------------------------------------------
# 6. Ground override degradation
# ---------------------------------------------------------------------------

def test_override_degradation():
    ratios = []
    for spec in reference_scenes()[:3]:
        scene = generate_scene(spec)
        first = run_pipeline(PipelineConfig(seed=spec.seed), scene=scene)
        biased = run_pipeline(
            PipelineConfig(seed=spec.seed, ground_mode="OVERRIDE",
                           override_height=first.ground.height + 0.02),
            scene=scene)
        ratios.append(abs(biased.relative_error)
                      / max(abs(first.relative_error), 1e-9))
    assert min(ratios) >= 3.0, f"override inflation {min(ratios):.1f}x < 3x"
    print(f"\nPASS override degradation: +2 cm bias inflates error by "
          f"{[round(r, 1) for r in ratios]}x")


# ---------------------------------------------------------------------------
# 7. Baseline pathologies
# ---------------------------------------------------------------------------

def test_baseline_pathologies():
    rng = np.random.default_rng(55)
    n = 60_000
    r, h = 0.5, 0.6
    radius = r * np.sqrt(rng.uniform(0, 1, n))
    theta = rng.uniform(0, 2 * math.pi, n)
    cone = PointCloud(np.column_stack([
        radius * np.cos(theta), radius * np.sin(theta), h * (1 - radius / r)
    ]))
    true = math.pi * r * r * h / 3
    slab = slice_volume(cone, h).volume
    starved = slice_volume(cone, 1.2e-5).volume
    assert slab >= 1.5 * true, f"single slab {slab:.4f} < 1.5x truth"
    assert starved < true, "starved slicing failed to underestimate"

    crescent = crescent_scene()
    pile = PointCloud(crescent.cloud.xyz[crescent.cloud.xyz[:, 2] > 0])
    hull = hull3d_volume(pile).volume
    grid = column_volume_grid(pile, GridSpec(cell_size=0.02)).volume
    hull_rel = hull / crescent.true_volume - 1.0
    grid_rel = abs(grid / crescent.true_volume - 1.0)
    assert hull_rel >= 0.10, f"hull overestimate {hull_rel:.1%} < 10%"
    assert grid_rel <= 0.03, f"grid error {grid_rel:.1%} > 3%"
    print(f"\nPASS baseline pathologies: slab {slab / true - 1:+.0%}, "
          f"starved {starved / true - 1:+.0%}, crescent hull {hull_rel:+.0%}, "
          f"crescent grid {grid_rel:.2%}")


# ---------------------------------------------------------------------------
# 8. Oracle equivalence suites
# ---------------------------------------------------------------------------

def test_oracle_equivalence():
    rng = np.random.default_rng(77)

    # radius filter vs quadratic loop, exact, N = 5000
    from pilevol.denoise import RadiusFilterParams, radius_outlier_filter
    xyz = np.vstack([rng.normal(0, 0.1, (4800, 3)),
                     rng.uniform(-4, 4, (200, 3))])
    r0 = 0.035
    counts = np.empty(len(xyz), dtype=int)
    for i in range(len(xyz)):
        d = np.linalg.norm(xyz - xyz[i], axis=1)
        counts[i] = int(np.count_nonzero(d <= r0)) - 1
    expected = xyz[counts >= 5]
    got = radius_outlier_filter(PointCloud(xyz), RadiusFilterParams(r0, 5))
    np.testing.assert_array_equal(got.xyz, expected)

    # MST weight vs dense Prim on the explicit mutual-reachability matrix,
    # exact, N = 2000
    pts = np.vstack([rng.normal(0, 0.2, (1200, 3)),
                     rng.normal(0, 0.3, (600, 3)) + [3, 0, 0],
                     rng.uniform(-6, 6, (200, 3))])
    k = 8
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    dd = d + np.diag(np.full(len(pts), np.inf))
    core_oracle = np.sort(dd, axis=1)[:, k - 1]
    mreach = np.maximum(d, np.maximum(core_oracle[:, None], core_oracle[None, :]))
    np.fill_diagonal(mreach, 0.0)
    in_tree = np.zeros(len(pts), dtype=bool)
    best = mreach[0].copy()
    in_tree[0] = True
    oracle_weight = 0.0
    for _ in range(len(pts) - 1):
        masked = np.where(in_tree, np.inf, best)
        nxt = int(np.argmin(masked))
        oracle_weight += masked[nxt]
        in_tree[nxt] = True
        best = np.minimum(best, mreach[nxt])
    weight = mutual_reachability_mst(pts, core_distances(pts, k))[:, 2].sum()
    assert abs(weight - oracle_weight) < 1e-9

    # 2D hull vs brute-force hull (all-triples interior rejection), N <= 200
    def brute_hull_area(points):
        pts2 = np.unique(points, axis=0)
        keep = []
        for i in range(len(pts2)):
            interior = False
            for a in range(len(pts2)):
                for b in range(a + 1, len(pts2)):
                    for c in range(b + 1, len(pts2)):
                        if i in (a, b, c):
                            continue
                        p, q, s = pts2[a], pts2[b], pts2[c]
                        x = pts2[i]
                        d1 = (q[0]-p[0])*(x[1]-p[1]) - (q[1]-p[1])*(x[0]-p[0])
                        d2 = (s[0]-q[0])*(x[1]-q[1]) - (s[1]-q[1])*(x[0]-q[0])
                        d3 = (p[0]-s[0])*(x[1]-s[1]) - (p[1]-s[1])*(x[0]-s[0])
                        neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
                        pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
                        if not (neg and pos):
                            interior = True
                            break
                    if interior:
                        break
                if interior:
                    break
            if not interior:
                keep.append(pts2[i])
        hull_pts = np.asarray(keep)
        center = hull_pts.mean(axis=0)
        order = np.argsort(np.arctan2(hull_pts[:, 1] - center[1],
                                      hull_pts[:, 0] - center[0]))
        poly = hull_pts[order]
        x, y = poly[:, 0], poly[:, 1]
        return 0.5 * abs(float(np.dot(x, np.roll(y, -1))
                               - np.dot(y, np.roll(x, -1))))

    for n in (10, 40):
        sample = rng.uniform(-1, 1, size=(n, 2))
        _, area = convex_hull_2d(sample)
        assert area == pytest.approx(brute_hull_area(sample), abs=1e-12)

    # rotation vs quaternion oracle at 1e-9
    for _ in range(50):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        R = rotation_to_up(v)
        np.testing.assert_allclose(R @ v, [0, 0, 1], atol=1e-9)
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-9)

    # RANSAC normal within 0.5 degrees on sigma = 0.005 ground
    ground = np.column_stack([rng.uniform(-1, 1, 5000),
                              rng.uniform(-1, 1, 5000),
                              rng.normal(0, 0.005, 5000)])
    pile = np.column_stack([rng.uniform(-0.3, 0.3, 2000),
                            rng.uniform(-0.3, 0.3, 2000),
                            rng.uniform(0.1, 0.5, 2000)])
    plane = ransac_plane(PointCloud(np.vstack([ground, pile])),
                         RansacParams(seed=5))
    angle = math.degrees(math.acos(float(np.clip(plane.unit_normal @ [0, 0, 1],
                                                 -1, 1))))
    assert angle <= 0.5

    print("\nPASS oracle equivalence: radius==brute(N=5000), "
          "MST==dense-Prim(N=2000), hull2d==brute, rotation<=1e-9, "
          f"RANSAC normal {angle:.3f} deg")


# ---------------------------------------------------------------------------
# 9. Numerical invariants
# ---------------------------------------------------------------------------

def test_numerical_invariants():
    rng = np.random.default_rng(99)

    # rigid-motion distance preservation at 1e-9 relative
    from pilevol.pose import correct_posture
    ground = np.column_stack([rng.uniform(-1, 1, 3000),
                              rng.uniform(-1, 1, 3000),
                              rng.normal(0, 0.005, 3000)])
    cloud = PointCloud(ground)
    theta = math.radians(12.0)
    rot = np.array([[1, 0, 0],
                    [0, math.cos(theta), -math.sin(theta)],
                    [0, math.sin(theta), math.cos(theta)]])
    tilted = cloud.transformed(rot, offset=(0.2, -0.1, 0.5))
    plane = ransac_plane(tilted, RansacParams(seed=2))
    corrected = correct_posture(tilted, plane)
    idx = rng.integers(0, len(cloud), size=(500, 2))
    before = np.linalg.norm(tilted.xyz[idx[:, 0]] - tilted.xyz[idx[:, 1]], axis=1)
    after = np.linalg.norm(corrected.xyz[idx[:, 0]] - corrected.xyz[idx[:, 1]],
                           axis=1)
    keep = before > 1e-9
    max_rel = float(np.max(np.abs(after[keep] / before[keep] - 1.0)))
    assert max_rel < 1e-9

    # histogram count conservation, exact
    z = rng.normal(0.2, 0.1, 25_000)
    cloud_z = PointCloud(np.column_stack([np.zeros_like(z), np.zeros_like(z), z]))
    hist = height_histogram(cloud_z, 256)
    assert hist.counts.sum() == 25_000

    # byte-exact determinism per seed across two consecutive runs
    spec = reference_scenes()[0]
    config = PipelineConfig(seed=1234)
    a = run_report_csv(run_pipeline(config, scene=generate_scene(spec)))
    b = run_report_csv(run_pipeline(config, scene=generate_scene(spec)))
    assert a == b

    print(f"\nPASS numerical invariants: rigid motion {max_rel:.1e} rel, "
          "histogram counts exact, reports byte-identical")
