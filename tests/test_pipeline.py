"""Pipeline orchestration, reports, config files, and the CLI surface."""

import dataclasses
import functools
import hashlib
import importlib
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pilevol import cli
from pilevol.cli import main as cli_main
from pilevol.cloud import AxisRange, PointCloud
from pilevol.cloudio import load_cloud, save_cloud
from pilevol.config import _KEYS, parse_config_text
from pilevol import denoise
from pilevol.denoise import HdbscanParams, RadiusFilterParams
from pilevol.errors import ConfigError, EmptyCloud
from pilevol.pose import RansacParams, ransac_plane
from pilevol import pipeline
from pilevol.pipeline import (
    PipelineConfig,
    bench_csv,
    bench_reference,
    compression_sweep,
    emit_histogram,
    histogram_csv,
    run_pipeline,
    run_report_csv,
    sweep_csv,
)
from pilevol.synth import (
    Cone,
    SceneSpec,
    default_clutter,
    generate_scene,
    reference_scenes,
    smeared_ground_scene,
)
from test_io import fuzzed_ply

# one small catalogue-like scene reused across tests (cheap to process)
SMALL_SPEC = SceneSpec(
    pile=Cone(0.24, 3 * 0.014 / (math.pi * 0.24 ** 2)),
    footprint_area=1.3,
    ground_extent=(math.sqrt(2.6), math.sqrt(2.6) / 2),
    point_density=9000.0,
    noise_sigma=0.005,
    tilt_deg=8.0,
    clutter=default_clutter((math.sqrt(2.6), math.sqrt(2.6) / 2)),
    seed=424,
    scene_id="small-test-cone",
)


def _perfbench_module(name: str):
    """Import one of the benchmark's modules from this checkout."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


@pytest.fixture(scope="module")
def small_scene():
    return generate_scene(SMALL_SPEC)


def test_run_pipeline_reference_accuracy(small_scene):
    report = run_pipeline(PipelineConfig(seed=3), scene=small_scene)
    assert report.estimate.method == "COLUMN_GRID"
    assert abs(report.relative_error) <= 0.05
    counts = [report.stage_counts[s] for s in
              ("passthrough", "downsample", "prefilter", "posture",
               "calibration", "fine_filter")]
    assert counts == sorted(counts, reverse=True)
    assert report.ground is not None
    assert report.ground.mode == "FIRST_PEAK"
    assert report.warnings == []


def test_disabled_stages_pass_through(small_scene):
    # calibration always runs; every stage that can be switched off leaves
    # the cloud as it came
    cfg = PipelineConfig(seed=3, enable_prefilter=False, enable_posture=False,
                         enable_fine_filter=False)
    report = run_pipeline(cfg, scene=small_scene)
    n = len(small_scene.cloud)
    counts = report.stage_counts
    assert [counts[s] for s in ("passthrough", "downsample", "prefilter",
                                "posture")] == [n] * 4
    assert counts["fine_filter"] == counts["calibration"]
    assert report.ground is not None and report.histogram is not None


def test_calibration_cannot_be_switched_off():
    with pytest.raises(ConfigError, match="unknown key 'calibration'"):
        parse_config_text("[pipeline]\ncalibration = off")


def test_calibration_without_posture_flags_dependency(small_scene):
    cfg = PipelineConfig(seed=3, enable_posture=False)
    report = run_pipeline(cfg, scene=small_scene)
    assert any("posture" in w for w in report.warnings)


def test_emptied_cloud_warns_with_the_stage():
    # a minimum cluster size above the cloud size labels every point noise,
    # so the fine filter keeps nothing and the volume comes out as 0
    cfg = PipelineConfig(enable_prefilter=False,
                         radius_params=RadiusFilterParams(
                             r0=0.025, n_min=4, min_cluster_size=10 ** 6))
    report = run_pipeline(cfg, scene=generate_scene(reference_scenes()[0]))
    assert report.stage_counts["calibration"] > 0
    assert report.stage_counts["fine_filter"] == 0
    assert report.volume == 0.0
    assert len(report.warnings) == 1
    assert "fine_filter stage left no points" in report.warnings[0]
    assert f"warning,{report.warnings[0]}\n" in run_report_csv(report)


def test_all_ground_crop_reads_zero_with_one_warning():
    # a crop with no pile: calibration cuts the plane at the margin, the few
    # noise points above it form no cluster, and the fine filter empties
    rng = np.random.default_rng(0)
    n = 20_000
    xyz = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                           rng.normal(0, 0.002, n)])
    report = run_pipeline(PipelineConfig(seed=1), cloud=PointCloud(xyz))
    assert report.stage_counts["posture"] > 19_000
    assert report.stage_counts["fine_filter"] == 0
    assert report.volume == 0.0
    assert report.warnings == [
        "the fine_filter stage left no points; the volume of an empty "
        "cloud is 0"]


def test_s09_wall_strip_stays_out_of_the_pile():
    # benchmark seed 3006 gives s09 a capture in which HDBSCAN merged a
    # ~1,090-point blob, most likely the wall strip about 4 cm from the
    # pile rim, into the pile (+19.45 %); the r0 components keep it apart
    seed = _perfbench_module("workloads").derive_seed(3006, "catalogue", 8)
    scene = generate_scene(replace(reference_scenes()[8], seed=seed))
    report = run_pipeline(PipelineConfig(seed=seed), scene=scene)
    assert abs(report.relative_error) <= 0.05


def test_report_csv_deterministic(small_scene):
    cfg = PipelineConfig(seed=11)
    a = run_report_csv(run_pipeline(cfg, scene=small_scene))
    b = run_report_csv(run_pipeline(cfg, scene=small_scene))
    assert a == b
    assert "volume_m3" in a and "count_prefilter" in a


def test_pipeline_passthrough_ranges(small_scene):
    lo, hi = -0.2, 0.2
    cfg = PipelineConfig(seed=3, passthrough_ranges=(AxisRange("X", lo, hi),),
                         enable_prefilter=False, enable_posture=False,
                         enable_fine_filter=False)
    report = run_pipeline(cfg, scene=small_scene)
    expected = int(np.count_nonzero(
        (small_scene.cloud.xyz[:, 0] >= lo) & (small_scene.cloud.xyz[:, 0] <= hi)))
    assert report.stage_counts["passthrough"] == expected


def test_far_outlier_leaves_volume_unchanged(small_scene):
    config = PipelineConfig(seed=3)
    base = run_pipeline(config, cloud=small_scene.cloud)
    far = PointCloud(np.vstack([small_scene.cloud.xyz, [[1e6, 1e6, 1e6]]]))
    report = run_pipeline(config, cloud=far)
    assert report.stage_counts["passthrough"] == base.stage_counts["passthrough"] + 1
    assert report.stage_counts["prefilter"] == base.stage_counts["prefilter"]
    assert report.volume == base.volume


def _assert_strays_change_nothing(scene, center, n_stray):
    """A run with one point at ``center``, or a 1 cm blob of ``n_stray``
    around it, keeps the pre-filter count and volume of a run without."""
    config = PipelineConfig(seed=3)
    base = run_pipeline(config, cloud=scene.cloud)
    stray = np.array([center])
    if n_stray > 1:
        rng = np.random.default_rng(n_stray)
        stray = rng.normal(center, 0.01, size=(n_stray, 3))
    cloud = PointCloud(np.vstack([scene.cloud.xyz, stray]))
    report = run_pipeline(config, cloud=cloud)
    assert report.stage_counts["prefilter"] == base.stage_counts["prefilter"]
    assert report.volume == base.volume


@pytest.mark.parametrize("z", [-50.0, 50.0], ids=["below", "above"])
@pytest.mark.parametrize("n_stray", [1, 10, 60])
def test_far_strays_leave_volume_unchanged(small_scene, n_stray, z):
    # a point or blob 50 m off the pile stretches the height histogram's
    # [z_min, z_max] until ground and pile share one bin (65 m3 from a
    # single point at -50 m with no prefilter), so the prefilter must drop it
    _assert_strays_change_nothing(small_scene, (0.0, 0.0, z), n_stray)


@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
@pytest.mark.parametrize("distance", [5.0, 50.0])
@pytest.mark.parametrize("n_stray", [1, 10, 60])
def test_far_strays_beside_the_pile_leave_volume_unchanged(small_scene, n_stray,
                                                           distance, axis):
    # strays at the cloud's median height, moved along x or y, sit at the
    # pile's own height in the tilted capture, so only the pre-filter's x
    # and y trims drop them: levelled by the 8 degree tilt they land metres
    # off the ground and stretch the height histogram
    center = np.median(small_scene.cloud.xyz, axis=0)
    center[axis] += distance
    _assert_strays_change_nothing(small_scene, center, n_stray)


def _scaled_config(config: PipelineConfig, s: float) -> PipelineConfig:
    """``config`` with every length multiplied by ``s``."""
    voxel = config.downsample_voxel
    return replace(
        config,
        radius_params=replace(config.radius_params, r0=config.radius_params.r0 * s),
        ransac=replace(config.ransac,
                       distance_threshold=config.ransac.distance_threshold * s),
        margin=config.margin * s,
        grid=replace(config.grid, cell_size=config.grid.cell_size * s),
        downsample_voxel=None if voxel is None else voxel * s)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.sampled_from([0.5, 2.0, 3.0, 4.0]),
       voxel=st.sampled_from([None, 0.01]))
def test_volume_scales_with_the_cube_of_length(seed, s, voxel):
    # a cloud and every length parameter scaled by s scale the volume by s^3
    cloud = generate_scene(replace(SMALL_SPEC, seed=seed)).cloud
    config = PipelineConfig(seed=seed, downsample_voxel=voxel)
    base = run_pipeline(config, cloud=cloud).volume
    scaled = run_pipeline(_scaled_config(config, s),
                          cloud=PointCloud(cloud.xyz * s)).volume
    assert base > 0
    assert scaled / s ** 3 == pytest.approx(base, rel=1e-9)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       offset=st.tuples(*[st.floats(-100.0, 100.0)] * 3))
def test_volume_is_invariant_under_translation(seed, offset):
    # the grid, the histogram and every filter are anchored to the cloud
    # itself, so a capture moved anywhere within 100 m reads the same volume
    cloud = generate_scene(replace(SMALL_SPEC, seed=seed)).cloud
    config = PipelineConfig(seed=seed)
    base = run_pipeline(config, cloud=cloud).volume
    moved = run_pipeline(config, cloud=cloud.translated(offset)).volume
    assert base >= 0 and moved >= 0
    assert moved == pytest.approx(base, rel=1e-9)


# Rotating a capture about z moves the rim cells of the axis-aligned grid.
# Over 3,400 drawn (seed, angle) pairs the volume moved by a mean of 0.00 %,
# a standard deviation of 0.82 %, a p99 of 2.4 % and at most 3.70 %; the
# bound sits 1.35x above that worst case.
ROTATION_TOLERANCE = 0.05


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), degrees=st.floats(0.0, 360.0))
def test_volume_under_rotation_about_z_stays_within_the_grid_tolerance(seed, degrees):
    # the column grid and the pre-filter's gap trim are aligned to x and y,
    # so a turned capture reads a volume near, not equal to, the original
    turn = math.radians(degrees)
    rotation = np.array([[math.cos(turn), -math.sin(turn), 0.0],
                         [math.sin(turn), math.cos(turn), 0.0],
                         [0.0, 0.0, 1.0]])
    cloud = generate_scene(replace(SMALL_SPEC, seed=seed)).cloud
    config = PipelineConfig(seed=seed)
    base = run_pipeline(config, cloud=cloud).volume
    turned = run_pipeline(config, cloud=cloud.transformed(rotation)).volume
    assert base > 0
    assert turned == pytest.approx(base, rel=ROTATION_TOLERANCE)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_same_seed_gives_the_same_report_bytes(seed):
    # a drawn scene run twice with one seed writes the same report, and the
    # grid never reads a negative volume
    scene = generate_scene(replace(SMALL_SPEC, seed=seed))
    config = PipelineConfig(seed=seed)
    first = run_pipeline(config, scene=scene)
    assert first.volume >= 0
    assert run_report_csv(first) == run_report_csv(run_pipeline(config, scene=scene))


def test_pipeline_seed_alone_seeds_ransac(small_scene, monkeypatch):
    fits = []

    def spy(cloud, params):
        plane = ransac_plane(cloud, params)
        fits.append((params.seed, plane.a, plane.b, plane.c, plane.d))
        return plane

    monkeypatch.setattr(pipeline, "ransac_plane", spy)
    base = PipelineConfig(enable_prefilter=False, enable_fine_filter=False)
    alone = run_report_csv(run_pipeline(replace(base, seed=5), scene=small_scene))
    both = run_report_csv(run_pipeline(
        replace(base, seed=5, ransac=replace(base.ransac, seed=5)), scene=small_scene))
    run_pipeline(replace(base, seed=6), scene=small_scene)
    assert alone == both
    assert [fit[0] for fit in fits] == [5, 5, 6]
    assert fits[0] == fits[1]
    assert fits[2][1:] != fits[0][1:]


def test_ignored_ransac_seed_is_rejected():
    # the posture fit is seeded from PipelineConfig.seed; a different
    # ransac.seed would be dropped without notice, so neither the
    # constructor, nor replace, nor a config file builds such a config
    nine = PipelineConfig(seed=9, ransac=RansacParams(seed=9))
    with pytest.raises(ConfigError, match=r"ransac\.seed 9"):
        PipelineConfig(ransac=RansacParams(seed=9))
    with pytest.raises(ConfigError, match=r"ransac\.seed 9"):
        replace(nine, seed=8)
    with pytest.raises(ConfigError, match=r"ransac\.seed 9"):
        parse_config_text("[pipeline]\nseed = 4\n", base=nine)
    # a config file's seed sets the pipeline seed alone; the posture stage
    # copies it into ransac.seed
    reseeded = parse_config_text("[pipeline]\nseed = 4\n",
                                 base=PipelineConfig(seed=3))
    assert (reseeded.seed, reseeded.ransac.seed) == (4, 0)


def test_traced_run_reaches_every_wrapped_layer():
    # the benchmark's tracer rebinds module attributes, so every stage must
    # look its functions up through the module at call time; the pipeline
    # does not run the paper's radius filter and hdbscan chain, so the
    # library composition is called explicitly to cover their spans
    layers = _perfbench_module("layers")
    Tracer = _perfbench_module("spans").Tracer
    scene = generate_scene(reference_scenes()[0])
    tracer = Tracer()
    layers.install(tracer)
    try:
        report = run_pipeline(PipelineConfig(seed=1, downsample_voxel=0.01),
                              scene=scene)
        filtered = denoise.radius_outlier_filter(scene.cloud,
                                                 RadiusFilterParams(0.025, 4))
        denoise.largest_cluster(filtered,
                                denoise.hdbscan(filtered, HdbscanParams()))
    finally:
        tracer.uninstall()
    assert report.volume > 0
    assert {name for _, _, name, _ in layers.WRAPPED} <= {s.name for s in tracer.spans}


def test_benchmark_voxel_band_capture_reads_its_file(tmp_path):
    # one capture of the benchmark's file-reading workload, written and run
    # by the benchmark's own code, must load and stay inside its bound
    workloads = _perfbench_module("workloads")
    workload = workloads.WORKLOADS["voxel-band"]
    captures, _ = workloads.build(workload, 1, 1, tmp_path)
    assert captures[0].path is not None
    record = _perfbench_module("run").run_capture(captures[0], workload.capture_bound)
    assert record["failure"] is None
    assert abs(record["rel_error"]) <= workload.capture_bound


@pytest.mark.parametrize("config", [
    PipelineConfig(seed=3),
    PipelineConfig(seed=3, ground_mode="MID_PLATEAU"),
    PipelineConfig(seed=3, downsample_voxel=0.02),
], ids=["first-peak", "mid-plateau", "voxel"])
def test_emit_histogram_ground_matches_run(small_scene, config):
    _, ground = emit_histogram(config, scene=small_scene)
    assert ground == run_pipeline(config, scene=small_scene).ground


def test_pipeline_empty_input():
    with pytest.raises(EmptyCloud):
        run_pipeline(PipelineConfig(), cloud=PointCloud.empty())


@pytest.mark.parametrize("entry", [run_pipeline, emit_histogram],
                         ids=["run_pipeline", "emit_histogram"])
def test_pipeline_rejects_a_cloud_that_is_not_a_point_cloud(entry, small_scene):
    # an (N, 3) array ended the run in the pre-filter's raw AttributeError
    with pytest.raises(ConfigError, match="must be a PointCloud, got ndarray"):
        entry(PipelineConfig(), cloud=small_scene.cloud.xyz)


def test_pipeline_config_validation():
    # the constructor and replace check every field
    with pytest.raises(ConfigError):
        PipelineConfig(ground_mode="NOT_A_MODE")
    with pytest.raises(ConfigError):
        PipelineConfig(ground_mode="OVERRIDE")
    with pytest.raises(ConfigError):
        replace(PipelineConfig(), smooth_step=4)
    # a non-finite override height would cut every point (a silent 0 m3),
    # and an infinite margin would fail later as a stage error
    for bad in (dict(seed=-1), dict(n_interval=1),
                dict(downsample_voxel=math.nan), dict(margin=math.inf),
                dict(ground_mode="OVERRIDE", override_height=math.nan),
                dict(ground_mode="OVERRIDE", override_height=math.inf),
                dict(ground_mode="OVERRIDE", override_height=-math.inf)):
        with pytest.raises(ConfigError):
            PipelineConfig(**bad)
    with pytest.raises(ConfigError):
        run_pipeline(PipelineConfig(), )        # no cloud, no scene


@pytest.mark.parametrize("bad", [dict(n_interval=10.5), dict(n_interval=256.0),
                                 dict(smooth_step=3.0), dict(smooth_step=True),
                                 dict(n_interval=True)])
def test_pipeline_config_rejects_non_integer_histogram_sizes(bad):
    # a float bin count or window ended the run in numpy's raw TypeError,
    # and True passed as a 1-wide window; config files cannot set either,
    # since their integer parser rejects it
    with pytest.raises(ConfigError, match="must be an integer"):
        PipelineConfig(**bad)
    PipelineConfig(n_interval=np.int64(256), smooth_step=np.int32(5))


@pytest.mark.parametrize("field, bad", [
    ("margin", True), ("margin", False), ("margin", "0.012"),
    ("search_band", True), ("downsample_voxel", True), ("override_height", True),
    ("enable_prefilter", "false"), ("enable_posture", None),
    ("enable_fine_filter", 0), ("enable_fine_filter", np.True_),
    ("grid", 0.05), ("ransac", None), ("radius_params", 0.03),
    ("passthrough_ranges", (("z", 0, 1),)),
    ("passthrough_ranges", [AxisRange("Z", 0, 1)]),
    ("passthrough_ranges", AxisRange("Z", 0, 1)),
])
def test_pipeline_config_rejects_a_wrongly_typed_field(field, bad):
    # a bool number ran as 0 or 1 (margin = True read 0 m^3 on s01), a
    # truthy string or int toggle switched its stage, and a nested
    # parameter or range that is not its class ended in an AttributeError
    # or TypeError; config files build the right types, so only the
    # library API can pass any of these
    with pytest.raises(ConfigError, match=field):
        PipelineConfig(**{field: bad})
    with pytest.raises(ConfigError, match=field):
        replace(PipelineConfig(), **{field: bad})


@pytest.mark.parametrize("seed", [1.5, "3", True])
def test_pipeline_config_rejects_a_non_integer_seed(seed):
    # a float seed ended the run in numpy's SeedSequence TypeError, a
    # string one in the TypeError of the sign check, and True ran as seed
    # 1; config files and --seed parse integers, so only the library API
    # can pass any of them
    with pytest.raises(ConfigError, match="seed must be an integer"):
        PipelineConfig(seed=seed)
    PipelineConfig(seed=np.int64(3))


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_single_round_rows():
    specs = [SMALL_SPEC]
    rows = bench_reference(specs, rounds=1)
    assert len(rows) == 1
    row = rows[0]
    assert row.status == "OK"
    assert row.error_variance is None
    csv = bench_csv(rows)
    lines = csv.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[7] == ""      # variance column blank


def test_bench_failed_scene_row_marked():
    # a nearly empty scene starves the plane fit; the bench must keep going
    broken = SceneSpec(pile=Cone(0.05, 0.05), footprint_area=0.04,
                       ground_extent=(0.2, 0.2), point_density=200.0,
                       noise_sigma=0.0, tilt_deg=0.0, seed=1,
                       scene_id="broken")
    rows = bench_reference([broken, SMALL_SPEC], rounds=1)
    assert rows[0].status.startswith("FAILED")
    assert rows[1].status == "OK"
    csv = bench_csv(rows)
    assert "FAILED" in csv


def test_batch_studies_reject_a_config_seed():
    # every round is seeded from the scene's own seed, so a config seed
    # would be ignored; the error is raised before any scene runs, so it
    # does not become a FAILED row
    seeded = PipelineConfig(seed=7)
    with pytest.raises(ConfigError, match="seed 7 would be ignored"):
        bench_reference([SMALL_SPEC], config=seeded)
    with pytest.raises(ConfigError, match="seed 7 would be ignored"):
        compression_sweep(SMALL_SPEC, [0.05], config=seeded)


@pytest.mark.parametrize("rounds", [1.5, 2.0, "2", True])
def test_batch_studies_reject_a_non_integer_round_count(rounds):
    # a float count ended in the raw TypeError of range(), and True ran one
    # round and wrote True in bench_csv's rounds column; the check runs
    # before any scene does, so it does not become a FAILED row
    with pytest.raises(ConfigError, match="rounds must be an integer"):
        bench_reference([SMALL_SPEC], rounds=rounds)
    with pytest.raises(ConfigError, match="rounds must be an integer"):
        compression_sweep(SMALL_SPEC, [0.05], rounds=rounds)


def test_bench_multi_round_variance():
    rows = bench_reference([SMALL_SPEC], rounds=3)
    assert rows[0].error_variance is not None
    assert rows[0].rounds == 3
    assert len(rows[0].errors) == 3


# ---------------------------------------------------------------------------
# compression sweep
# ---------------------------------------------------------------------------

def test_sweep_identity_and_monotone_ratio():
    spec = replace(SMALL_SPEC, clutter=(), tilt_deg=0.0, scene_id="sweep-test")
    rows = compression_sweep(spec, [1e-5, 0.02, 0.05])
    assert rows[0].voxel_size == 0.0             # origin row first
    ratios = [r.compressed_ratio for r in rows]
    assert ratios[0] == 1.0
    assert ratios[1] == 1.0                      # voxel below any pair spacing
    # downsampling below the point spacing reproduces the origin exactly
    assert rows[1].mean_error == pytest.approx(rows[0].mean_error, abs=1e-12)
    assert ratios == sorted(ratios, reverse=True)
    csv = sweep_csv(rows)
    assert csv.splitlines()[0] == "voxel_size_m,compressed_ratio,mean_error"


def test_sweep_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        compression_sweep(SMALL_SPEC, [0.05, 0.01])
    with pytest.raises(ConfigError):
        compression_sweep(SMALL_SPEC, [-0.1])
    with pytest.raises(ConfigError):
        compression_sweep(SMALL_SPEC, [math.nan])
    with pytest.raises(ConfigError):
        compression_sweep(SMALL_SPEC, [0.05], rounds=0)


def test_downsampling_scales_filter_radius_and_grid_cell():
    cfg = PipelineConfig()
    assert cfg.effective_radius_params() is cfg.radius_params
    assert cfg.effective_grid() is cfg.grid
    coarse = replace(cfg, downsample_voxel=0.05)
    assert coarse.effective_radius_params().r0 == pytest.approx(0.11)
    assert coarse.effective_radius_params().n_min == cfg.radius_params.n_min
    assert coarse.effective_grid().cell_size == pytest.approx(0.08)
    fine = replace(cfg, downsample_voxel=0.001)
    assert fine.effective_radius_params().r0 == cfg.radius_params.r0
    assert fine.effective_grid().cell_size == cfg.grid.cell_size


# ---------------------------------------------------------------------------
# histogram artifact
# ---------------------------------------------------------------------------

def test_emit_histogram_csv(small_scene):
    cfg = PipelineConfig(seed=3)
    hist, ground = emit_histogram(cfg, scene=small_scene)
    # the artifact is the histogram the run's calibration stage read
    run_hist = run_pipeline(cfg, scene=small_scene).histogram
    assert np.array_equal(hist.bin_edges, run_hist.bin_edges)
    assert np.array_equal(hist.counts, run_hist.counts)
    lines = histogram_csv(hist, ground).strip().splitlines()
    assert lines[0] == "bin_center_m,count,is_ground"
    # retained bins: n_interval minus the smoothing trim
    assert len(lines) - 1 == cfg.n_interval - (cfg.smooth_step - 1)
    marks = [i for i, line in enumerate(lines[1:]) if line.endswith(",1")]
    assert len(marks) == 1
    centers = [float(line.split(",")[0]) for line in lines[1:]]
    bin_width = centers[1] - centers[0]
    # marked ground sits within a bin of the detected height
    assert abs(centers[marks[0]] - ground.height) <= bin_width


def test_emit_histogram_override_marker(small_scene):
    cfg = PipelineConfig(seed=3, ground_mode="OVERRIDE", override_height=0.1)
    hist, ground = emit_histogram(cfg, scene=small_scene)
    assert ground.height == 0.1
    lines = histogram_csv(hist, ground).strip().splitlines()[1:]
    marked = [i for i, line in enumerate(lines) if line.endswith(",1")]
    assert marked == [ground.peak_bin]
    assert abs(hist.bin_centers[ground.peak_bin] - 0.1) <= hist.bin_width / 2


@functools.cache
def _s01_capture(smeared: bool):
    spec = reference_scenes()[0]
    return smeared_ground_scene(spec, rise=0.02) if smeared else generate_scene(spec)


# sha256 of histogram.csv, its marked bin and the ground height on s01 at
# seed 3; the two peak modes mark the same bin there, so the heights and a
# smeared floor (a 2 cm V-ramp), where the bins part, tell them apart
@pytest.mark.parametrize("smeared, overrides, digest, marked, height", [
    (False, {},
     "f1119afa6fceca6c92a6defc4f5113fa425c98ce1173699d90b8473f13992ac0",
     13, "-0x1.29a26f7e34bfcp-11"),
    (False, {"ground_mode": "MID_PLATEAU"},
     "f1119afa6fceca6c92a6defc4f5113fa425c98ce1173699d90b8473f13992ac0",
     13, "-0x1.afc23d2bcf5c0p-12"),
    (False, {"ground_mode": "OVERRIDE", "override_height": 0.05},
     "8025cd35796de9379b67189107675760e48a95f6c6ac1e06ec0131d221a43ce1",
     30, "0x1.999999999999ap-5"),
    (True, {},
     "f76374d889723f52375ccedd3e68eea1483ef100425c58aa1e8aab6867176bd2",
     12, "0x1.a1b330034fa91p-9"),
    (True, {"ground_mode": "MID_PLATEAU"},
     "4cffd0a525c41dbec2d4307e7ecd3f72dcc0023d25fd070920cc6872f1102f4f",
     11, "0x1.b4a40c9a43680p-11"),
], ids=["first-peak", "mid-plateau", "override", "smeared-first-peak",
        "smeared-mid-plateau"])
def test_histogram_csv_golden(smeared, overrides, digest, marked, height):
    cfg = PipelineConfig(seed=3, **overrides)
    hist, ground = emit_histogram(cfg, scene=_s01_capture(smeared))
    text = histogram_csv(hist, ground)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert ground.peak_bin == marked
    assert ground.height.hex() == height


S01_SEED_3 = """
from pilevol.pipeline import PipelineConfig, run_pipeline
from pilevol.synth import generate_scene, reference_scenes
report = run_pipeline(PipelineConfig(seed=3), scene=generate_scene(reference_scenes()[0]))
print(report.ground.height.hex(), report.volume.hex())
"""


def test_single_blas_thread_gives_the_same_bits():
    # the posture stage's plane refit sums its moments without BLAS, whose
    # dot product splits a sum by its thread count: a run pinned to one
    # BLAS thread must read the same ground height and volume, bit for bit
    report = run_pipeline(PipelineConfig(seed=3), scene=_s01_capture(False))
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", S01_SEED_3], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == [report.ground.height.hex(), report.volume.hex()]


def test_override_confidence_reads_below_the_detected_peak():
    # s01 at seed 3: FIRST_PEAK finds the ground in bin 13, an override at
    # 5 cm marks bin 30, on the pile's flank; its confidence is that bin's
    # count over the median count, so the report shows the override
    # missing the peak instead of reading inf
    scene = _s01_capture(False)
    _, peak = emit_histogram(PipelineConfig(seed=3), scene=scene)
    cfg = PipelineConfig(seed=3, ground_mode="OVERRIDE", override_height=0.05)
    _, override = emit_histogram(cfg, scene=scene)
    assert (peak.peak_bin, override.peak_bin) == (13, 30)
    assert math.isfinite(override.confidence)
    assert override.confidence < peak.confidence
    report = run_report_csv(run_pipeline(cfg, scene=scene))
    assert f"ground_confidence,{override.confidence:.4f}" in report.splitlines()


def test_emit_histogram_empty_cloud():
    with pytest.raises(EmptyCloud):
        emit_histogram(PipelineConfig(), cloud=PointCloud.empty())


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_text_round_trip():
    text = """
# comment
[pipeline]
seed = 9
prefilter = off
downsample_voxel = 0.02

[passthrough]
x = -1.0, 1.0
z = , 2.0

[filter]
r0 = 0.03
min_cluster_size = 40

[ransac]
distance_threshold = 0.02

[ground]
mode = MID_PLATEAU
margin = 0.02

[volume]
cell_size = 0.04
"""
    cfg = parse_config_text(text)
    assert cfg.seed == 9 and cfg.ransac.seed == 0
    assert cfg.enable_prefilter is False
    assert cfg.downsample_voxel == 0.02
    assert len(cfg.passthrough_ranges) == 2
    assert cfg.passthrough_ranges[1].hi == 2.0
    assert cfg.radius_params.r0 == 0.03
    assert cfg.radius_params.min_cluster_size == 40
    assert cfg.ransac.distance_threshold == 0.02
    assert cfg.ground_mode == "MID_PLATEAU"
    assert cfg.margin == 0.02
    assert cfg.grid.cell_size == 0.04


def test_config_unknown_key_fails_fast():
    with pytest.raises(ConfigError):
        parse_config_text("[pipeline]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("[nowhere]\nseed = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("seed 1\n")


@pytest.mark.parametrize("lines", [("mode = OVERRIDE", "override_height = 0.1"),
                                   ("step = 301", "n_interval = 512")],
                         ids=["override", "step"])
def test_config_rules_between_fields_read_the_whole_document(lines):
    # the config is built once from every line, so a rule between two
    # fields holds whichever line comes first
    forward = parse_config_text("[ground]\n" + "\n".join(lines))
    assert forward == parse_config_text("[ground]\n" + "\n".join(lines[::-1]))
    # a nested parameter is still checked on its own line
    with pytest.raises(ConfigError, match="^line 5: "):
        parse_config_text("[ground]\n" + "\n".join(lines) + "\n[filter]\nr0 = -1")


def test_config_value_validation():
    with pytest.raises(ConfigError):
        parse_config_text("[ground]\nstep = 4\n")
    with pytest.raises(ConfigError):
        parse_config_text("[pipeline]\nseed = many\n")


# keys the pipeline no longer has: an unknown key names its line
REMOVED_KEYS = [
    "[ground]\nrestore_datum = on\n",
    "[volume]\nslice_interval = 0.05\n",
    "[volume]\ncompensation = 1.0\n",
    "[volume]\naggregator = MEAN\n",
    "[volume]\naggregator = median\n",
    "[volume]\nsigned = true\n",
    "[volume]\nestimator = SLICE\n",
    "[volume]\nestimator = HULL3D\n",
    "[volume]\nestimator = COLUMN_GRID\n",
    "[volume]\nscene_area = 0\n",
    "[volume]\nscene_area = 1.3\n",
    "[filter]\ncluster = hdbscan\n",
    "[filter]\nmin_samples = 5\n",
]

# values a parameter rejects, numbers that are not finite, negative seeds,
# and the removed keys
BAD_CONFIGS = [
    "[filter]\nr0 = -1\n",
    "[filter]\nr0 = nan\n",
    "[filter]\nmin_cluster_size = 1\n",
    "[volume]\ncell_size = 0\n",
    "[volume]\ncell_size = nan\n",
    "[volume]\ncell_size = inf\n",
    "[volume]\ncell_size = 1e300\n",
    "[ransac]\nmax_iterations = 0\n",
    "[ransac]\ndistance_threshold = nan\n",
    "[passthrough]\nx = 2, 1\n",
    "[pipeline]\ndownsample_voxel = nan\n",
    "[pipeline]\nseed = -3\n",
    "[ground]\nmargin = nan\n",
    "[ground]\nn_interval = 1\n",
    "[ground]\nstep = 301\n",
] + REMOVED_KEYS


@pytest.mark.parametrize("text", BAD_CONFIGS)
def test_bad_config_is_a_config_error(text, tmp_path, capsys):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    if text in REMOVED_KEYS:
        assert str(exc.value).startswith("line 2: unknown key")
    path = tmp_path / "c.ini"
    path.write_text(text)
    assert cli_main(["run", "--scene-id", reference_scenes()[0].scene_id,
                     "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_config_keeps_open_range_ends():
    cfg = parse_config_text("[passthrough]\nx = -inf, inf\nz = , \n")
    assert [(r.lo, r.hi) for r in cfg.passthrough_ranges] == [
        (-math.inf, math.inf), (-math.inf, math.inf)]


@pytest.mark.parametrize("argv", [
    ["run", "--scene-id", "s01-a1.3-v0.014-cone", "--seed", "-1"],
    ["synth", "--scene-id", "s01-a1.3-v0.014-cone", "--seed", "-1"],
    ["sweep", "--scene-id", "s01-a1.3-v0.014-cone", "--sizes", "0.05",
     "--rounds", "0"],
    ["sweep", "--scene-id", "s01-a1.3-v0.014-cone", "--sizes", "nan"],
])
def test_cli_rejects_bad_seed_rounds_and_sizes(argv, tmp_path, capsys):
    assert cli_main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def _leaf_values(obj, prefix=""):
    """Every independently settable field of a config, nested dataclasses
    flattened to dotted paths."""
    leaves = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            leaves.update(_leaf_values(value, f"{prefix}{f.name}."))
        else:
            leaves[prefix + f.name] = value
    return leaves


# one config line per PipelineConfig leaf but ransac.seed, which the posture
# stage sets from seed
CONFIG_LINE_FOR_LEAF = {
    "enable_prefilter": "[pipeline]\nprefilter = off",
    "enable_posture": "[pipeline]\nposture = off",
    "enable_fine_filter": "[pipeline]\nfine_filter = off",
    "seed": "[pipeline]\nseed = 5",
    "downsample_voxel": "[pipeline]\ndownsample_voxel = 0.02",
    "passthrough_ranges": "[passthrough]\nx = -1, 1",
    "radius_params.r0": "[filter]\nr0 = 0.03",
    "radius_params.n_min": "[filter]\nn_min = 5",
    "radius_params.min_cluster_size": "[filter]\nmin_cluster_size = 40",
    "ransac.distance_threshold": "[ransac]\ndistance_threshold = 0.02",
    "ransac.max_iterations": "[ransac]\nmax_iterations = 500",
    "ransac.min_inlier_fraction": "[ransac]\nmin_inlier_fraction = 0.2",
    "n_interval": "[ground]\nn_interval = 128",
    "smooth_step": "[ground]\nstep = 3",
    "search_band": "[ground]\nsearch_band = 0.3",
    "ground_mode": "[ground]\nmode = MID_PLATEAU",
    "override_height": "[ground]\noverride_height = 0.1",
    "margin": "[ground]\nmargin = 0.02",
    "grid.cell_size": "[volume]\ncell_size = 0.04",
}


def _changed_leaves(text):
    default = _leaf_values(PipelineConfig())
    parsed = _leaf_values(parse_config_text(text))
    return {leaf for leaf in default if parsed[leaf] != default[leaf]}


def test_every_pipeline_knob_has_a_config_key():
    # each key of the table sets exactly its leaf
    leaves = set(_leaf_values(PipelineConfig()))
    assert leaves - {"ransac.seed"} == set(CONFIG_LINE_FOR_LEAF)
    for (section, key), (leaf, _) in _KEYS.items():
        assert CONFIG_LINE_FOR_LEAF[leaf].startswith(f"[{section}]\n{key} = ")
    for leaf, text in CONFIG_LINE_FOR_LEAF.items():
        assert _changed_leaves(text) == {leaf}, text


def test_readme_config_table_lists_every_key():
    # each section's row of README's config table names exactly the keys
    # the parser takes; parenthesised notes hold values, not keys
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", readme, re.MULTILINE)
    listed = {section: set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", keys)))
              for section, keys in rows}
    expected = {"passthrough": {"x", "y", "z"}}
    for section, key in _KEYS:
        expected.setdefault(section, set()).add(key)
    assert listed == expected


CONFIG_VALUES = ["nan", "inf", "-inf", "", "-1", "0", "1", "2", "3", "7",
                 "0.02", "0.5", "1e400", "none", "on", "off", "1,2", ", 1",
                 "max", "mean", "hdbscan", "mid_plateau", "override",
                 "column_uniform", "column_grid"]
CONFIG_LINES = sorted(_KEYS) + [
    ("passthrough", "x"), ("passthrough", "z"),
    ("passthrough", "w"), ("pipeline", "bogus"), ("volume", "origin"),
    ("volume", "signed"), ("nowhere", "r0"),
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(CONFIG_LINES),
                          st.sampled_from(CONFIG_VALUES)), max_size=8))
def test_config_document_is_valid_or_a_config_error(lines):
    text = "".join(f"[{section}]\n{key} = {value}\n"
                   for (section, key), value in lines)
    try:
        config = parse_config_text(text)
    except ConfigError:
        return
    assert replace(config) == config


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_synth_run_histogram(tmp_path):
    scene_id = reference_scenes()[0].scene_id
    assert cli_main(["synth", "--scene-id", scene_id, "--out", str(tmp_path),
                     "--format", "xyz"]) == 0
    cloud_file = tmp_path / f"{scene_id}.xyz"
    sidecar = tmp_path / f"{scene_id}.scene.txt"
    assert cloud_file.exists() and sidecar.exists()
    assert "true_volume_m3" in sidecar.read_text()

    assert cli_main(["run", "--input", str(cloud_file), "--out", str(tmp_path),
                     "--truth", "0.014"]) == 0
    report = (tmp_path / "report.csv").read_text()
    assert "relative_error" in report

    assert cli_main(["histogram", "--scene-id", scene_id, "--out",
                     str(tmp_path), "--svg"]) == 0
    assert (tmp_path / "histogram.csv").exists()
    assert (tmp_path / "histogram.svg").exists()


def test_cli_histogram_override_prints_the_marked_bin(tmp_path, capsys):
    cfg = tmp_path / "override.ini"
    cfg.write_text("[ground]\nmode = OVERRIDE\noverride_height = 0.05\n")
    assert cli_main(["histogram", "--scene-id", "s01-a1.3-v0.014-cone",
                     "--seed", "3", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    printed = int(re.search(r", bin (-?\d+)\)", capsys.readouterr().out).group(1))
    rows = (tmp_path / "histogram.csv").read_text().splitlines()[1:]
    assert [i for i, row in enumerate(rows) if row.endswith(",1")] == [printed]


def test_cli_exit_codes(tmp_path):
    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_text("junk = 1\n")
    scene_id = reference_scenes()[0].scene_id
    assert cli_main(["run", "--scene-id", scene_id, "--config", str(bad_cfg),
                     "--out", str(tmp_path)]) == 1
    assert cli_main(["run", "--input", "/missing.xyz",
                     "--out", str(tmp_path)]) == 2
    assert cli_main(["run", "--scene-id", "no-such-scene",
                     "--out", str(tmp_path)]) == 1
    # a truth the relative error cannot divide by is a configuration error
    for truth in ("0", "-0.5", "nan", "inf"):
        assert cli_main(["run", "--scene-id", scene_id, "--truth", truth,
                         "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("name, content", [
    ("bad-row.ply", b"ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
                    b"property double y\nproperty double z\nend_header\na b c\n"),
    ("undecodable.xyz", b"\xff\xfe 1 2 3\n"),
], ids=["malformed-ply", "undecodable-xyz"])
def test_cli_bad_cloud_file_is_an_input_error(tmp_path, capsys, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    assert cli_main(["run", "--input", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["bench", "--seed", "1"],
    ["sweep", "--seed", "1"],
    ["synth", "--scene-id", "list", "--config", "c.ini"],
    ["run", "--scene-id", "s01-a1.3-v0.014-cone", "--scene-area", "1.3"],
], ids=["bench-seed", "sweep-seed", "synth-config", "run-scene-area"])
def test_cli_rejects_options_a_command_would_ignore(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_bench_rejects_a_config_seed(tmp_path, capsys):
    path = tmp_path / "c.ini"
    path.write_text("[pipeline]\nseed = 7\n")
    assert cli_main(["bench", "--filter", "a1.3-v0.014-cone", "--config",
                     str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "bench.csv").exists()


def test_cli_out_of_memory_is_a_stage_failure(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("std::bad_alloc")

    monkeypatch.setattr(cli, "run_pipeline", exhausted)
    assert cli_main(["run", "--scene-id", "s01-a1.3-v0.014-cone",
                     "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "stage failure: out of memory\n"


@pytest.mark.parametrize("line", ["[volume]\ncell_size = 1e-300",
                                  "[pipeline]\ndownsample_voxel = 1e-300"],
                         ids=["cell", "voxel"])
def test_cli_cell_index_past_int64_is_a_stage_failure(line, tmp_path, capsys):
    # a 1e-300 m cell puts 1e300 cells across the scene; the unchecked int64
    # cast once read 0 m^3 (grid) or raised an IndexError (voxels)
    path = tmp_path / "c.ini"
    path.write_text(line + "\n")
    assert cli_main(["run", "--scene-id", "s01-a1.3-v0.014-cone", "--config",
                     str(path), "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert err.startswith("stage failure:") and "int64" in err
    assert "volume" not in out and not (tmp_path / "report.csv").exists()


@pytest.fixture(scope="module")
def small_ply(tmp_path_factory):
    """A 540-point tilted cone capture, as PLY, that keeps 123 points
    through every default stage."""
    spec = SceneSpec(pile=Cone(0.1, 0.08), footprint_area=0.09,
                     ground_extent=(0.3, 0.3), point_density=6000.0,
                     noise_sigma=0.002, tilt_deg=8.0, seed=5)
    path = tmp_path_factory.mktemp("fuzz") / "small.ply"
    save_cloud(generate_scene(spec).cloud, path)
    return path


FUZZ_VALUES = ["0", "-1", "1e-300", "1e300", "nan", "inf", "none", "", "on",
               "off", "first_peak", "mid_plateau", "override", "junk", "1,2"]


@settings(max_examples=250, deadline=None)
@given(command=st.sampled_from(["run", "histogram"]),
       lines=st.lists(st.tuples(st.sampled_from(sorted(_KEYS)),
                                st.sampled_from(FUZZ_VALUES)), max_size=4))
@example(command="run", lines=[(("volume", "cell_size"), "1e-300")])
@example(command="run", lines=[(("pipeline", "downsample_voxel"), "1e-300")])
@example(command="run", lines=[(("volume", "cell_size"), "1e300")])
def test_cli_fuzzed_config_exits_with_a_code(small_ply, tmp_path_factory,
                                              command, lines):
    # any config document ends in a documented exit code, not an exception
    out = tmp_path_factory.mktemp("out")
    config = out / "c.ini"
    config.write_text("".join(f"[{section}]\n{key} = {value}\n"
                              for (section, key), value in lines))
    assert cli_main([command, "--input", str(small_ply), "--config", str(config),
                     "--out", str(out)]) in (0, 1, 2, 3)


XYZ_TOKENS = ["0", "1", "-1", "0.5", "1e-300", "1e300", "1e308", "-1e308", "nan",
              "inf", "-inf", "#", "junk", "1,2"]


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["run", "histogram"]), base=st.booleans(),
       rows=st.lists(st.lists(st.one_of(st.sampled_from(XYZ_TOKENS),
                                        st.floats().map(repr)), max_size=4),
                     max_size=30))
@example(command="run", base=False, rows=[])
@example(command="run", base=False, rows=[["0.1", "0.2", "0.3"]])
@example(command="run", base=False, rows=[["0.1", "0.2"]] * 5)
@example(command="run", base=True, rows=[["nan", "0", "0"]])
@example(command="run", base=False, rows=[["0.5", "0.5", "0.5"]] * 50)
@example(command="run", base=True, rows=[["1e308", "-1e308", "0"],
                                         ["-1e308", "1e308", "1e308"]])
@example(command="run", base=True, rows=[["0.1", "0.1", "1e300"]])
@example(command="histogram", base=True, rows=[["0.1", "0.1", "1e300"]])
def test_cli_fuzzed_xyz_exits_with_a_code(small_ply, tmp_path_factory, command,
                                          base, rows):
    # any XYZ text, alone or after a real capture's rows, ends in a
    # documented exit code, not an exception
    out = tmp_path_factory.mktemp("out")
    path = out / "cloud.xyz"
    if base:
        save_cloud(load_cloud(small_ply), path, "xyz")
    with path.open("a") as fh:
        fh.write("".join(" ".join(row) + "\n" for row in rows))
    assert cli_main([command, "--input", str(path), "--out", str(out)]) in (0, 1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["run", "histogram"]), data=st.data())
def test_cli_fuzzed_binary_ply_exits_with_a_code(tmp_path_factory, command, data):
    # any binary PLY header and payload ends in a documented exit code, not
    # an exception or a numpy warning
    out = tmp_path_factory.mktemp("out")
    path = out / "cloud.ply"
    path.write_bytes(fuzzed_ply(data, st.just("binary_little_endian")))
    assert cli_main([command, "--input", str(path), "--out", str(out)]) in (0, 1, 2, 3)


def test_cli_bench_filtered(tmp_path):
    assert cli_main(["bench", "--rounds", "1", "--filter", "a1.3-v0.014-cone",
                     "--out", str(tmp_path)]) == 0
    csv = (tmp_path / "bench.csv").read_text()
    lines = csv.strip().splitlines()
    assert len(lines) == 2 and lines[1].endswith("OK")
    assert cli_main(["bench", "--filter", "no-such", "--out", str(tmp_path)]) == 1
