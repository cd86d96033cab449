"""End-to-end measurement pipeline and batch studies.

Stage order is fixed (``STAGE_ORDER``): pass-through trim, optional voxel
downsampling, pre-filtering, posture correction, ground calibration, fine
filtering, then the volume stage, which integrates each ground cell's
mean height over the voxel pass's lattice on x and y
(``volume.column_volume_grid``).  One stage sequence, ``_run_stages``,
serves both ``run_pipeline`` (through the volume stage) and
``emit_histogram`` (which stops after calibration and returns the
histogram that stage binned), and the batch studies share one round
loop.  The pre-filter, posture and fine-filter stages can be toggled off
for ablation runs, in which case the cloud passes through unchanged;
calibration always runs, since it sets the basis every height is
measured from.  Reports are plain CSV and are byte-identical for
identical config and seed; stage timings are kept out of the CSV for
exactly that reason.

The pre-filter guards posture and calibration against far stray points
with the per-axis r0 gap trim (``denoise.gap_trim``); the fine filter
keeps the largest r0 component of the radius survivors
(``ground.fine_filter``).  The paper's radius filter and HDBSCAN chain is
a library composition the pipeline does not run (see ``pilevol.denoise``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cloud import AxisRange, PointCloud, passthrough_filter, voxel_downsample
# no stage calls robust_filter here (the fine filter reaches it through
# ground.fine_filter), but the benchmark's tracer wraps this module's name
from .denoise import RadiusFilterParams, gap_trim, robust_filter
from .errors import ConfigError, DegenerateCloud, EmptyCloud, PilevolError, check_number
from .ground import (
    MODE_FIRST_PEAK,
    MODE_MID_PLATEAU,
    MODE_OVERRIDE,
    GroundEstimate,
    HeightHistogram,
    calibrate,
    find_ground,
    fine_filter,
    height_histogram,
    smooth_histogram,
)
from .pose import RansacParams, correct_posture, ransac_plane
from .synth import Scene, SceneSpec, generate_scene, reference_scenes
from .volume import GridSpec, VolumeEstimate, column_volume_grid

STAGE_ORDER = ("passthrough", "downsample", "prefilter", "posture",
               "calibration", "fine_filter", "volume")


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the stage flow; defaults give the reference setup.

    The volume stage integrates over the column grid ``grid``; the paper's
    per-point uniform integrator is the library baseline
    ``volume.column_volume_uniform``."""

    # stage toggles (pass-through/downsample activate via their parameters)
    enable_prefilter: bool = True
    enable_posture: bool = True
    enable_fine_filter: bool = True

    # pre-process
    passthrough_ranges: tuple[AxisRange, ...] = ()
    downsample_voxel: float | None = None
    # the pre-filter reads only r0; the fine filter reads all three
    radius_params: RadiusFilterParams = RadiusFilterParams()

    # posture correction
    ransac: RansacParams = RansacParams()

    # ground calibration
    n_interval: int = 256
    smooth_step: int = 5
    search_band: float = 0.25
    ground_mode: str = MODE_FIRST_PEAK
    override_height: float | None = None
    # the cut sits this far above the detected ground, but heights are
    # measured from the ground itself: the margin only trims the
    # near-ground noise band and does not shave the integrated columns
    margin: float = 0.012

    # volume
    grid: GridSpec = GridSpec()

    # seeds RANSAC: the posture stage overrides ``ransac.seed`` with it, so
    # a ``ransac.seed`` that is neither 0 nor this seed is rejected
    seed: int = 0

    # downsampling thins the cloud below the default neighborhood scales, so
    # the filter radius and grid cell grow with the voxel size
    def effective_radius_params(self) -> RadiusFilterParams:
        if self.downsample_voxel is None:
            return self.radius_params
        r0 = max(self.radius_params.r0, 2.2 * self.downsample_voxel)
        return replace(self.radius_params, r0=r0)

    def effective_grid(self) -> GridSpec:
        if self.downsample_voxel is None:
            return self.grid
        cell = max(self.grid.cell_size, 1.6 * self.downsample_voxel)
        return replace(self.grid, cell_size=cell)

    def __post_init__(self) -> None:
        for name in ("enable_prefilter", "enable_posture", "enable_fine_filter"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be True or False, got {value!r}")
        for name, kind in (("radius_params", RadiusFilterParams), ("ransac", RansacParams),
                           ("grid", GridSpec)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
        ranges = self.passthrough_ranges
        if not (isinstance(ranges, tuple)
                and all(isinstance(r, AxisRange) for r in ranges)):
            raise ConfigError(f"passthrough_ranges must be a tuple of AxisRange, "
                              f"got {ranges!r}")
        check_number("margin", self.margin, 0, lo_open=False, error=ConfigError)
        check_number("search_band", self.search_band, 0, 1, hi_open=False, error=ConfigError)
        if self.downsample_voxel is not None:
            check_number("downsample_voxel", self.downsample_voxel, 0, error=ConfigError)
        if self.override_height is not None:
            check_number("override_height", self.override_height, error=ConfigError)
        if self.ground_mode not in (MODE_FIRST_PEAK, MODE_MID_PLATEAU, MODE_OVERRIDE):
            raise ConfigError(f"unknown ground mode {self.ground_mode!r}")
        if self.ground_mode == MODE_OVERRIDE and self.override_height is None:
            raise ConfigError("OVERRIDE ground mode needs override_height")
        check_number("n_interval", self.n_interval, 2, integer=True, lo_open=False,
                     error=ConfigError)
        check_number("smooth_step", self.smooth_step, 1, self.n_interval, integer=True,
                     lo_open=False, hi_open=False, error=ConfigError)
        if self.smooth_step % 2 == 0:
            raise ConfigError(f"smooth_step must be odd, got {self.smooth_step}")
        check_number("seed", self.seed, 0, integer=True, lo_open=False, error=ConfigError)
        if self.ransac.seed not in (0, self.seed):
            raise ConfigError(
                f"ransac.seed {self.ransac.seed} would be ignored: RANSAC is "
                f"seeded from the pipeline seed {self.seed} ([pipeline] seed, "
                "--seed)")


@dataclass
class RunReport:
    stage_counts: dict[str, int] = field(default_factory=dict)
    # the smoothed histogram the calibration stage read the ground from
    histogram: HeightHistogram | None = None
    ground: GroundEstimate | None = None
    estimate: VolumeEstimate | None = None
    timings_s: dict[str, float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    true_volume: float | None = None

    @property
    def volume(self) -> float:
        return self.estimate.volume if self.estimate is not None else math.nan

    @property
    def relative_error(self) -> float | None:
        if not self.true_volume:
            return None
        return (self.volume - self.true_volume) / self.true_volume


def _run_stages(config: PipelineConfig, cloud: PointCloud | None,
                scene: Scene | None, report: RunReport,
                last: str = "fine_filter") -> PointCloud:
    """Run the stages of ``STAGE_ORDER`` from the pass-through through
    ``last`` and return the cloud they leave.

    Each stage records its point count and time in ``report``, the
    calibration stage its histogram and ground, and the volume stage its
    estimate; a disabled stage passes the cloud through unchanged (the
    ablation semantics).
    RANSAC is seeded from ``config.seed``.
    """
    if cloud is None:
        if scene is None:
            raise ConfigError("the pipeline needs a cloud or a scene")
        cloud = scene.cloud
    if not isinstance(cloud, PointCloud):
        raise ConfigError(f"the pipeline input must be a PointCloud, got "
                          f"{type(cloud).__name__}")
    if len(cloud) == 0:
        raise EmptyCloud("pipeline input cloud is empty")
    rparams = config.effective_radius_params()
    n_input = len(cloud)
    for stage in STAGE_ORDER[:STAGE_ORDER.index(last) + 1]:
        t0 = time.perf_counter()
        if stage == "passthrough":
            cloud = passthrough_filter(cloud, config.passthrough_ranges)
        elif stage == "downsample" and config.downsample_voxel is not None:
            cloud = voxel_downsample(cloud, config.downsample_voxel)
        elif stage == "prefilter" and config.enable_prefilter:
            cloud = gap_trim(cloud, rparams.r0)
        elif stage == "posture" and config.enable_posture:
            if len(cloud) < 3:
                raise _too_few_for_posture(n_input, report.stage_counts)
            # no name keeps the plane, nor through it the unlevelled cloud
            cloud = correct_posture(
                cloud, ransac_plane(cloud, replace(config.ransac, seed=config.seed)))
        elif stage == "calibration":
            report.histogram = smooth_histogram(
                height_histogram(cloud, config.n_interval), config.smooth_step)
            report.ground = find_ground(report.histogram, config.search_band,
                                        config.ground_mode, config.override_height)
            cloud = calibrate(cloud, report.ground.height, config.margin)
        elif stage == "fine_filter" and config.enable_fine_filter:
            cloud = fine_filter(cloud, rparams)
        elif stage == "volume":
            report.estimate = column_volume_grid(cloud, config.effective_grid())
        report.stage_counts[stage] = len(cloud)
        report.timings_s[stage] = time.perf_counter() - t0
    return cloud


def _too_few_for_posture(n_input: int, stage_counts: dict[str, int]) -> DegenerateCloud:
    """The error for a cloud that reaches posture correction with fewer
    than 3 points, naming the stage that took it below 3, or the input if
    it held fewer to begin with."""
    before = n_input
    for stage, count in stage_counts.items():
        if count < 3 <= before:
            return DegenerateCloud(f"the {stage} stage left {count} of {before} points; "
                                   "posture correction needs >= 3")
        before = count
    return DegenerateCloud(f"the input cloud has {n_input} point(s); posture "
                           "correction needs >= 3")


def run_pipeline(config: PipelineConfig, cloud: PointCloud | None = None,
                 scene: Scene | None = None) -> RunReport:
    """Execute the enabled stages in order on a cloud or synthetic scene,
    through the volume stage.

    When a scene with ground truth is given, the report also carries the
    relative volume error.
    """
    report = RunReport()
    if scene is not None:
        report.true_volume = scene.true_volume
    if not config.enable_posture:
        report.warnings.append(
            "calibration without posture correction: the height histogram "
            "is built on an unlevelled cloud and the ground peak degrades"
        )
    cloud = _run_stages(config, cloud, scene, report, last="volume")
    if len(cloud) == 0:
        emptied = next(stage for stage, count in report.stage_counts.items()
                       if count == 0)
        report.warnings.append(
            f"the {emptied} stage left no points; the volume of an empty "
            "cloud is 0")
    return report


# ---------------------------------------------------------------------------
# Batch studies
# ---------------------------------------------------------------------------

def _round_seed(base_seed: int, round_index: int) -> int:
    return int(np.random.SeedSequence((base_seed, round_index)).generate_state(1)[0])


def _batch_config(config: PipelineConfig | None, rounds: int) -> PipelineConfig:
    """The config a batch study runs, rejecting settings it would ignore:
    every round is seeded from the scene's own seed, so a config seed
    would have no effect."""
    check_number("rounds", rounds, 1, integer=True, lo_open=False, error=ConfigError)
    if config is None:
        return PipelineConfig()
    if config.seed != 0:
        raise ConfigError(
            f"seed {config.seed} would be ignored: bench and sweep seed each "
            "round from the scene's own seed")
    return config


def _round_reports(spec: SceneSpec, base_seed: int, rounds: int,
                   config: PipelineConfig) -> list[RunReport]:
    """One pipeline run per round, each on a fresh capture of ``spec``; the
    round seed drives both the scene and the pipeline."""
    reports = []
    for r in range(rounds):
        seed = _round_seed(base_seed, r)
        scene = generate_scene(replace(spec, seed=seed))
        reports.append(run_pipeline(replace(config, seed=seed), scene=scene))
    return reports


@dataclass
class BenchRow:
    scene_id: str
    area: float
    true_volume: float
    rounds: int
    mean_volume: float = math.nan
    mean_rel_error: float = math.nan
    max_rel_error: float = math.nan
    error_variance: float | None = None
    status: str = "OK"
    errors: list[float] = field(default_factory=list)


def bench_reference(specs: list[SceneSpec] | None = None, rounds: int = 1,
                    config: PipelineConfig | None = None,
                    verbose: bool = False) -> list[BenchRow]:
    """Run each catalogue scene ``rounds`` times with distinct seeds,
    each round's drawn from the scene's own seed (a nonzero ``config.seed``
    is a ``ConfigError``).

    A failing scene is reported as a FAILED row and the run continues.
    """
    config = _batch_config(config, rounds)
    if specs is None:
        specs = reference_scenes()
    rows: list[BenchRow] = []
    for spec in specs:
        row = BenchRow(scene_id=spec.scene_id or "scene",
                       area=spec.footprint_area,
                       true_volume=spec.pile.true_volume,
                       rounds=rounds)
        try:
            reports = _round_reports(spec, spec.seed, rounds, config)
            volumes = [report.volume for report in reports]
            errors = [abs(report.relative_error) for report in reports]
            row.mean_volume = float(np.mean(volumes))
            row.mean_rel_error = float(np.mean(errors))
            row.max_rel_error = float(np.max(errors))
            row.error_variance = float(np.var(errors)) if rounds > 1 else None
            row.errors = errors
        except PilevolError as exc:
            row.status = f"FAILED: {exc}"
        rows.append(row)
        if verbose:
            print(f"  {row.scene_id}: mean error "
                  f"{row.mean_rel_error * 100:.2f}%  [{row.status}]")
    return rows


def bench_csv(rows: list[BenchRow]) -> str:
    lines = ["scene_id,area_m2,true_volume_m3,rounds,mean_volume_m3,"
             "mean_rel_error,max_rel_error,error_variance,status"]
    for r in rows:
        var = "" if r.error_variance is None else f"{r.error_variance:.6e}"
        if r.status == "OK":
            lines.append(
                f"{r.scene_id},{r.area:g},{r.true_volume:.6f},{r.rounds},"
                f"{r.mean_volume:.6f},{r.mean_rel_error:.6f},"
                f"{r.max_rel_error:.6f},{var},OK"
            )
        else:
            lines.append(f"{r.scene_id},{r.area:g},{r.true_volume:.6f},"
                         f"{r.rounds},,,,,{r.status}")
    return "\n".join(lines) + "\n"


@dataclass
class SweepRow:
    voxel_size: float
    compressed_ratio: float
    mean_error: float


def compression_sweep(spec: SceneSpec, voxel_sizes: list[float],
                      config: PipelineConfig | None = None, rounds: int = 1,
                      verbose: bool = False) -> list[SweepRow]:
    """Rerun the pipeline over a grid of downsampling voxel sizes.

    The first returned row is the uncompressed origin (voxel_size 0, ratio
    1).  The compressed ratio is the downsampled point count over the
    count entering the downsample stage (the original count unless a
    pass-through range trims it).  The grid cell grows with the voxel size
    (``PipelineConfig.effective_grid``).  Rounds are seeded as in
    ``bench_reference``.
    """
    for k, size in enumerate(voxel_sizes):
        check_number(f"voxel_sizes[{k}]", size, 0, error=ConfigError)
    if sorted(voxel_sizes) != list(voxel_sizes):
        raise ConfigError("voxel sizes must be ascending")
    config = _batch_config(config, rounds)
    rows: list[SweepRow] = []
    for size in [None] + list(voxel_sizes):
        reports = _round_reports(spec, spec.seed + 31, rounds,
                                 replace(config, downsample_voxel=size))
        ratios = [r.stage_counts["downsample"] / r.stage_counts["passthrough"]
                  for r in reports]
        errors = [abs(r.relative_error) for r in reports]
        row = SweepRow(voxel_size=size if size is not None else 0.0,
                       compressed_ratio=float(np.mean(ratios)),
                       mean_error=float(np.mean(errors)))
        rows.append(row)
        if verbose:
            label = f"voxel {size:g} m" if size is not None else "origin"
            print(f"  {label}: ratio {row.compressed_ratio:.4f}, "
                  f"mean error {row.mean_error * 100:.2f}%")
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["voxel_size_m,compressed_ratio,mean_error"]
    for r in rows:
        lines.append(f"{r.voxel_size:g},{r.compressed_ratio:.6f},{r.mean_error:.6f}")
    return "\n".join(lines) + "\n"


def emit_histogram(config: PipelineConfig, cloud: PointCloud | None = None,
                   scene: Scene | None = None
                   ) -> tuple[HeightHistogram, GroundEstimate]:
    """The smoothed height histogram the calibration stage bins, and the
    ground it finds there: the stages run through calibration, so the
    artifact is exactly what a run measures from."""
    report = RunReport()
    _run_stages(config, cloud, scene, report, last="calibration")
    return report.histogram, report.ground


def histogram_csv(hist: HeightHistogram, ground: GroundEstimate) -> str:
    """The histogram artifact: one row per bin, the ground's
    ``peak_bin`` marked."""
    lines = ["bin_center_m,count,is_ground"]
    for i, (center, count) in enumerate(zip(hist.bin_centers, hist.counts)):
        lines.append(f"{center:.6f},{count:.4f},{1 if i == ground.peak_bin else 0}")
    return "\n".join(lines) + "\n"


def svg_line_plot(xs, ys, path, title: str = "",
                  marker_x: float | None = None) -> None:
    """Tiny dependency-free 640 x 360 polyline SVG for histogram and sweep
    plots."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    width, height, pad = 640, 360, 40
    x_span = xs.max() - xs.min() or 1.0
    y_span = ys.max() - ys.min() or 1.0
    px = pad + (xs - xs.min()) / x_span * (width - 2 * pad)
    py = height - pad - (ys - ys.min()) / y_span * (height - 2 * pad)
    points = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(px, py))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
    ]
    if marker_x is not None:
        mx = pad + (marker_x - xs.min()) / x_span * (width - 2 * pad)
        parts.append(f'<line x1="{mx:.1f}" y1="{pad}" x2="{mx:.1f}" '
                     f'y2="{height - pad}" stroke="crimson" stroke-dasharray="4"/>')
    if title:
        parts.append(f'<text x="{pad}" y="20" font-family="sans-serif" '
                     f'font-size="13">{title}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def run_report_csv(report: RunReport) -> str:
    """Single-run CSV: stage counts, ground, volume, error.  No timings, so
    identical config and seed reproduce the file byte for byte."""
    lines = ["field,value"]
    for stage in STAGE_ORDER:
        if stage in report.stage_counts:
            lines.append(f"count_{stage},{report.stage_counts[stage]}")
    if report.ground is not None:
        lines.append(f"ground_height_m,{report.ground.height:.6f}")
        lines.append(f"ground_mode,{report.ground.mode}")
        conf = report.ground.confidence
        lines.append(f"ground_confidence,{'inf' if math.isinf(conf) else f'{conf:.4f}'}")
    est = report.estimate
    if est is not None:
        lines.append(f"method,{est.method}")
        lines.append(f"volume_m3,{est.volume:.8f}")
        for key, value in sorted(est.params_used.items()):
            lines.append(f"param_{key},{value}")
    if report.true_volume is not None:
        lines.append(f"true_volume_m3,{report.true_volume:.8f}")
    if report.relative_error is not None:
        lines.append(f"relative_error,{report.relative_error:.8f}")
    for warning in report.warnings:
        lines.append(f"warning,{warning}")
    return "\n".join(lines) + "\n"
