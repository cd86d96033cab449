"""Command-line interface: run, bench, sweep, histogram, synth.

Exit codes: 0 success, 1 configuration error, 2 input error, 3 stage
failure during processing.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .cloudio import FORMAT_PLY_BINARY, load_cloud, save_cloud
from .config import load_config
from .errors import (
    ConfigError,
    MalformedHeader,
    NonFiniteCoordinate,
    PilevolError,
    UnsupportedProperty,
)
from .pipeline import (
    PipelineConfig,
    _with_round_seed,
    bench_csv,
    bench_reference,
    compression_sweep,
    emit_histogram,
    histogram_csv,
    run_pipeline,
    run_report_csv,
    svg_line_plot,
    sweep_csv,
)
from .synth import dense_compression_scene, generate_scene, reference_scenes

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INPUT = 2
EXIT_STAGE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilevol",
        description="Pile volume estimation from 3D point clouds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # bench and sweep seed each round from the scene's own seed, and synth
    # runs no pipeline, so each takes only the options it uses
    def common(p, config=True, seed=True):
        if config:
            p.add_argument("--config", help="pipeline config file (key = value sections)")
        p.add_argument("--out", default=".", help="output directory")
        if seed:
            p.add_argument("--seed", type=int,
                           help="override the pipeline seed (synth: the scene seed)")

    p_run = sub.add_parser("run", help="run the pipeline on a cloud or scene")
    common(p_run)
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="PLY or XYZ cloud file")
    src.add_argument("--scene-id", help="reference catalogue scene id")
    p_run.add_argument("--truth", type=float, help="ground-truth volume for error reporting")

    p_bench = sub.add_parser("bench", help="run the 18-scene reference benchmark")
    common(p_bench, seed=False)
    p_bench.add_argument("--rounds", type=int, default=1)
    p_bench.add_argument("--filter", dest="scene_filter", default="",
                         help="substring filter on scene ids")

    p_sweep = sub.add_parser("sweep", help="compression sweep over voxel sizes")
    common(p_sweep, seed=False)
    p_sweep.add_argument("--sizes", default="0.01,0.02,0.03,0.05,0.1,0.2,0.3",
                         help="comma-separated ascending voxel sizes in meters")
    p_sweep.add_argument("--scene-id", help="catalogue scene id (default: dense sweep scene)")
    p_sweep.add_argument("--rounds", type=int, default=1)
    p_sweep.add_argument("--svg", action="store_true", help="also write an SVG plot")

    p_hist = sub.add_parser("histogram", help="dump the smoothed height histogram")
    common(p_hist)
    hsrc = p_hist.add_mutually_exclusive_group(required=True)
    hsrc.add_argument("--input", help="PLY or XYZ cloud file")
    hsrc.add_argument("--scene-id", help="reference catalogue scene id")
    p_hist.add_argument("--svg", action="store_true", help="also write an SVG plot")

    p_synth = sub.add_parser("synth", help="export a synthetic scene cloud")
    common(p_synth, config=False)
    p_synth.add_argument("--scene-id", required=True,
                         help="catalogue scene id, or 'list' to list ids")
    p_synth.add_argument("--format", default=FORMAT_PLY_BINARY,
                         choices=["ply-ascii", "ply-binary-le", "xyz"])
    return parser


def _load_pipeline_config(args) -> PipelineConfig:
    config = PipelineConfig()
    if getattr(args, "config", None):
        config = load_config(args.config, config)
    if getattr(args, "seed", None) is not None:
        config = _with_round_seed(config, args.seed)
    config.validate()
    return config


def _find_scene(scene_id: str):
    for spec in reference_scenes():
        if spec.scene_id == scene_id:
            return spec
    if scene_id == dense_compression_scene().scene_id:
        return dense_compression_scene()
    raise ConfigError(f"unknown scene id {scene_id!r}; try 'pilevol synth --scene-id list'")


def _scene_sidecar(spec, scene) -> str:
    lines = [
        f"scene_id = {spec.scene_id}",
        f"pile = {type(spec.pile).__name__}",
    ]
    for field_name, value in vars(spec.pile).items():
        lines.append(f"pile.{field_name} = {value!r}")
    lines += [
        f"footprint_area_m2 = {spec.footprint_area!r}",
        f"ground_extent_m = {spec.ground_extent[0]!r}, {spec.ground_extent[1]!r}",
        f"point_density_per_m2 = {spec.point_density!r}",
        f"noise_sigma_m = {spec.noise_sigma!r}",
        f"tilt_deg = {spec.tilt_deg!r}",
        f"seed = {spec.seed}",
        f"clutter_blobs = {len(spec.clutter)}",
        f"true_volume_m3 = {scene.true_volume!r}",
        f"point_count = {len(scene.cloud)}",
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_pipeline_config(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "run":
            return _cmd_run(args, config, out_dir)
        if args.command == "bench":
            return _cmd_bench(args, config, out_dir)
        if args.command == "sweep":
            return _cmd_sweep(args, config, out_dir)
        if args.command == "histogram":
            return _cmd_histogram(args, config, out_dir)
        if args.command == "synth":
            return _cmd_synth(args, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, MalformedHeader, UnsupportedProperty, NonFiniteCoordinate) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PilevolError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except MemoryError:
        print("stage failure: out of memory", file=sys.stderr)
        return EXIT_STAGE


def _resolve_input(args):
    if getattr(args, "input", None):
        cloud = load_cloud(args.input)
        return cloud, None
    scene = generate_scene(_find_scene(args.scene_id))
    return None, scene


def _cmd_run(args, config, out_dir) -> int:
    if args.truth is not None and not (math.isfinite(args.truth) and args.truth > 0):
        raise ConfigError(f"--truth must be a finite volume > 0, got {args.truth}")
    cloud, scene = _resolve_input(args)
    report = run_pipeline(config, cloud=cloud, scene=scene)
    if args.truth is not None:
        report.true_volume = args.truth
    csv_path = out_dir / "report.csv"
    csv_path.write_text(run_report_csv(report))
    for stage, count in report.stage_counts.items():
        dt = report.timings_s.get(stage, 0.0)
        print(f"{stage:12s} {count:8d} points  ({dt:.2f} s)")
    print(f"volume: {report.volume:.6f} m^3 [{report.estimate.method}]")
    if report.relative_error is not None:
        print(f"relative error: {report.relative_error * 100:+.2f}%")
    for warning in report.warnings:
        print(f"warning: {warning}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_bench(args, config, out_dir) -> int:
    specs = reference_scenes()
    if args.scene_filter:
        specs = [s for s in specs if args.scene_filter in s.scene_id]
        if not specs:
            raise ConfigError(f"no scenes match {args.scene_filter!r}")
    rows = bench_reference(specs, rounds=args.rounds, config=config, verbose=True)
    csv_path = out_dir / "bench.csv"
    csv_path.write_text(bench_csv(rows))
    ok = [r for r in rows if r.status == "OK"]
    if ok:
        mean = sum(r.mean_rel_error for r in ok) / len(ok)
        print(f"overall mean relative error: {mean * 100:.2f}% over {len(ok)} scenes")
    print(f"wrote {csv_path}")
    return EXIT_OK if len(ok) == len(rows) else EXIT_STAGE


def _cmd_sweep(args, config, out_dir) -> int:
    try:
        sizes = [float(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --sizes: {exc}") from exc
    spec = _find_scene(args.scene_id) if args.scene_id else dense_compression_scene()
    rows = compression_sweep(spec, sizes, config=config, rounds=args.rounds,
                             verbose=True)
    csv_path = out_dir / "sweep.csv"
    csv_path.write_text(sweep_csv(rows))
    if args.svg:
        svg_path = out_dir / "sweep.svg"
        svg_line_plot([r.compressed_ratio for r in rows],
                      [r.mean_error for r in rows], svg_path,
                      title="mean error vs compressed ratio")
        print(f"wrote {svg_path}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_histogram(args, config, out_dir) -> int:
    cloud, scene = _resolve_input(args)
    hist, ground = emit_histogram(config, cloud=cloud, scene=scene)
    csv_path = out_dir / "histogram.csv"
    csv_path.write_text(histogram_csv(hist, ground))
    print(f"ground: {ground.height:.4f} m ({ground.mode}, bin {ground.peak_bin})")
    if args.svg:
        svg_path = out_dir / "histogram.svg"
        svg_line_plot(hist.bin_centers, hist.counts, svg_path,
                      title="height density", marker_x=ground.height)
        print(f"wrote {svg_path}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_synth(args, out_dir) -> int:
    if args.scene_id == "list":
        for spec in reference_scenes():
            print(f"{spec.scene_id}  area={spec.footprint_area} m^2  "
                  f"true_volume={spec.pile.true_volume:.4f} m^3")
        print(f"{dense_compression_scene().scene_id}  (compression sweep scene)")
        return EXIT_OK
    spec = _find_scene(args.scene_id)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    scene = generate_scene(spec)
    ext = {"ply-ascii": ".ply", "ply-binary-le": ".ply", "xyz": ".xyz"}[args.format]
    cloud_path = out_dir / f"{spec.scene_id}{ext}"
    save_cloud(scene.cloud, cloud_path, format=args.format)
    sidecar = out_dir / f"{spec.scene_id}.scene.txt"
    sidecar.write_text(_scene_sidecar(spec, scene))
    print(f"wrote {cloud_path} ({len(scene.cloud)} points) and {sidecar}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
