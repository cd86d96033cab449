"""Which pilevol functions the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are named after the module that owns the work: ``cloudio``,
``cloud``, ``denoise``, ``hdbscan`` (the ``pilevol._hdbscan`` chain),
``pose``, ``ground``, ``volume`` and ``pipeline`` (the self time of
``run_pipeline``).  Time metrics are self times averaged per traced
capture, so they add up to no more than the traced capture time.
"""

from __future__ import annotations

import importlib
import math
import statistics

from pilevol.pipeline import STAGE_ORDER
from spans import Tracer, count_totals, self_times


def _in_out(span, args, result):
    span.counts["n_in"] = len(args[0])
    span.counts["n_out"] = len(result)


def _clusters(span, args, result):
    span.counts["n_in"] = len(args[0])
    span.counts["clusters"] = result.cluster_count


def _inliers(span, args, result):
    span.counts["n_in"] = len(args[0])
    span.counts["inliers"] = len(result.inlier_indices)


def _confidence(span, args, result):
    span.counts["confidence"] = result.confidence


def _cells(span, args, result):
    span.counts["cells"] = result.diagnostics["cell_count"]


# (module, attribute the pipeline calls through, span name, counter).  The
# two filter passes reach robust_filter through different modules, and the
# three selection steps of the clustering chain share one span name.
WRAPPED = (
    ("pilevol.pipeline", "voxel_downsample", "cloud.voxel_downsample", _in_out),
    ("pilevol.pipeline", "robust_filter", "denoise.robust_filter", None),
    ("pilevol.ground", "robust_filter", "denoise.robust_filter", None),
    ("pilevol.denoise", "radius_outlier_filter", "denoise.radius", _in_out),
    ("pilevol.denoise", "hdbscan", "hdbscan", _clusters),
    ("pilevol.denoise", "largest_cluster", "denoise.largest_cluster", _in_out),
    ("pilevol._hdbscan", "core_distances", "hdbscan.core", None),
    ("pilevol._hdbscan", "mutual_reachability_mst", "hdbscan.mst", None),
    ("pilevol._hdbscan", "single_linkage", "hdbscan.linkage", None),
    ("pilevol._hdbscan", "condense_tree", "hdbscan.condense", None),
    ("pilevol._hdbscan", "cluster_stability", "hdbscan.select", None),
    ("pilevol._hdbscan", "select_eom", "hdbscan.select", None),
    ("pilevol._hdbscan", "label_points", "hdbscan.select", None),
    ("pilevol.pipeline", "ransac_plane", "pose.ransac", _inliers),
    ("pilevol.pipeline", "correct_posture", "pose.correct", None),
    ("pilevol.pipeline", "height_histogram", "ground.histogram", None),
    ("pilevol.pipeline", "smooth_histogram", "ground.histogram", None),
    ("pilevol.pipeline", "find_ground", "ground.histogram", _confidence),
    ("pilevol.pipeline", "calibrate", "ground.calibrate", _in_out),
    ("pilevol.pipeline", "fine_filter", "ground.fine_filter", None),
    ("pilevol.pipeline", "column_volume_grid", "volume.column_grid", _cells),
)

# per-layer time metric -> span name whose self time it reports
SELF_TIME_METRICS = {
    "cloudio.load_s": "cloudio.load",
    "cloud.voxel_downsample_s": "cloud.voxel_downsample",
    "denoise.radius_s": "denoise.radius",
    "hdbscan.core_s": "hdbscan.core",
    "hdbscan.mst_s": "hdbscan.mst",
    "hdbscan.linkage_s": "hdbscan.linkage",
    "hdbscan.condense_s": "hdbscan.condense",
    "hdbscan.select_s": "hdbscan.select",
    "pose.ransac_s": "pose.ransac",
    "pose.correct_s": "pose.correct",
    "ground.histogram_s": "ground.histogram",
    "ground.calibrate_s": "ground.calibrate",
    "volume.column_grid_s": "volume.column_grid",
    "pipeline.self_s": "pipeline",
}


def install(tracer: Tracer) -> None:
    for module_name, attr, span_name, counter in WRAPPED:
        tracer.install(importlib.import_module(module_name), attr, span_name,
                       count=counter)


def module_self_times(spans) -> dict[str, float]:
    """Self time summed per module (the span name up to its first dot)."""
    modules: dict[str, float] = {}
    for name, seconds in self_times(spans).items():
        module = name.split(".", 1)[0]
        modules[module] = modules.get(module, 0.0) + seconds
    return modules


def _ratio(entry: dict, num: str, den: str) -> float:
    return entry[num] / entry[den] if entry.get(den) else 0.0


def layer_metrics(spans, stage_timings: list[dict], n_captures: int,
                  generate_s: float, max_error_pct: float,
                  failed_ratio: float, overhead_s: float,
                  speed_factor: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    Layers a workload never calls report 0: their spans do not exist.
    """
    selfs = self_times(spans)
    counts = count_totals(spans)

    def entry(name):
        return counts.get(name, {})

    out: dict[str, tuple[float, str]] = {}
    for metric, span_name in SELF_TIME_METRICS.items():
        out[metric] = (selfs.get(span_name, 0.0) / n_captures, "s")
    out["cloud.voxel_kept_ratio"] = (
        _ratio(entry("cloud.voxel_downsample"), "n_out", "n_in"), "ratio")
    radius = entry("denoise.radius")
    out["denoise.radius_points_in"] = (radius.get("n_in", 0.0) / n_captures, "count")
    out["denoise.radius_kept_ratio"] = (_ratio(radius, "n_out", "n_in"), "ratio")
    out["denoise.largest_cluster_share"] = (
        _ratio(entry("denoise.largest_cluster"), "n_out", "n_in"), "ratio")
    clusters = entry("hdbscan")
    out["hdbscan.points_in"] = (clusters.get("n_in", 0.0) / n_captures, "count")
    out["hdbscan.cluster_count"] = (_ratio(clusters, "clusters", "calls"), "count")
    ransac = entry("pose.ransac")
    out["pose.points_in"] = (ransac.get("n_in", 0.0) / n_captures, "count")
    out["pose.inlier_fraction"] = (_ratio(ransac, "inliers", "n_in"), "ratio")
    out["ground.kept_ratio"] = (_ratio(entry("ground.calibrate"), "n_out", "n_in"),
                                "ratio")
    # a histogram whose median bin is empty has infinite confidence
    confidences = [s.counts["confidence"] for s in spans
                   if math.isfinite(s.counts.get("confidence", math.inf))]
    out["ground.confidence"] = (
        statistics.median(confidences) if confidences else 0.0, "ratio")
    out["volume.cell_count"] = (entry("volume.column_grid").get("cells", 0.0)
                                / n_captures, "count")
    for stage in STAGE_ORDER:
        total = sum(timings[stage] for timings in stage_timings)
        out[f"stage.{stage}_s"] = (total / n_captures, "s")
    out["synth.generate_s"] = (generate_s, "s")
    out["max_abs_rel_error_pct"] = (max_error_pct, "%")
    out["failed_ratio"] = (failed_ratio, "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["machine.speed_factor"] = (speed_factor, "ratio")
    return out
