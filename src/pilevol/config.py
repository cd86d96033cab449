"""Line-oriented configuration files for the pipeline.

Format: ``[section]`` headers with ``key = value`` lines; ``#`` starts a
comment.  Unknown sections or keys are errors so typos fail fast, and so
is any value a parameter rejects: every error is a ``ConfigError`` that
names its line.  Numbers must be finite; axis ranges live under
``[passthrough]`` as ``x|y|z = lo, hi`` with ``inf``, ``-inf`` or an empty
field for an open end.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from .cloud import AxisRange
from .denoise import HdbscanParams, RadiusFilterParams
from .errors import ConfigError, InvalidParameter
from .pipeline import PipelineConfig, _with_round_seed
from .volume import GridSpec


def _parse_bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _parse_range(axis: str, text: str) -> AxisRange:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"range must be 'lo, hi', got {text!r}")
    lo = -math.inf if parts[0] in ("-inf", "") else _parse_float(parts[0])
    hi = math.inf if parts[1] in ("inf", "") else _parse_float(parts[1])
    return AxisRange(axis.upper(), lo, hi)


def parse_config_text(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    """Apply a config document on top of ``base`` (defaults if omitted)."""
    config = base if base is not None else PipelineConfig()
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("pipeline", "passthrough", "filter", "ransac",
                               "ground", "volume"):
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            config = _apply(config, section, key.lower(), value)
        except (ConfigError, InvalidParameter) as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    config.validate()
    return config


def load_config(path, base: PipelineConfig | None = None) -> PipelineConfig:
    return parse_config_text(Path(path).read_text(), base)


def _apply(cfg: PipelineConfig, section: str, key: str, value: str) -> PipelineConfig:
    if section == "pipeline":
        if key == "seed":
            return _with_round_seed(cfg, _parse_int(value))
        if key == "prefilter":
            return replace(cfg, enable_prefilter=_parse_bool(value))
        if key == "posture":
            return replace(cfg, enable_posture=_parse_bool(value))
        if key == "calibration":
            return replace(cfg, enable_calibration=_parse_bool(value))
        if key == "fine_filter":
            return replace(cfg, enable_fine_filter=_parse_bool(value))
        if key == "downsample_voxel":
            voxel = None if value.lower() in ("none", "") else _parse_float(value)
            return replace(cfg, downsample_voxel=voxel)
    elif section == "passthrough":
        if key in ("x", "y", "z"):
            return replace(cfg, passthrough_ranges=cfg.passthrough_ranges
                           + (_parse_range(key, value),))
    elif section == "filter":
        if key == "r0":
            return replace(cfg, radius_params=RadiusFilterParams(
                r0=_parse_float(value), n_min=cfg.radius_params.n_min))
        if key == "n_min":
            return replace(cfg, radius_params=RadiusFilterParams(
                r0=cfg.radius_params.r0, n_min=_parse_int(value)))
        if key == "min_cluster_size":
            return replace(cfg, hdbscan_params=HdbscanParams(
                min_cluster_size=_parse_int(value),
                min_samples=cfg.hdbscan_params.min_samples))
        if key == "min_samples":
            return replace(cfg, hdbscan_params=HdbscanParams(
                min_cluster_size=cfg.hdbscan_params.min_cluster_size,
                min_samples=_parse_int(value)))
        if key == "cluster":
            return replace(cfg, cluster_method=value.strip().upper())
    elif section == "ransac":
        if key == "distance_threshold":
            return replace(cfg, ransac=replace(
                cfg.ransac, distance_threshold=_parse_float(value)))
        if key == "max_iterations":
            return replace(cfg, ransac=replace(
                cfg.ransac, max_iterations=_parse_int(value)))
        if key == "min_inlier_fraction":
            return replace(cfg, ransac=replace(
                cfg.ransac, min_inlier_fraction=_parse_float(value)))
    elif section == "ground":
        if key == "n_interval":
            return replace(cfg, n_interval=_parse_int(value))
        if key == "step":
            return replace(cfg, smooth_step=_parse_int(value))
        if key == "search_band":
            return replace(cfg, search_band=_parse_float(value))
        if key == "mode":
            return replace(cfg, ground_mode=value.strip().upper())
        if key == "override_height":
            return replace(cfg, override_height=_parse_float(value))
        if key == "margin":
            return replace(cfg, margin=_parse_float(value))
    elif section == "volume":
        if key == "estimator":
            return replace(cfg, estimator=value.strip().upper())
        if key == "cell_size":
            return replace(cfg, grid=GridSpec(
                cell_size=_parse_float(value), aggregator=cfg.grid.aggregator,
                origin=cfg.grid.origin))
        if key == "aggregator":
            return replace(cfg, grid=GridSpec(
                cell_size=cfg.grid.cell_size, aggregator=value.strip().upper(),
                origin=cfg.grid.origin))
        if key == "scene_area":
            return replace(cfg, scene_area=_parse_float(value))
    raise ConfigError(f"unknown key {key!r} in section [{section or '(none)'}]")
