"""Line-oriented configuration files for the pipeline.

Format: ``[section]`` headers with ``key = value`` lines; ``#`` starts a
comment.  ``_KEYS`` says which ``PipelineConfig`` field each key sets;
besides those, axis ranges live under ``[passthrough]`` as
``x|y|z = lo, hi`` with ``inf``, ``-inf`` or an empty field for an open
end.  Unknown sections or keys are errors so typos fail fast, and so is
any value a parameter rejects: every error is a ``ConfigError``.  A key,
a value or a nested parameter (``[filter]``, ``[ransac]``, ``[volume]``)
that fails names its line; the config itself is built once, from the
whole document, so a rule between fields is judged on all of it.
Numbers must be finite.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from .cloud import AxisRange
from .errors import ConfigError, InvalidParameter
from .pipeline import PipelineConfig


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


def _parse_optional_float(text: str) -> float | None:
    return None if text.lower() in ("none", "") else _parse_float(text)


def _parse_range(axis: str, text: str) -> AxisRange:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"range must be 'lo, hi', got {text!r}")
    lo = -math.inf if parts[0] in ("-inf", "") else _parse_float(parts[0])
    hi = math.inf if parts[1] in ("inf", "") else _parse_float(parts[1])
    return AxisRange(axis.upper(), lo, hi)


# (section, key) -> (dotted PipelineConfig field, parser of the value)
_KEYS = {
    ("pipeline", "seed"): ("seed", _parse_int),
    ("pipeline", "prefilter"): ("enable_prefilter", _parse_bool),
    ("pipeline", "posture"): ("enable_posture", _parse_bool),
    ("pipeline", "fine_filter"): ("enable_fine_filter", _parse_bool),
    ("pipeline", "downsample_voxel"): ("downsample_voxel", _parse_optional_float),
    ("filter", "r0"): ("radius_params.r0", _parse_float),
    ("filter", "n_min"): ("radius_params.n_min", _parse_int),
    ("filter", "min_cluster_size"): ("radius_params.min_cluster_size", _parse_int),
    ("ransac", "distance_threshold"): ("ransac.distance_threshold", _parse_float),
    ("ransac", "max_iterations"): ("ransac.max_iterations", _parse_int),
    ("ransac", "min_inlier_fraction"): ("ransac.min_inlier_fraction", _parse_float),
    ("ground", "n_interval"): ("n_interval", _parse_int),
    ("ground", "step"): ("smooth_step", _parse_int),
    ("ground", "search_band"): ("search_band", _parse_float),
    ("ground", "mode"): ("ground_mode", str.upper),
    ("ground", "override_height"): ("override_height", _parse_float),
    ("ground", "margin"): ("margin", _parse_float),
    ("volume", "cell_size"): ("grid.cell_size", _parse_float),
}
_SECTIONS = {section for section, _ in _KEYS} | {"passthrough"}


def parse_config_text(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    """Apply a config document on top of ``base`` (defaults if omitted)."""
    base = base if base is not None else PipelineConfig()
    fields = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            name, value = _field(base, fields, section, key.lower(), value)
        except (ConfigError, InvalidParameter) as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        fields[name] = value
    return replace(base, **fields)


def load_config(path, base: PipelineConfig | None = None) -> PipelineConfig:
    return parse_config_text(Path(path).read_text(), base)


def _field(base: PipelineConfig, fields: dict, section: str, key: str,
           value: str) -> tuple[str, object]:
    """The ``PipelineConfig`` field one line sets and its new value, given
    the ``fields`` earlier lines set on ``base``; a nested parameter is
    rebuilt by ``replace``, so it runs its ``__post_init__`` checks."""
    if section == "passthrough" and key in ("x", "y", "z"):
        ranges = fields.get("passthrough_ranges", base.passthrough_ranges)
        return "passthrough_ranges", ranges + (_parse_range(key, value),)
    if (section, key) not in _KEYS:
        raise ConfigError(f"unknown key {key!r} in section [{section or '(none)'}]")
    path, parse = _KEYS[section, key]
    name, _, leaf = path.partition(".")
    value = parse(value)
    if leaf:
        value = replace(fields.get(name, getattr(base, name)), **{leaf: value})
    return name, value
