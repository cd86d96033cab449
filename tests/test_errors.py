"""The one number check, and every public numeric parameter behind it."""

import math

import numpy as np
import pytest

from pilevol.cloud import AxisRange, PointCloud, voxel_downsample
from pilevol.denoise import HdbscanParams, RadiusFilterParams, gap_trim
from pilevol.errors import ConfigError, InvalidParameter, check_number
from pilevol.ground import (
    MODE_OVERRIDE,
    calibrate,
    find_ground,
    height_histogram,
    smooth_histogram,
)
from pilevol.pipeline import PipelineConfig, bench_reference, compression_sweep
from pilevol.pose import RansacParams
from pilevol.synth import (
    ClutterSpec,
    Cone,
    Frustum,
    Heightfield,
    SphericalCap,
    crescent_scene,
    reference_scenes,
    smeared_ground_scene,
    walker_clutter,
)
from pilevol.volume import (
    GridSpec,
    column_volume_uniform,
    footprint_area,
    slice_volume,
)


def test_check_number_returns_a_number_inside_its_interval():
    assert check_number("x", 0.5) == 0.5
    assert check_number("x", np.float32(0.5), 0, 1) == np.float32(0.5)
    assert check_number("x", np.int64(3), 0, integer=True) == 3
    # a closed end holds its bound, an open one does not
    assert check_number("x", 0, 0, lo_open=False) == 0
    assert check_number("x", 1.0, 0, 1, hi_open=False) == 1.0
    for value, lo, hi in ((0, 0, 1), (1, 0, 1)):
        with pytest.raises(InvalidParameter, match=r"x must be in \(0, 1\), got"):
            check_number("x", value, lo, hi)


def test_check_number_takes_infinities_only_at_closed_infinite_ends():
    assert check_number("x", math.inf, lo_open=False, hi_open=False) == math.inf
    assert check_number("x", -math.inf, lo_open=False, hi_open=False) == -math.inf
    for value in (math.inf, -math.inf):
        with pytest.raises(InvalidParameter, match="x must be finite, got"):
            check_number("x", value)
    with pytest.raises(InvalidParameter):
        check_number("x", math.inf, 0, lo_open=False)


def test_check_number_rejects_nan_in_every_interval():
    for closed in (False, True):
        with pytest.raises(InvalidParameter):
            check_number("x", math.nan, lo_open=not closed, hi_open=not closed)


@pytest.mark.parametrize("value", [True, False, np.True_, "1", None, 1j, [1.0]])
def test_check_number_rejects_a_bool_or_non_number(value):
    with pytest.raises(InvalidParameter, match="x must be a number, got"):
        check_number("x", value)
    with pytest.raises(ConfigError, match="x must be an integer, got"):
        check_number("x", value, integer=True, error=ConfigError)


@pytest.mark.parametrize("value", [2.0, 2.5, np.float64(2.0)])
def test_check_number_rejects_a_float_where_an_integer_belongs(value):
    with pytest.raises(InvalidParameter, match="n must be an integer"):
        check_number("n", value, integer=True)


CLOUD = PointCloud(np.random.default_rng(0).normal(size=(64, 3)))
HIST = height_histogram(CLOUD, 16)
SPEC = reference_scenes()[0]
BLOB = dict(kind="box", center=(0.5, 0.2, 0.1), size=(0.05, 0.05, 0.05), count=10)


def _replaced(values, k, value):
    values = list(values)
    values[k] = value
    return tuple(values)


# each public numeric parameter outside SceneSpec (whose fields
# tests/test_synth.py feeds the same values), as a call that passes it
# the value, and the error a value it rejects raises
NUMERIC_PARAMETERS = {
    "AxisRange.lo": (lambda v: AxisRange("Z", lo=v), InvalidParameter),
    "AxisRange.hi": (lambda v: AxisRange("Z", hi=v), InvalidParameter),
    "voxel_downsample.voxel_size": (lambda v: voxel_downsample(CLOUD, v), InvalidParameter),
    "RadiusFilterParams.r0": (lambda v: RadiusFilterParams(r0=v), InvalidParameter),
    "RadiusFilterParams.n_min": (lambda v: RadiusFilterParams(n_min=v), InvalidParameter),
    "RadiusFilterParams.min_cluster_size":
        (lambda v: RadiusFilterParams(min_cluster_size=v), InvalidParameter),
    "HdbscanParams.min_cluster_size":
        (lambda v: HdbscanParams(min_cluster_size=v), InvalidParameter),
    "HdbscanParams.min_samples": (lambda v: HdbscanParams(min_samples=v), InvalidParameter),
    "gap_trim.r0": (lambda v: gap_trim(CLOUD, v), InvalidParameter),
    "RansacParams.distance_threshold":
        (lambda v: RansacParams(distance_threshold=v), InvalidParameter),
    "RansacParams.max_iterations": (lambda v: RansacParams(max_iterations=v), InvalidParameter),
    "RansacParams.seed": (lambda v: RansacParams(seed=v), InvalidParameter),
    "RansacParams.min_inlier_fraction":
        (lambda v: RansacParams(min_inlier_fraction=v), InvalidParameter),
    "height_histogram.n_interval": (lambda v: height_histogram(CLOUD, v), InvalidParameter),
    "smooth_histogram.step": (lambda v: smooth_histogram(HIST, v), InvalidParameter),
    "find_ground.search_band": (lambda v: find_ground(HIST, v), InvalidParameter),
    "find_ground.override_height":
        (lambda v: find_ground(HIST, 0.25, MODE_OVERRIDE, v), InvalidParameter),
    "calibrate.height": (lambda v: calibrate(CLOUD, v), InvalidParameter),
    "calibrate.margin": (lambda v: calibrate(CLOUD, 0.0, v), InvalidParameter),
    "GridSpec.cell_size": (lambda v: GridSpec(cell_size=v), InvalidParameter),
    "footprint_area.scene_area": (lambda v: footprint_area(v, 10), InvalidParameter),
    "footprint_area.point_count": (lambda v: footprint_area(1.0, v), InvalidParameter),
    "column_volume_uniform.element_area":
        (lambda v: column_volume_uniform(CLOUD, v), InvalidParameter),
    "slice_volume.interval": (lambda v: slice_volume(CLOUD, v), InvalidParameter),
    "Cone.radius": (lambda v: Cone(v, 0.2), InvalidParameter),
    "Cone.height": (lambda v: Cone(0.3, v), InvalidParameter),
    "Frustum.r_base": (lambda v: Frustum(v, 0.1, 0.2), InvalidParameter),
    "Frustum.r_top": (lambda v: Frustum(0.3, v, 0.2), InvalidParameter),
    "Frustum.height": (lambda v: Frustum(0.3, 0.1, v), InvalidParameter),
    "SphericalCap.sphere_radius": (lambda v: SphericalCap(v, 0.1), InvalidParameter),
    "SphericalCap.cap_height": (lambda v: SphericalCap(0.5, v), InvalidParameter),
    "Heightfield.shape_seed": (lambda v: Heightfield(v, 0.4, 0.05), InvalidParameter),
    "Heightfield.radius": (lambda v: Heightfield(7, v, 0.05), InvalidParameter),
    "Heightfield.target_volume": (lambda v: Heightfield(7, 0.4, v), InvalidParameter),
    "ClutterSpec.count": (lambda v: ClutterSpec(**{**BLOB, "count": v}), InvalidParameter),
    **{f"ClutterSpec.{field}[{k}]":
       (lambda v, field=field, k=k:
        ClutterSpec(**{**BLOB, field: _replaced(BLOB[field], k, v)}), InvalidParameter)
       for field in ("center", "size") for k in range(3)},
    "crescent_scene.point_density": (lambda v: crescent_scene(v), InvalidParameter),
    "smeared_ground_scene.rise": (lambda v: smeared_ground_scene(SPEC, v), InvalidParameter),
    "walker_clutter.pile_radius":
        (lambda v: walker_clutter(SPEC.ground_extent, v, 3), InvalidParameter),
    "walker_clutter.seed":
        (lambda v: walker_clutter(SPEC.ground_extent, 0.3, v), InvalidParameter),
    **{f"PipelineConfig.{field}": (lambda v, field=field: PipelineConfig(**{field: v}),
                                   ConfigError)
       for field in ("margin", "search_band", "downsample_voxel", "override_height",
                     "n_interval", "smooth_step", "seed")},
    "bench_reference.rounds": (lambda v: bench_reference([SPEC], rounds=v), ConfigError),
    "compression_sweep.rounds":
        (lambda v: compression_sweep(SPEC, [0.05], rounds=v), ConfigError),
    "compression_sweep.voxel_sizes":
        (lambda v: compression_sweep(SPEC, [0.01, v]), ConfigError),
}

BAD_VALUES = {"bool": True, "string": "1", "none": None, "nan": math.nan,
              "inf": math.inf, "-inf": -math.inf}

# the values of BAD_VALUES that a parameter takes: AxisRange's open ends,
# and the "not set" of the two optional config numbers
ACCEPTED = {"AxisRange.lo": ("inf", "-inf"), "AxisRange.hi": ("inf", "-inf"),
            "PipelineConfig.downsample_voxel": ("none",),
            "PipelineConfig.override_height": ("none",)}


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("parameter", NUMERIC_PARAMETERS)
def test_numeric_parameters_reject_bools_strings_none_and_non_finite_values(parameter, bad):
    # a bool ran as 0 or 1 (voxel_downsample(c, True) thinned to 1 m
    # voxels), and a string or None ended in a bare TypeError; each is now
    # the typed error, naming the parameter
    call, error = NUMERIC_PARAMETERS[parameter]
    if bad in ACCEPTED.get(parameter, ()):
        call(BAD_VALUES[bad])
        return
    with pytest.raises(error) as info:
        call(BAD_VALUES[bad])
    assert type(info.value) is error
    assert parameter.split(".")[1].split("[")[0] in str(info.value)
