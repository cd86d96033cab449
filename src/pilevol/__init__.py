"""Pile volume estimation from 3D point clouds.

The measurement chain: pass-through trimming and a stray-point
pre-filter (the per-axis gap trim), RANSAC posture correction,
height-histogram ground calibration, fine filtering (the largest r0
component), and column volume integration, plus slice and convex-hull
baselines and a synthetic-scene harness with analytic ground truth.  The
paper's radius filter and HDBSCAN chain stay as library functions
(``radius_outlier_filter``, ``hdbscan``, ``largest_cluster``); the
pipeline does not run them.
"""

from .cloud import AxisRange, PointCloud, passthrough_filter, voxel_downsample
from .cloudio import load_cloud, save_cloud
from .denoise import (
    ClusterLabels,
    HdbscanParams,
    RadiusFilterParams,
    gap_trim,
    hdbscan,
    largest_cluster,
    radius_outlier_filter,
    robust_filter,
)
from .ground import (
    GroundEstimate,
    HeightHistogram,
    calibrate,
    find_ground,
    fine_filter,
    height_histogram,
    smooth_histogram,
)
from .pipeline import (
    BenchRow,
    PipelineConfig,
    RunReport,
    SweepRow,
    bench_reference,
    compression_sweep,
    emit_histogram,
    run_pipeline,
)
from .pose import PlaneModel, RansacParams, correct_posture, ransac_plane, rotation_to_up
from .synth import (
    ClutterSpec,
    Cone,
    Frustum,
    Heightfield,
    Scene,
    SceneSpec,
    SphericalCap,
    crescent_scene,
    default_clutter,
    generate_scene,
    reference_scenes,
)
from .volume import (
    GridSpec,
    VolumeEstimate,
    column_volume_grid,
    column_volume_uniform,
    convex_hull_2d,
    footprint_area,
    hull3d_volume,
    slice_volume,
)

__version__ = "0.1.0"
