"""Posture correction and ground calibration, step by step.

The synthetic scene is tilted 8 degrees and rigidly offset, the way a
hand-held capture comes in.  Plane fitting finds the ground, the cloud is
rotated level and translated near z = 0, and the height-density histogram
pins the exact reference height for calibration.
"""

import numpy as np

import pilevol as pv
from pilevol.synth import generate_scene, reference_scenes

spec = reference_scenes()[3]
scene = generate_scene(spec)
# the pipeline's pre-filter: drop far strays with the per-axis r0 gap trim
cloud = pv.gap_trim(scene.cloud, 0.025)

# 1. dominant plane via RANSAC, then rotate its normal onto +Z
plane = pv.ransac_plane(cloud, pv.RansacParams(seed=spec.seed))
tilt = np.degrees(np.arccos(np.clip(plane.unit_normal @ [0, 0, 1], -1, 1)))
print(f"fitted plane normal {np.round(plane.unit_normal, 4)} "
      f"({tilt:.2f} deg off vertical), {len(plane.inlier_indices)} inliers, "
      f"rms residual {plane.rms_residual * 1000:.2f} mm")
level = pv.correct_posture(cloud, plane)
print(f"after correction, ground band spans z in "
      f"[{np.quantile(level.xyz[:, 2], 0.01):+.4f}, "
      f"{np.quantile(level.xyz[:, 2], 0.45):+.4f}] m")

# 2. height-density histogram: the ground is the first tall peak from below
hist = pv.smooth_histogram(pv.height_histogram(level, 256), 5)
ground = pv.find_ground(hist, search_band=0.25)
print(f"ground peak: bin {ground.peak_bin}, height {ground.height * 1000:+.1f} mm, "
      f"confidence {ground.confidence:.0f}x median bin count")

# 3. calibrate: shift the reference to zero and cut the ground band away.
#    The margin lifts the cut above the sensor noise; heights stay measured
#    from the detected ground, which keeps the columns unbiased.
margin = 0.012
calibrated = pv.calibrate(level, ground.height, margin)
print(f"calibration: {len(level)} -> {len(calibrated)} points "
      f"(ground slab removed)")

# 4. fine filtering clears clutter islands and near-ground stragglers
pile = pv.fine_filter(calibrated, pv.RadiusFilterParams())
print(f"fine filter: {len(calibrated)} -> {len(pile)} points")

est = pv.column_volume_grid(pile, pv.GridSpec())
err = (est.volume - scene.true_volume) / scene.true_volume
print(f"volume {est.volume:.5f} m^3 vs truth {scene.true_volume:.5f} m^3 "
      f"({err * 100:+.2f}%)")
