"""Robust filtering walkthrough: radius outlier rejection and
dominant-cluster extraction on a cluttered synthetic scene.

A pile sits on a ground slab with a wall strip, a pole, a small far heap,
and sparse scatter around it.  The radius filter strips the scatter; a
clustering step groups what remains and keeps the dominant connected
mass.  The paper clusters with HDBSCAN; the pipeline's fine filter
takes the connected components of the r0 radius graph instead, and the
paper's chain stays available as the library composition shown first.
"""

import pilevol as pv
from pilevol.synth import generate_scene, reference_scenes

spec = reference_scenes()[0]
scene = generate_scene(spec)
print(f"scene {spec.scene_id}: {len(scene.cloud)} points, "
      f"true volume {scene.true_volume:.4f} m^3")

# Radius outlier rejection: drop points with fewer than n_min neighbors
# within r0.  Sparse scatter dies here; dense surfaces survive.
rparams = pv.RadiusFilterParams(r0=0.025, n_min=4, min_cluster_size=50)
filtered = pv.radius_outlier_filter(scene.cloud, rparams)
print(f"radius filter: {len(scene.cloud)} -> {len(filtered)} points "
      f"({len(scene.cloud) - len(filtered)} removed)")

# Density clustering over mutual reachability distances (the paper's
# step): the ground, the pile, and anything standing on the ground form
# one connected mass; whatever ends up in smaller clusters or as noise is
# clutter.
hparams = pv.HdbscanParams(min_cluster_size=50, min_samples=10)
labels = pv.hdbscan(filtered, hparams)
sizes = labels.cluster_sizes()
print(f"HDBSCAN clusters: {labels.cluster_count}, "
      f"sizes {sorted(sizes.tolist(), reverse=True)[:6]}, "
      f"noise points {int((labels.labels < 0).sum())}")
kept = pv.largest_cluster(filtered, labels)
print(f"dominant HDBSCAN cluster kept: {len(kept)} points")

# The pipeline's fine filter clusters on the radius graph itself: two
# surviving points within r0 of each other share a cluster, and components
# smaller than min_cluster_size are noise.  It reuses the neighbor pairs of
# the radius count, so the whole pass makes one kd-tree query.
components = pv.robust_filter(scene.cloud, rparams)
print(f"robust_filter(cloud, rparams) keeps {len(components)} points")
shared = {tuple(p) for p in components.xyz} & {tuple(p) for p in kept.xyz}
print(f"points kept by both the components and the HDBSCAN chain: {len(shared)}")

# The pipeline pre-filters with neither: the per-axis gap trim
# keeps, on each axis in turn, the most populated run of coordinates with
# no gap wider than r0.  No r0 pair crosses such a gap, so it keeps every
# point the components pass keeps and only drops far strays.
trimmed = pv.gap_trim(scene.cloud, rparams.r0)
assert {tuple(p) for p in components.xyz} <= {tuple(p) for p in trimmed.xyz}
print(f"gap_trim(cloud, r0) keeps {len(trimmed)} points, a superset of the "
      "components pass")
