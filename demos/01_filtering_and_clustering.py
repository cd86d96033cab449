"""Robust filtering walkthrough: radius outlier rejection and
dominant-cluster extraction on a cluttered synthetic scene.

A pile sits on a ground slab with a wall strip, a pole, a small far heap,
and sparse scatter around it.  The radius filter strips the scatter; a
clustering step groups what remains and keeps the dominant connected
mass.  Two clustering steps are available: the connected components of
the r0 radius graph (the default) and the paper's HDBSCAN.
"""

import pilevol as pv
from pilevol.synth import generate_scene, reference_scenes

spec = reference_scenes()[0]
scene = generate_scene(spec)
print(f"scene {spec.scene_id}: {len(scene.cloud)} points, "
      f"true volume {scene.true_volume:.4f} m^3")

# Radius outlier rejection: drop points with fewer than n_min neighbors
# within r0.  Sparse scatter dies here; dense surfaces survive.
rparams = pv.RadiusFilterParams(r0=0.025, n_min=4)
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

# The one-call composition used by both filter stages of the pipeline.  In
# HDBSCAN mode it is exactly the chain above:
robust = pv.robust_filter(scene.cloud, rparams, hparams, pv.CLUSTER_HDBSCAN)
assert robust == kept
print("robust_filter(cloud, ..., CLUSTER_HDBSCAN) == "
      "largest_cluster(hdbscan(radius_outlier_filter(cloud)))")

# The default mode clusters on the radius graph itself: two surviving
# points within r0 of each other share a cluster, and components smaller
# than min_cluster_size are noise.  It reuses the neighbor pairs of the
# radius count, so the whole pass makes one kd-tree query.
components = pv.robust_filter(scene.cloud, rparams, hparams)
print(f"robust_filter(cloud, ..., CLUSTER_COMPONENTS) keeps "
      f"{len(components)} points")
shared = {tuple(p) for p in components.xyz} & {tuple(p) for p in robust.xyz}
print(f"points kept by both modes: {len(shared)}")
