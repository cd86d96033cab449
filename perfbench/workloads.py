"""The benchmark's workloads: which clouds one pass captures, with which
configuration, and the correctness gates its volumes must meet.

Every scene seed and every pipeline/RANSAC seed is derived from the
benchmark seed, so one seed always gives the same clouds and volumes.  The
bounds are those of the acceptance gates in ``tests/test_acceptance.py``
for the same configuration.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from pilevol import (PipelineConfig, PointCloud, generate_scene, reference_scenes,
                     save_cloud)
from pilevol.synth import dense_compression_scene, walker_clutter


@dataclass
class Capture:
    """One cloud-to-volume measurement.  ``path`` set means the capture
    starts by reading the cloud from that file."""

    label: str
    truth: float                  # analytic volume, m^3
    config: PipelineConfig
    n_points: int
    cloud: PointCloud | None = None
    path: Path | None = None
    group: float = 0.0            # footprint area, for per-footprint gates


@dataclass(frozen=True)
class Workload:
    name: str
    pass_size: int                        # captures in one full pass
    build: Callable[[int, int, Path, Callable], list[Capture]]
    capture_bound: float | None           # max |relative error| per capture
    gate: Callable[[list[Capture], list[float]], list[str]]


def derive_seed(seed: int, workload: str, index: int) -> int:
    key = [seed, zlib.crc32(workload.encode()), index]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def seeded(config: PipelineConfig, seed: int) -> PipelineConfig:
    return replace(config, seed=seed, ransac=replace(config.ransac, seed=seed))


def _build_catalogue(seed: int, size: int, workdir: Path,
                    generate) -> list[Capture]:
    captures = []
    for i, spec in enumerate(reference_scenes()[:size]):
        s = derive_seed(seed, "catalogue", i)
        scene = generate(replace(spec, seed=s))
        captures.append(Capture(spec.scene_id, scene.true_volume,
                                seeded(PipelineConfig(), s), len(scene.cloud),
                                cloud=scene.cloud, group=spec.footprint_area))
    return captures


def _gate_catalogue(captures: list[Capture], errors: list[float]) -> list[str]:
    by_area: dict[float, list[float]] = {}
    for capture, err in zip(captures, errors):
        by_area.setdefault(capture.group, []).append(abs(err))
    return [f"footprint {area} m^2: mean |error| {np.mean(errs):.2%} > 3%"
            for area, errs in sorted(by_area.items()) if np.mean(errs) > 0.03]


def _build_filters_off(seed: int, size: int, workdir: Path,
                      generate) -> list[Capture]:
    base = reference_scenes()[15]
    config = PipelineConfig(enable_prefilter=False, enable_fine_filter=False)
    captures = []
    for i in range(size):
        s = derive_seed(seed, "filters-off", i)
        walker = walker_clutter(base.ground_extent, base.pile.footprint_radius, s)
        scene = generate(replace(base, seed=s, clutter=base.clutter + (walker,)))
        captures.append(Capture(f"{base.scene_id}-walker-{i}", scene.true_volume,
                                seeded(config, s), len(scene.cloud),
                                cloud=scene.cloud))
    return captures


def _gate_filters_off(captures: list[Capture], errors: list[float]) -> list[str]:
    mean = float(np.mean(np.abs(errors)))
    return [f"mean |error| {mean:.2%} >= 10%"] if mean >= 0.10 else []


def _build_voxel_band(seed: int, size: int, workdir: Path,
                     generate) -> list[Capture]:
    base = dense_compression_scene()
    captures = []
    for i in range(size):
        s = derive_seed(seed, "voxel-band", i)
        scene = generate(replace(base, seed=s))
        path = workdir / f"voxel-band-{i}.ply"
        save_cloud(scene.cloud, path)
        captures.append(Capture(f"{base.scene_id}-{i}", scene.true_volume,
                                seeded(PipelineConfig(downsample_voxel=0.034), s),
                                len(scene.cloud), path=path))
    return captures


def _no_gate(captures: list[Capture], errors: list[float]) -> list[str]:
    return []


WORKLOADS = {w.name: w for w in (
    Workload("catalogue", 18, _build_catalogue, 0.05, _gate_catalogue),
    Workload("filters-off", 32, _build_filters_off, None, _gate_filters_off),
    Workload("voxel-band", 16, _build_voxel_band, 0.05, _no_gate),
)}


def build(workload: Workload, seed: int, size: int,
          workdir: Path) -> tuple[list[Capture], float]:
    """The pass's captures and the seconds spent in ``generate_scene``."""
    spent = [0.0]

    def generate(spec):
        t0 = time.perf_counter()
        scene = generate_scene(spec)
        spent[0] += time.perf_counter() - t0
        return scene

    captures = workload.build(seed, size, workdir, generate)
    return captures, spent[0]
