"""How fast the machine runs at the moment, from a fixed reference kernel.

On a shared virtual machine the same capture can take 1.5 to 1.8 times as
long when neighbours are busy, and such slow phases last from seconds to
minutes, longer than one run.  The benchmark therefore times a fixed
kernel before and after every timed piece of work and scales that work's
time to a machine on which the kernel takes ``REFERENCE_S``: a slow phase
stretches the kernel and the work alike, and cancels out of the ratio.
The unscaled wall times are kept in the run's record.

The kernel uses no pilevol code, so a change to the library moves the
captures and leaves the kernel as it was.  Its mix follows the pipeline's
hot paths in about equal parts: numpy passes over a 30k-point cloud (as
RANSAC votes), k-nearest-neighbour queries on a ``cKDTree`` (as the radius
filter and HDBSCAN's core distances) and a Python loop of union-find over
an edge list (as single linkage).  It runs single-threaded, like the rest
of the benchmark, and takes 30 to 50 ms.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import cKDTree

# seconds one kernel run takes on the machine the figures are scaled to:
# about its time on a 2-core x86-64 virtual machine (Python 3.11, numpy
# 2.4, scipy 1.17) in a fast phase
REFERENCE_S = 0.030


class SpeedProbe:
    """Times the reference kernel on demand and keeps every sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._cloud = rng.random((30_000, 3))
        normals = rng.normal(size=(200, 3))
        self._normals = normals / np.linalg.norm(normals, axis=1)[:, None]
        self._sites = rng.random((5_000, 3))
        n = len(self._sites)
        self._edges = list(zip(rng.integers(0, n, 36_000).tolist(),
                               rng.integers(0, n, 36_000).tolist()))
        self.samples: list[float] = []
        self._kernel()                                  # untimed warm-up

    def _kernel(self) -> int:
        # plane votes over a cloud, as RANSAC counts inliers
        votes = max(int(np.count_nonzero(
            np.abs(self._cloud @ normal - self._cloud[0] @ normal) <= 0.05))
            for normal in self._normals)
        # neighbour queries, as the radius filter and core distances make
        _, idx = cKDTree(self._sites).query(self._sites, k=8)
        # union-find over an edge list, as single linkage walks the MST
        parent = list(range(len(self._sites)))
        for a, b in self._edges:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[b] = a
        return votes + int(idx[0, 1]) + parent[-1]

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    def factor(self, before: float, after: float) -> float:
        """How many times slower than the reference the machine ran between
        two kernel samples: their mean over ``REFERENCE_S``."""
        return (before + after) / 2.0 / REFERENCE_S
