"""Posture correction: dominant-plane detection and alignment to +Z.

The measurement scene is levelled by fitting the most populated plane
(the ground) with RANSAC, rotating the cloud so the plane normal points
along +Z via the Rodrigues axis-angle formula, and translating the cloud
so the fitted plane lands on z = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cloud import PointCloud
from .errors import DegenerateCloud, InvalidParameter, NotUnitVector, check_number

# probability that the adaptive stop has drawn at least one all-inlier
# sample (Hartley & Zisserman, Multiple View Geometry, section 4.7)
RANSAC_CONFIDENCE = 0.999


@dataclass(frozen=True)
class RansacParams:
    distance_threshold: float = 0.01   # meters
    max_iterations: int = 1000
    seed: int = 0
    min_inlier_fraction: float = 0.15

    def __post_init__(self):
        check_number("distance_threshold", self.distance_threshold, 0)
        check_number("max_iterations", self.max_iterations, 1, integer=True, lo_open=False)
        check_number("seed", self.seed, 0, integer=True, lo_open=False)
        check_number("min_inlier_fraction", self.min_inlier_fraction, 0, 1, hi_open=False)


@dataclass(frozen=True)
class PlaneModel:
    """Plane A*x + B*y + C*z + D = 0 with unit (A, B, C) and C >= 0.

    ``iterations`` counts the RANSAC candidates drawn before the stop.
    ``cloud`` and ``threshold`` are the fitted cloud and the fit's distance
    threshold; equality, hashing and repr leave them out.  The diagnostics
    ``inlier_indices``, the points of ``cloud`` within ``threshold`` in
    cloud order, and ``rms_residual``, their RMS distance, come from one
    distance pass the first time either is read, and are cached; no
    pipeline stage reads them.
    """

    a: float
    b: float
    c: float
    d: float
    iterations: int = 0
    cloud: PointCloud | None = field(default=None, repr=False, compare=False)
    threshold: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        coefficients = (self.a, self.b, self.c, self.d)
        if not all(map(math.isfinite, coefficients)):
            raise InvalidParameter(f"plane coefficients must be finite, got {coefficients}")

    @cached_property
    def _diagnostics(self) -> tuple[np.ndarray, float]:
        if self.cloud is None or self.threshold is None:
            raise InvalidParameter("a plane built without its fitted cloud "
                                   "and threshold has no diagnostics")
        # _plane_distances is elementwise, so the transposed view scores
        # each point with the same bits as the fit's contiguous copy
        dist = _plane_distances(self.cloud.xyz.T, self.unit_normal, self.d)
        inlier_idx = np.flatnonzero(dist <= self.threshold)
        rms = (float(np.sqrt(np.mean(dist[inlier_idx] ** 2)))
               if inlier_idx.size else 0.0)
        return inlier_idx, rms

    @property
    def inlier_indices(self) -> np.ndarray:
        return self._diagnostics[0]

    @property
    def rms_residual(self) -> float:
        return self._diagnostics[1]

    @property
    def unit_normal(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


def _plane_distances(xt: np.ndarray, normal: np.ndarray, d: float) -> np.ndarray:
    """|((n0 x + n1 y) + n2 z) + d| for the (3, N) ``xt``, one point at a time.

    Elementwise products and sums round each point the same way whether it
    is scored alone or among all N, whatever the BLAS and its thread count;
    the float32 screen's band recount relies on that.
    """
    n0, n1, n2 = (float(v) for v in normal)
    # one allocation for both rows: two live N-length temporaries cost page
    # faults on every call
    dist, term = np.empty((2, xt.shape[1]))
    np.multiply(xt[0], n0, out=dist)
    np.multiply(xt[1], n1, out=term)
    dist += term
    np.multiply(xt[2], n2, out=term)
    dist += term
    dist += d
    return np.abs(dist, out=dist)


# the float32 screen's bound is _SCREEN_SLACK = 16 u times the float32
# terms it covers, u = 2^-24 being float32's unit roundoff, plus
# _CENTRE_SLACK times the float64 terms of centring; below _SCREEN_LIMIT no
# float32 product or sum comes near overflow
_SCREEN_SLACK = 2.0 ** -20
_CENTRE_SLACK = 2.0 ** -49
_SCREEN_LIMIT = 2.0 ** 64


def _float32_screen(xt: np.ndarray, t: float):
    """The float32 copy of ``xt`` for ``_screened_inliers``, or None when a
    coordinate or the threshold ``t`` reaches 2^64.

    Returns the (4, N) float32 rows [x - c; y - c; z - c; 1], with the
    centre c of the bounding box subtracted in float64 first; c; the
    per-axis bounds M_i = max |x_i - c_i| of those float64 differences;
    tau = 2^-126 (1 + max_i M_i); and two N-length buffers, float32 and
    bool, into which every candidate's scores and screen mask are written.
    Centred, float32 resolves a 1 cm threshold on a capture of a few km
    wherever it lies, UTM-size coordinates included.
    """
    lo, hi = xt.min(axis=1), xt.max(axis=1)
    if not (max(-lo.min(), hi.max()) < _SCREEN_LIMIT and t < _SCREEN_LIMIT):
        return None
    centre = (lo + hi) * 0.5
    # x -> x - c rounds monotonically, so its extremes bound every point
    bounds = np.maximum(hi - centre, centre - lo)
    x4 = np.empty((4, xt.shape[1]), dtype=np.float32)
    np.subtract(xt, centre[:, None], out=x4[:3])
    x4[3] = 1.0
    return (x4, centre.tolist(), bounds.tolist(), 2.0 ** -126 * (1.0 + float(bounds.max())),
            np.empty(xt.shape[1], dtype=np.float32), np.empty(xt.shape[1], dtype=bool))


def _screened_inliers(xt: np.ndarray, screen, normal: np.ndarray, d: float,
                      t: float, best_count: int) -> np.ndarray | None:
    """The inlier mask ``_plane_distances(xt, normal, d) <= t`` for the unit
    ``normal``, or None when a float32 screen shows it holds at most
    ``best_count`` points.

    The screen scores each point as s = |(n, d_c) . (x - c, 1)| in float32,
    with d_c = d + n.c summed in float64.  Let u = 2^-24 and D the float64
    distance, and let P = sum_i |n_i| M_i + |d_c| and Q = |d| + sum_i |n_i|
    |c_i|.  Then |s - D| <= 6.02 u P + 11 u tau + 8.001 * 2^-53 Q:

    - rounding x - c, n and d_c to float32 moves their dot product by at
      most (2u + u^2) P;
    - the BLAS's four products and three sums, in any order and with or
      without FMA, pass each term through at most four roundings, which add
      at most gamma_4 (1 + u)^2 P, gamma_4 = 4u / (1 - 4u);
    - in float64, x - c is within 2^-53 of its exact value, and d_c and D
      are each within gamma_4 (4.0001 * 2^-53) of theirs; these add at most
      0.01 u P + 8.001 * 2^-53 Q, and the absolute values move nothing;
    - a result in float32's subnormal range adds at most 2^-150 per
      rounding, 2^-150 (11 + 3 max_i M_i) <= 11 u tau in all.

    With eps = 16 u (P + t + tau) + 2^-49 Q, numpy's cast of the Python
    floats t + eps and t - eps to float32 (NEP 50), within 1.0001 u
    (t + eps), still leaves every point with s above t + eps at D > t and
    every point with s below t - eps at D < t.  So the count with
    s <= t + eps is an upper bound, and a candidate whose bound is at most
    ``best_count`` cannot win.  Otherwise the points below t - eps, with
    the float64 vote of the band between, are exactly the full float64
    mask.  Where eps >= t, as on a capture tens of km across, float32
    cannot resolve the threshold and every point is voted in float64.
    """
    if screen is not None:
        x4, (c0, c1, c2), (m0, m1, m2), tau, s, maybe = screen
        n0, n1, n2 = normal.tolist()
        d_c = d + n0 * c0 + n1 * c1 + n2 * c2
        eps = (_SCREEN_SLACK * (abs(n0) * m0 + abs(n1) * m1 + abs(n2) * m2
                                + abs(d_c) + t + tau)
               + _CENTRE_SLACK * (abs(d) + abs(n0 * c0) + abs(n1 * c1)
                                  + abs(n2 * c2)))
    if screen is None or not eps < t:
        return _plane_distances(xt, normal, d) <= t
    np.matmul(np.array([n0, n1, n2, d_c], dtype=np.float32), x4, out=s)
    np.abs(s, out=s)
    np.less_equal(s, t + eps, out=maybe)
    if np.count_nonzero(maybe) <= best_count:
        return None
    inliers = s < t - eps
    band = np.flatnonzero(np.logical_xor(maybe, inliers, out=maybe))
    inliers[band] = _plane_distances(xt[:, band], normal, d) <= t
    return inliers


def _plane_from_points(p0, p1, p2):
    """Candidate (unit normal, d) from 3 points, or None if degenerate."""
    # the cross product of the two edges, term for term as np.cross forms it
    # but without its per-call overhead
    ux, uy, uz = (p1 - p0).tolist()
    vx, vy, vz = (p2 - p0).tolist()
    normal = np.array([uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx])
    # the dot product and correctly rounded square root np.linalg.norm
    # takes, without its per-call checks
    norm = math.sqrt(normal.dot(normal))
    if norm < 1e-12:
        return None
    normal = normal / norm
    return normal, -float(normal @ p0)


# the triples one ``_triples`` call to the generator draws; a fit stops
# after 10-30 draws, so one call usually serves it
_BATCH = 32


def _triples(rng: np.random.Generator, n: int):
    """``rng.choice(n, size=3, replace=False)``, draw after draw.

    ``choice`` draws five bounded integers per triple, below n - 2, n - 1,
    n, 3 and 2: Floyd's algorithm over j = n-3, n-2, n-1, where a repeated
    draw takes j, then the two-step swap shuffle.  ``rng.integers`` makes
    the same bounded draws from the same words, so ``_BATCH`` triples'
    bounds are drawn in one call and Floyd's rule and the swaps applied to
    the batch; the stream is ``choice``'s for any n, whatever word width
    numpy bounds it with."""
    bounds = np.tile([n - 2, n - 1, n, 3, 2], _BATCH)
    rows = np.arange(_BATCH)
    while True:
        a, b, c, k, m = rng.integers(0, bounds).reshape(_BATCH, 5).T
        b[b == a] = n - 2
        c[(c == a) | (c == b)] = n - 1
        idx = np.column_stack([a, b, c])
        for i, j in ((2, k), (1, m)):
            idx[rows, i], idx[rows, j] = idx[rows, j], idx[rows, i]
        yield from idx


def _adaptive_bound(count: int, n: int, cap: int) -> int:
    """Draws needed to sample 3 inliers with probability RANSAC_CONFIDENCE
    when ``count`` of ``n`` points are inliers, capped at ``cap``."""
    w3 = (count / n) ** 3
    if w3 >= 1.0:
        return 0
    if w3 <= 0.0:
        return cap
    return min(cap, math.ceil(math.log(1.0 - RANSAC_CONFIDENCE) / math.log1p(-w3)))


def _refine_plane(xt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares plane through the C-contiguous (3, M) points ``xt``:
    centroid + smallest covariance eigenvector.  ``xt`` is centred in
    place."""
    centroid = xt.mean(axis=1)
    xt -= centroid[:, None]
    # six dot products of the contiguous centred rows.  einsum sums on the
    # calling thread, where a BLAS dot splits the sum by its thread count
    # and so rounds differently under OPENBLAS_NUM_THREADS=1
    x, y, z = xt
    xx, yy, zz, xy, xz, yz = (np.einsum("i,i", u, v) for u, v in
                              ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z)))
    cov = np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])
    eigvals, eigvecs = np.linalg.eigh(cov)
    normal = eigvecs[:, 0]
    return normal, centroid


def _orient_up(normal: np.ndarray) -> np.ndarray:
    """Fix the normal sign deterministically with C >= 0 preferred."""
    a, b, c = normal
    if c < 0 or (c == 0 and (b < 0 or (b == 0 and a < 0))):
        return -normal
    return normal


def ransac_plane(cloud: PointCloud, params: RansacParams = RansacParams()) -> PlaneModel:
    """Fit the dominant plane by seeded RANSAC voting plus LS refinement.

    Each iteration samples 3 distinct points, the draw of
    ``Generator.choice(n, 3, replace=False)`` made by ``_triples`` from
    numpy's bounded integers, forms a candidate plane, and counts inliers within
    ``distance_threshold``.  The loop stops adaptively
    (Fischler & Bolles 1981): after each new best candidate with inlier
    fraction w it needs ceil(log(1 - p) / log(1 - w^3)) draws in all, with
    p = RANSAC_CONFIDENCE (0.999), capped at ``max_iterations``; a cloud
    with w below about 0.19 runs the full cap.  The winning candidate is
    refined by a least-squares fit over its inliers; the refined normal is
    oriented upward (C >= 0).  Deterministic for a fixed seed: ties on the
    inlier count keep the earlier iteration, so the result equals a fixed
    loop of ``iterations`` draws.  Each candidate is screened in float32
    first (``_screened_inliers``), which drops most candidates unvoted and
    leaves every count that of a full float64 vote.  The fit returns once
    the plane is refined; its diagnostics are computed when first read
    (``PlaneModel``).

    Raises:
        DegenerateCloud: fewer than 3 points, all samples collinear, or no
            candidate reaching ``min_inlier_fraction``.
    """
    xyz = cloud.xyz
    n = len(cloud)
    if n < 3:
        raise DegenerateCloud(f"plane fit needs >= 3 points, got {n}")
    # every float64 pass over the N points runs on one contiguous (3, N)
    # copy, on which numpy's products and row reductions take their fast
    # paths
    xt = np.ascontiguousarray(xyz.T)
    t = params.distance_threshold
    screen = _float32_screen(xt, t)
    triples = _triples(np.random.default_rng(params.seed), n)
    best_count = -1
    best_inliers = None
    needed = params.max_iterations
    iterations = 0
    while iterations < needed:
        iterations += 1
        p0, p1, p2 = xyz.take(next(triples), axis=0)
        candidate = _plane_from_points(p0, p1, p2)
        if candidate is None:
            continue
        inliers = _screened_inliers(xt, screen, *candidate, t, best_count)
        if inliers is None:
            continue
        count = int(np.count_nonzero(inliers))
        if count > best_count:
            best_count = count
            best_inliers = inliers
            needed = _adaptive_bound(count, n, params.max_iterations)
    if best_inliers is None or best_count < 3:
        raise DegenerateCloud("no non-degenerate plane candidate found")
    if best_count < params.min_inlier_fraction * n:
        raise DegenerateCloud(
            f"best candidate has {best_count}/{n} inliers, below "
            f"[ransac] min_inlier_fraction {params.min_inlier_fraction}; "
            "a crop dominated by the pile leaves too little ground"
        )

    del screen   # the refit's passes reuse the float32 copy's and buffers' memory
    refined_normal, centroid = _refine_plane(np.compress(best_inliers, xt, axis=1))
    refined_normal = _orient_up(refined_normal)
    refined_d = -float(refined_normal @ centroid)

    return PlaneModel(*refined_normal.tolist(), refined_d, iterations, cloud, t)


def rodrigues(axis, sin_theta: float, cos_theta: float) -> np.ndarray:
    """Rotation by the angle with the given sine and cosine about the unit
    ``axis``: I + sin(theta) K + (1 - cos(theta)) K^2, where K is the
    axis's cross-product matrix."""
    kx, ky, kz = axis
    K = np.array([[0.0, -kz, ky],
                  [kz, 0.0, -kx],
                  [-ky, kx, 0.0]])
    return np.eye(3) + sin_theta * K + (1.0 - cos_theta) * (K @ K)


def rotation_to_up(v: np.ndarray) -> np.ndarray:
    """Rotation matrix R with R @ v = (0, 0, 1), built by Rodrigues' formula.

    The rotation axis is k = (v x ez) / |v x ez| and the angle is
    arccos(v . ez).  v = ez returns the identity; v = -ez returns the 180
    degree rotation about X, where the axis-angle form is singular.

    Raises:
        NotUnitVector: |v| differs from 1 by more than 1e-6, or is NaN.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,):
        raise NotUnitVector(f"expected a 3-vector, got shape {v.shape}")
    # written so that a NaN component fails it too
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-6:
        raise NotUnitVector(f"|v| = {np.linalg.norm(v)!r} is not 1")
    # v x ez = (v1, -v0, 0), term for term as np.cross forms it; its length
    # with the dot product and correctly rounded square root np.linalg.norm
    # takes; and v . ez, which is v2 exactly
    v0, v1, v2 = v.tolist()
    axis = np.array([v1 * 1.0 - v2 * 0.0, v2 * 0.0 - v0 * 1.0, v0 * 0.0 - v1 * 0.0])
    sin_theta = math.sqrt(axis.dot(axis))
    cos_theta = min(max(v2, -1.0), 1.0)
    if sin_theta < 1e-12:
        if cos_theta > 0:
            return np.eye(3)
        return np.diag([1.0, -1.0, -1.0])
    return rodrigues(axis / sin_theta, sin_theta, cos_theta)


def correct_posture(cloud: PointCloud, plane: PlaneModel) -> PointCloud:
    """Rotate the cloud so the plane normal maps to +Z, then translate the
    rotated plane onto z = 0.

    After rotation the plane satisfies z + D = 0, so the translation is +D
    along Z.  The transform is rigid: pairwise distances are preserved.
    """
    rotation = rotation_to_up(plane.unit_normal)
    return cloud.transformed(rotation, offset=(0.0, 0.0, plane.d))
