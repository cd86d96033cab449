"""Measurement-basis calibration from the height density histogram.

After posture correction the ground forms a sharp peak at the low end of
the z histogram.  The reference height is read from that peak, the cloud
is translated so the reference sits at z = 0, and everything below a
small margin over it is removed.  A mid-plateau variant handles
registration-smeared ground where the peak degrades into a run of
near-equal bins, and an override mode accepts an externally measured
height.  ``find_ground`` dispatches on the mode; the pipeline's
calibration stage, which always runs, calls it.  ``fine_filter`` then
strips the residual ground and clutter by keeping the largest r0
component of the calibrated cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud, _add_to_columns
from .denoise import RadiusFilterParams, robust_filter
from .errors import DegenerateHeights, EmptyBand, EmptyCloud, InvalidParameter

MODE_FIRST_PEAK = "FIRST_PEAK"
MODE_MID_PLATEAU = "MID_PLATEAU"
MODE_OVERRIDE = "OVERRIDE"

# Bins within this fraction of the band peak count to the peak count as a
# plateau for MID_PLATEAU mode.
PLATEAU_TOLERANCE = 0.10

# A bin only qualifies as the first peak if it reaches this fraction of the
# band maximum; stray low-tail points otherwise form one-off local maxima
# several noise sigmas below the real ground.
PEAK_NOISE_FLOOR = 0.10

# half-width (bins) of the count-weighted centroid window that refines a
# strict peak; counting noise puts the first strict local maximum slightly
# left of a symmetric bump's center, and the centroid removes that bias
PEAK_CENTROID_HALF_WINDOW = 3


@dataclass(frozen=True)
class HeightHistogram:
    """Binned z-density: ``counts[i]`` covers [bin_edges[i], bin_edges[i+1])."""

    bin_edges: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])


@dataclass(frozen=True)
class GroundEstimate:
    height: float
    mode: str
    peak_bin: int
    confidence: float


def height_histogram(cloud: PointCloud, n_interval: int) -> HeightHistogram:
    """Uniform z binning over the cloud's [z_min, z_max]; z = z_max goes to
    the last bin."""
    if n_interval < 2:
        raise InvalidParameter(f"n_interval must be >= 2, got {n_interval}")
    if len(cloud) == 0:
        raise EmptyCloud("cannot histogram an empty cloud")
    z = cloud.xyz[:, 2].copy()
    z_min, z_max = float(z.min()), float(z.max())
    if not z_max > z_min:
        raise DegenerateHeights(f"z_max {z_max} must exceed z_min {z_min}")
    edges = np.linspace(z_min, z_max, n_interval + 1)
    # z - z_min >= 0 holds exactly, so the cast's truncation is the floor
    # and no index is negative
    z -= z_min
    z /= z_max - z_min
    z *= n_interval
    idx = z.astype(np.int64)
    np.minimum(idx, n_interval - 1, out=idx)
    counts = np.bincount(idx, minlength=n_interval).astype(np.float64)
    return HeightHistogram(bin_edges=edges, counts=counts)


def smooth_histogram(hist: HeightHistogram, step: int) -> HeightHistogram:
    """Centered moving average of odd width ``step``.

    The (step-1)/2 bins at each end have no full window and are dropped;
    the bin edges shrink accordingly.  step = 1 returns the input.
    """
    if step < 1 or step % 2 == 0:
        raise InvalidParameter(f"step must be a positive odd integer, got {step}")
    if step > hist.n_bins:
        raise InvalidParameter(f"step {step} exceeds bin count {hist.n_bins}")
    if step == 1:
        return hist
    half = step // 2
    kernel = np.full(step, 1.0 / step)
    smoothed = np.convolve(hist.counts, kernel, mode="valid")
    edges = hist.bin_edges[half:len(hist.bin_edges) - half]
    return HeightHistogram(bin_edges=edges, counts=smoothed)


def _band_bins(hist: HeightHistogram, search_band: float) -> int:
    """Number of lowest bins whose centers lie in the search band."""
    centers = hist.bin_centers
    z_lo = float(hist.bin_edges[0])
    z_hi = float(hist.bin_edges[-1])
    cutoff = z_lo + search_band * (z_hi - z_lo)
    n = int(np.count_nonzero(centers <= cutoff))
    return n


def find_ground(hist: HeightHistogram, search_band: float = 0.25,
                mode: str = MODE_FIRST_PEAK,
                override_height: float | None = None) -> GroundEstimate:
    """Locate the ground height inside the lowest ``search_band`` fraction
    of the histogram span, or take it from ``override_height``.

    FIRST_PEAK scans upward for the first bin strictly greater than both
    neighbors and tall enough to matter (at least 10% of the band maximum,
    so stray low-tail points cannot pose as the ground); if the band has no
    such maximum the band's first global-maximum bin is used.  MID_PLATEAU
    finds the longest run of bins within 10% of the band's peak count and
    returns the run's middle bin, which recovers a usable reference when
    registration error smears the ground peak into a plateau.

    OVERRIDE pins the height to ``override_height`` and marks the bin whose
    center lies nearest it, so ``peak_bin`` is the histogram's ground bin
    in every mode.

    Confidence is the ground bin's count divided by the histogram's median
    count (infinite when the median bin is empty), so an override far from
    any peak reads low.
    """
    if not 0.0 < search_band <= 1.0:
        raise InvalidParameter(f"search_band must be in (0, 1], got {search_band}")
    if mode == MODE_OVERRIDE:
        if override_height is None or not math.isfinite(override_height):
            raise InvalidParameter("OVERRIDE ground mode needs a finite "
                                   f"override_height, got {override_height}")
        nearest = int(np.argmin(np.abs(hist.bin_centers - override_height)))
        return GroundEstimate(height=float(override_height), mode=mode,
                              peak_bin=nearest,
                              confidence=_confidence(hist, nearest))
    if mode not in (MODE_FIRST_PEAK, MODE_MID_PLATEAU):
        raise InvalidParameter(f"unknown ground mode {mode!r}")
    n_band = _band_bins(hist, search_band)
    if n_band == 0:
        raise EmptyBand("no histogram bins inside the search band")
    counts = hist.counts
    band = counts[:n_band]
    centers = hist.bin_centers

    height = None   # the bin center unless FIRST_PEAK refines it
    if mode == MODE_FIRST_PEAK:
        floor = PEAK_NOISE_FLOOR * float(band.max())
        peak_bin = None
        for i in range(n_band):
            if counts[i] < floor:
                continue
            left = counts[i - 1] if i > 0 else -np.inf
            right = counts[i + 1] if i + 1 < hist.n_bins else -np.inf
            if counts[i] > left and counts[i] > right:
                peak_bin = i
                lo = max(0, i - PEAK_CENTROID_HALF_WINDOW)
                hi = min(hist.n_bins, i + PEAK_CENTROID_HALF_WINDOW + 1)
                weight = counts[lo:hi].sum()
                if weight > 0:
                    height = float((counts[lo:hi] * centers[lo:hi]).sum() / weight)
                break
        if peak_bin is None:
            peak_bin = int(np.argmax(band))
    else:
        peak_count = float(band.max())
        qualify = band >= (1.0 - PLATEAU_TOLERANCE) * peak_count
        best_start, best_len = 0, 0
        run_start = None
        for i in range(n_band + 1):
            if i < n_band and qualify[i]:
                if run_start is None:
                    run_start = i
            elif run_start is not None:
                run_len = i - run_start
                if run_len > best_len:
                    best_start, best_len = run_start, run_len
                run_start = None
        peak_bin = (best_start + (best_start + best_len - 1)) // 2

    if height is None:
        height = float(centers[peak_bin])
    return GroundEstimate(height=height, mode=mode, peak_bin=int(peak_bin),
                          confidence=_confidence(hist, peak_bin))


def _confidence(hist: HeightHistogram, ground_bin: int) -> float:
    """The ground bin's count over the median bin count (infinite when the
    median bin is empty)."""
    median = float(np.median(hist.counts))
    return float(hist.counts[ground_bin] / median) if median > 0 else float("inf")


def calibrate(cloud: PointCloud, height: float,
              margin: float = 0.0) -> PointCloud:
    """Keep the points at least ``margin`` above the ground ``height`` and
    translate z by -height, so heights are measured from the ground itself.

    The margin raises the cut so near-ground noise is stripped along with
    the ground, without shaving the columns the volume integrates.
    """
    if not math.isfinite(height):
        raise InvalidParameter(f"ground height must be finite, got {height}")
    if not (math.isfinite(margin) and margin >= 0):
        raise InvalidParameter(f"margin must be finite and >= 0, got {margin}")
    keep = cloud.xyz[:, 2] - (height + margin) >= 0.0
    # one copy of the kept rows, shifted in place: the bytes of
    # cloud.select(keep).translated((0, 0, -height)), which copies them twice
    xyz = np.compress(keep, cloud.xyz, axis=0)
    return PointCloud._own(_add_to_columns(xyz, (0.0, 0.0, -height)))


def fine_filter(cloud: PointCloud, rparams: RadiusFilterParams) -> PointCloud:
    """Remove residual ground and clutter left after calibration.

    Radius outlier rejection followed by largest-component extraction
    (``denoise.robust_filter``).
    """
    return robust_filter(cloud, rparams)
