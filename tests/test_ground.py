"""Height histogram, smoothing, ground detection, calibration."""

import numpy as np
import pytest

from pilevol.cloud import PointCloud
from pilevol.denoise import RadiusFilterParams
from pilevol.errors import (
    DegenerateHeights,
    EmptyBand,
    EmptyCloud,
    InvalidParameter,
)
from pilevol.ground import (
    MODE_FIRST_PEAK,
    MODE_MID_PLATEAU,
    HeightHistogram,
    calibrate,
    find_ground,
    fine_filter,
    height_histogram,
    override_ground,
    smooth_histogram,
)


def cloud_with_z(z):
    z = np.asarray(z, dtype=float)
    return PointCloud(np.column_stack([np.zeros_like(z), np.zeros_like(z), z]))


def hist_from_counts(counts, lo=0.0, hi=1.0):
    counts = np.asarray(counts, dtype=float)
    edges = np.linspace(lo, hi, len(counts) + 1)
    return HeightHistogram(bin_edges=edges, counts=counts)


# ---------------------------------------------------------------------------
# height_histogram
# ---------------------------------------------------------------------------

def test_histogram_uniform_binomial_bounds():
    rng = np.random.default_rng(0)
    cloud = cloud_with_z(rng.uniform(0, 1, 1000))
    hist = height_histogram(cloud, 10)
    sigma = np.sqrt(1000 * 0.1 * 0.9)
    assert np.all(np.abs(hist.counts - 100) <= 2.58 * sigma + 1)
    assert hist.counts.sum() == 1000


def test_histogram_forced_range_single_bin():
    # points at 0 and 1 pin the bins to [0, 1]
    cloud = cloud_with_z([0.0] + [0.3] * 5 + [1.0])
    hist = height_histogram(cloud, 10)
    expected = np.zeros(10)
    expected[[0, 3, 9]] = [1, 5, 1]
    np.testing.assert_array_equal(hist.counts, expected)


def test_histogram_ground_peak_dominates():
    rng = np.random.default_rng(1)
    ground = rng.normal(0, 0.01, 10_000)
    r = rng.uniform(0, 1, 5000)
    cone = 0.5 * (1 - np.sqrt(r))         # cone surface heights over a disk
    cloud = cloud_with_z(np.concatenate([ground, cone]))
    hist = height_histogram(cloud, 64)
    peak = int(np.argmax(hist.counts))
    width = hist.bin_width
    assert abs(hist.bin_centers[peak]) <= width


def test_histogram_max_z_in_last_bin():
    cloud = cloud_with_z([0.0, 0.25, 1.0])
    hist = height_histogram(cloud, 4)
    assert hist.counts[-1] == 1
    assert hist.counts.sum() == 3


def test_histogram_errors():
    with pytest.raises(EmptyCloud):
        height_histogram(PointCloud.empty(), 8)
    with pytest.raises(DegenerateHeights):
        height_histogram(cloud_with_z([0.5, 0.5]), 8)
    with pytest.raises(InvalidParameter):
        height_histogram(cloud_with_z([0, 1]), 1)


# ---------------------------------------------------------------------------
# smooth_histogram
# ---------------------------------------------------------------------------

def test_smoothing_step_one_identity():
    hist = hist_from_counts([1, 5, 2, 8])
    assert smooth_histogram(hist, 1) is hist


def test_smoothing_hand_example():
    hist = hist_from_counts([0, 3, 6, 3, 0])
    out = smooth_histogram(hist, 3)
    np.testing.assert_allclose(out.counts, [3, 4, 3])
    assert out.n_bins == 3
    # edges trimmed by one bin at each end
    np.testing.assert_allclose(out.bin_edges, hist.bin_edges[1:-1])


def test_smoothing_matches_direct_convolution():
    rng = np.random.default_rng(5)
    counts = rng.integers(0, 50, 128).astype(float)
    hist = hist_from_counts(counts)
    out = smooth_histogram(hist, 5)
    expected = np.array([counts[i - 2:i + 3].mean() for i in range(2, 126)])
    np.testing.assert_allclose(out.counts, expected, atol=1e-12)
    # mass conservation up to the dropped edge windows
    interior = counts[2:126].sum()
    assert abs(out.counts.sum() - interior) <= 5 * counts.max()


def test_smoothing_validation():
    hist = hist_from_counts([1, 2, 3, 4])
    with pytest.raises(InvalidParameter):
        smooth_histogram(hist, 2)
    with pytest.raises(InvalidParameter):
        smooth_histogram(hist, 5)


# ---------------------------------------------------------------------------
# find_ground
# ---------------------------------------------------------------------------

def test_single_sharp_peak_both_modes_agree():
    counts = np.zeros(32)
    counts[4] = 100.0
    hist = hist_from_counts(counts)
    fp = find_ground(hist, 0.5, MODE_FIRST_PEAK)
    mp = find_ground(hist, 0.5, MODE_MID_PLATEAU)
    assert fp.peak_bin == mp.peak_bin == 4
    assert fp.height == mp.height == pytest.approx(hist.bin_centers[4])


def test_plateau_first_vs_mid():
    counts = np.ones(16)
    counts[3:8] = 50.0
    hist = hist_from_counts(counts)
    fp = find_ground(hist, 1.0, MODE_FIRST_PEAK)
    mp = find_ground(hist, 1.0, MODE_MID_PLATEAU)
    assert fp.peak_bin == 3          # no strict local max: first global max
    assert mp.peak_bin == 5          # middle of the run 3..7
    assert fp.height == pytest.approx(hist.bin_centers[3])
    assert mp.height == pytest.approx(hist.bin_centers[5])


def test_mid_plateau_equals_first_peak_for_single_bin_plateau():
    counts = np.ones(16)
    counts[6] = 40.0
    hist = hist_from_counts(counts)
    fp = find_ground(hist, 1.0, MODE_FIRST_PEAK)
    mp = find_ground(hist, 1.0, MODE_MID_PLATEAU)
    assert fp.peak_bin == mp.peak_bin == 6


def test_band_excludes_apex_peak():
    # ground bump near z=0 plus a taller count spike high up: the band keeps
    # the search below the apex
    rng = np.random.default_rng(3)
    ground = rng.normal(0.0, 0.01, 10_000)
    apex = rng.normal(0.55, 0.005, 15_000)
    cloud = cloud_with_z(np.concatenate([ground, apex]))
    hist = smooth_histogram(height_histogram(cloud, 128), 5)
    est = find_ground(hist, 0.25, MODE_FIRST_PEAK)
    assert abs(est.height) <= 2 * hist.bin_width


def test_translation_covariance():
    rng = np.random.default_rng(9)
    z = np.concatenate([rng.normal(0, 0.01, 5000), rng.uniform(0.05, 0.4, 3000)])
    shift = 0.173
    h1 = smooth_histogram(height_histogram(cloud_with_z(z), 128), 5)
    h2 = smooth_histogram(height_histogram(cloud_with_z(z + shift), 128), 5)
    g1 = find_ground(h1)
    g2 = find_ground(h2)
    assert abs((g2.height - g1.height) - shift) <= h1.bin_width


def test_noise_floor_skips_early_tail_wiggles():
    # a couple of stray counts below the real peak must not win
    counts = np.array([0, 2, 0, 1, 0, 5, 30, 80, 30, 5, 0, 0], dtype=float)
    hist = hist_from_counts(counts)
    est = find_ground(hist, 1.0, MODE_FIRST_PEAK)
    assert est.peak_bin == 7


def test_empty_band():
    hist = hist_from_counts(np.ones(8), lo=0.0, hi=1.0)
    with pytest.raises(EmptyBand):
        find_ground(hist, 1e-9)
    with pytest.raises(InvalidParameter):
        find_ground(hist, 0.0)
    with pytest.raises(InvalidParameter):
        find_ground(hist, 0.5, "NOT_A_MODE")


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def test_calibrate_drops_below_ground():
    cloud = cloud_with_z([-0.1, 0.0, 0.5])
    out = calibrate(cloud, override_ground(0.0), margin=0.0)
    np.testing.assert_allclose(sorted(out.xyz[:, 2]), [0.0, 0.5])


def test_calibrate_margin_shifts_and_drops():
    cloud = cloud_with_z([0.01, 0.5])
    out = calibrate(cloud, override_ground(0.0), margin=0.02)
    np.testing.assert_allclose(out.xyz[:, 2], [0.48])


def test_calibrate_matches_brute_force_threshold():
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.normal(0, 0.005, 20_000), rng.uniform(0, 0.5, 8000)])
    cloud = cloud_with_z(z)
    ground = 0.003
    margin = 0.007
    out = calibrate(cloud, override_ground(ground), margin)
    expected = z[z - (ground + margin) >= 0.0] - (ground + margin)
    assert len(out) == len(expected)
    np.testing.assert_allclose(np.sort(out.xyz[:, 2]), np.sort(expected))
    assert out.xyz[:, 2].min() >= 0.0


def test_calibrate_monotone_in_margin():
    rng = np.random.default_rng(12)
    cloud = cloud_with_z(rng.uniform(-0.1, 0.5, 5000))
    counts = [len(calibrate(cloud, override_ground(0.0), m))
              for m in (0.0, 0.01, 0.05, 0.2)]
    assert counts == sorted(counts, reverse=True)


def test_calibrate_rejects_negative_margin():
    with pytest.raises(InvalidParameter):
        calibrate(cloud_with_z([0.0]), override_ground(0.0), -0.01)


@pytest.mark.parametrize("margin", [float("nan"), float("inf")])
def test_calibrate_rejects_non_finite_margin(margin):
    # either would cut every point and return an empty cloud
    with pytest.raises(InvalidParameter):
        calibrate(cloud_with_z([0.0, 0.5]), override_ground(0.0), margin)


@pytest.mark.parametrize("height", [float("nan"), float("inf"), float("-inf")])
def test_override_ground_rejects_non_finite_height(height):
    # calibrating at such a height would cut every point and read 0 m3
    with pytest.raises(InvalidParameter):
        override_ground(height)


# ---------------------------------------------------------------------------
# fine_filter
# ---------------------------------------------------------------------------

def test_fine_filter_removes_stragglers():
    rng = np.random.default_rng(13)
    pile = rng.normal(0, 0.05, size=(1500, 3)) + [0, 0, 0.3]
    stragglers = np.column_stack([
        rng.uniform(-1, 1, 30), rng.uniform(-1, 1, 30), rng.uniform(0, 0.01, 30)
    ])
    cloud = PointCloud(np.vstack([pile, stragglers]))
    out = fine_filter(cloud, RadiusFilterParams(r0=0.05, n_min=4,
                                                min_cluster_size=50))
    assert len(out) >= 1400
    assert out.xyz[:, 2].min() > 0.05


def test_fine_filter_clean_pile_unchanged():
    rng = np.random.default_rng(14)
    pile = PointCloud(rng.normal(0, 0.04, size=(800, 3)) + [0, 0, 0.3])
    out = fine_filter(pile, RadiusFilterParams(r0=0.15, n_min=2,
                                               min_cluster_size=50))
    assert out == pile


def test_fine_filter_empty():
    out = fine_filter(PointCloud.empty(), RadiusFilterParams())
    assert len(out) == 0
