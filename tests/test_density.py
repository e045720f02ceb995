import math
import os
import signal
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import erf

from axicav import density
from axicav.cavity import BeamEnsemble
from axicav.density import (
    DEFAULT_BIN_WIDTH_M,
    DEFAULT_HISTOGRAM_MAX_M,
    EXPANSION_GUARD,
    RENDER_BLOCK_BEAMS,
    WINDOW_BLOCK_BEAMS,
    DetectorHistogram,
    GaussianProfile,
    GuardError,
    SplitProfileParams,
    bin_ensemble,
    deficit_with_broadening,
    density_deficit,
    gaussian_density,
    histogram_edges,
    integrate_window,
    profile_difference,
    single_pass_estimate,
    split_pair_density,
)

AMPLITUDE = 5e18
WAIST = 7.5e-4
PROFILE = GaussianProfile(AMPLITUDE, WAIST)


# --- analytic profiles -----------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        GaussianProfile(0.0, WAIST)
    with pytest.raises(ValueError):
        GaussianProfile(AMPLITUDE, -1e-3)
    with pytest.raises(ValueError):
        SplitProfileParams(-1e-9)


def test_gaussian_peak_and_falloff():
    assert gaussian_density(0.0, PROFILE) == AMPLITUDE
    # rms-width convention: one waist out is a factor exp(-1/2)
    assert gaussian_density(WAIST, PROFILE) == pytest.approx(
        AMPLITUDE * math.exp(-0.5), rel=1e-15
    )
    assert gaussian_density(2 * WAIST, PROFILE) == pytest.approx(
        AMPLITUDE * math.exp(-2.0), rel=1e-15
    )


def test_gaussian_center_shifts_the_peak():
    shifted = GaussianProfile(AMPLITUDE, WAIST, center_m=1e-4)
    assert gaussian_density(1e-4, shifted) == AMPLITUDE
    assert gaussian_density(0.0, shifted) < AMPLITUDE


def test_split_pair_reduces_to_halved_reference():
    xs = np.linspace(-3e-3, 3e-3, 101)
    plus, minus = split_pair_density(xs, PROFILE, SplitProfileParams(0.0, 0.0))
    ref = 0.5 * gaussian_density(xs, PROFILE)
    assert np.array_equal(plus, ref)
    assert np.array_equal(minus, ref)


def test_split_pair_peaks_sit_at_plus_minus_alpha():
    alpha = 5e-5
    xs = np.linspace(-3e-3, 3e-3, 6001)
    plus, minus = split_pair_density(xs, PROFILE, SplitProfileParams(alpha))
    assert abs(xs[np.argmax(plus)] - alpha) < 2e-6
    assert abs(xs[np.argmax(minus)] + alpha) < 2e-6


def test_split_pair_broadening_conserves_power():
    """The width grows to waist+epsilon but the r/(r+eps) peak rescaling
    keeps the integrated rate of the two branches at the reference value."""
    xs = np.linspace(-8 * WAIST, 8 * WAIST, 20001)
    plus, minus = split_pair_density(xs, PROFILE, SplitProfileParams(2e-5, 4e-5))
    total = np.trapezoid(plus + minus, xs)
    assert total == pytest.approx(AMPLITUDE * WAIST * math.sqrt(2 * math.pi), rel=1e-6)


def test_expansion_guard_trips_at_a_tenth_of_the_waist():
    SplitProfileParams(0.099 * WAIST).check_small(WAIST)
    with pytest.raises(GuardError):
        SplitProfileParams(EXPANSION_GUARD * WAIST).check_small(WAIST)
    with pytest.raises(GuardError):
        SplitProfileParams(1e-6, EXPANSION_GUARD * WAIST).check_small(WAIST)


# --- closed-form deficit ---------------------------------------------------


def test_deficit_is_zero_without_displacement():
    xs = np.linspace(0.0, 3e-3, 301)
    assert np.array_equal(density_deficit(xs, 0.0, PROFILE), np.zeros_like(xs))


def test_deficit_peak_value_at_the_axis():
    alpha = 0.01 * WAIST
    got = density_deficit(0.0, alpha, PROFILE)
    assert got == pytest.approx(AMPLITUDE * (alpha / WAIST) ** 2, rel=1e-12)


def test_deficit_is_continuous_near_the_axis():
    alpha = 5.6e-9
    a = density_deficit(0.0, alpha, PROFILE)
    b = density_deficit(1e-12, alpha, PROFILE)
    assert b == pytest.approx(a, rel=1e-9)


def test_deficit_changes_sign_once_near_the_crossover():
    """Photons leave the core and pile up in the shoulders; the closed form
    crosses zero near waist/sqrt(2)."""
    alpha = 0.02 * WAIST
    xs = np.linspace(0.0, 2.5 * WAIST, 1001)
    vals = density_deficit(xs, alpha, PROFILE)
    signs = np.sign(vals[np.abs(vals) > 0])
    flips = np.nonzero(np.diff(signs))[0]
    assert len(flips) == 1
    crossing = xs[flips[0]]
    assert abs(crossing - WAIST / math.sqrt(2)) < 0.05 * WAIST
    assert density_deficit(0.5 * WAIST, alpha, PROFILE) > 0
    assert density_deficit(WAIST, alpha, PROFILE) < 0


def test_deficit_guard_rejects_large_displacement():
    with pytest.raises(GuardError):
        density_deficit(0.0, 0.2 * WAIST, PROFILE)
    with pytest.raises(ValueError):
        density_deficit(0.0, -1e-9, PROFILE)


def test_deficit_matches_brute_force_within_one_percent():
    """Reference minus two displaced half-Gaussians of the same width
    convention, evaluated exactly, bounds the second-order closed form."""
    alpha = 0.01 * WAIST
    xs = np.linspace(0.0, 3 * WAIST, 601)
    brute_ref = AMPLITUDE * np.exp(-(xs**2) / WAIST**2)
    brute_pair = 0.5 * AMPLITUDE * (
        np.exp(-((xs - alpha) ** 2) / WAIST**2)
        + np.exp(-((xs + alpha) ** 2) / WAIST**2)
    )
    brute = brute_ref - brute_pair
    approx = density_deficit(xs, alpha, PROFILE)
    mask = np.abs(brute) > 1e-12 * np.abs(brute).max()
    rel = np.abs(approx[mask] - brute[mask]) / np.abs(brute[mask])
    assert rel.max() < 0.01


def test_broadened_deficit_reduces_exactly_at_zero_epsilon():
    xs = np.linspace(0.0, 3e-3, 301)
    alpha = 5.6e-9
    a = deficit_with_broadening(xs, alpha, 0.0, PROFILE)
    b = density_deficit(xs, alpha, PROFILE)
    assert np.array_equal(a, b)


def test_broadening_alone_depletes_the_axis():
    eps = 1e-5
    got = deficit_with_broadening(0.0, 0.0, eps, PROFILE)
    assert got == pytest.approx(AMPLITUDE * eps / WAIST, rel=1e-12)
    assert got > 0


def test_broadened_deficit_guards_both_parameters():
    with pytest.raises(GuardError):
        deficit_with_broadening(0.0, 0.2 * WAIST, 0.0, PROFILE)
    with pytest.raises(GuardError):
        deficit_with_broadening(0.0, 0.0, 0.2 * WAIST, PROFILE)


# --- single-pass estimate --------------------------------------------------


def test_single_pass_estimate_scales_quadratically():
    one = single_pass_estimate(1e-10, 14.0, WAIST)
    two = single_pass_estimate(2e-10, 14.0, WAIST)
    assert two == pytest.approx(4 * one, rel=1e-12)
    assert single_pass_estimate(0.0, 14.0, WAIST) == 0.0


def test_single_pass_estimate_reference_points():
    small = single_pass_estimate(2e-14, 14.0, WAIST)
    assert small == pytest.approx(0.11614814814814815, rel=1e-12)
    big = single_pass_estimate(4e-10, 14.0, WAIST)
    assert big == pytest.approx(46459259.25925927, rel=1e-12)


def test_single_pass_estimate_validates():
    with pytest.raises(ValueError):
        single_pass_estimate(-1e-10, 14.0, WAIST)
    with pytest.raises(ValueError):
        single_pass_estimate(1e-10, 0.0, WAIST)


# --- binning ---------------------------------------------------------------


def test_histogram_edges_default_layout():
    edges = histogram_edges()
    assert edges.size == 31
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(DEFAULT_HISTOGRAM_MAX_M, rel=1e-15)
    assert np.allclose(np.diff(edges), DEFAULT_BIN_WIDTH_M)


def test_histogram_edges_require_integer_bin_count():
    with pytest.raises(ValueError):
        histogram_edges(1e-4, 3.05e-3)
    with pytest.raises(ValueError):
        histogram_edges(-1e-4, 3e-3)


def test_histogram_validation():
    with pytest.raises(ValueError):
        DetectorHistogram(np.array([0.0, -1e-4]), np.array([1.0]))
    with pytest.raises(ValueError):
        DetectorHistogram(np.array([0.0, 1e-4, 2e-4]), np.array([1.0]))


def test_bin_single_beam_matches_erf_integral():
    from scipy.special import erf

    ens = BeamEnsemble([0.0], [0.0], [1.0])
    hist = bin_ensemble(ens, PROFILE)
    s = WAIST * math.sqrt(2.0)
    norm = AMPLITUDE * WAIST * math.sqrt(math.pi / 2.0)
    lo, hi = 0.0, DEFAULT_BIN_WIDTH_M
    expect = norm * (erf(hi / s) - erf(lo / s))
    assert hist.counts[0] == pytest.approx(expect, rel=1e-13)
    assert hist.n_bins == 30
    assert hist.bin_width_m == pytest.approx(DEFAULT_BIN_WIDTH_M, rel=1e-15)


def test_binned_total_recovers_the_gaussian_norm():
    edges = np.linspace(-8 * WAIST, 8 * WAIST, 241)
    ens = BeamEnsemble([0.0], [0.0], [1.0])
    hist = bin_ensemble(ens, PROFILE, edges)
    assert hist.signed_sum() == pytest.approx(
        AMPLITUDE * WAIST * math.sqrt(2 * math.pi), rel=1e-6
    )


def test_binned_total_is_independent_of_beam_position():
    edges = np.linspace(-8 * WAIST, 8 * WAIST, 241)
    at_zero = bin_ensemble(BeamEnsemble([0.0], [0.0], [1.0]), PROFILE, edges)
    shifted = bin_ensemble(BeamEnsemble([1e-4], [0.0], [1.0]), PROFILE, edges)
    assert shifted.signed_sum() == pytest.approx(at_zero.signed_sum(), rel=1e-9)


def test_exact_bin_integral_differs_from_midpoint_sampling():
    """The default bins are a small fraction of the waist, yet the curvature
    bias of midpoint sampling is well above the tolerance the growth series
    are held to; the erf form sidesteps it."""
    ens = BeamEnsemble([0.0], [0.0], [1.0])
    hist = bin_ensemble(ens, PROFILE)
    mid = 0.5 * (hist.edges_m[:-1] + hist.edges_m[1:])
    midpoint = gaussian_density(mid, PROFILE) * hist.bin_width_m
    rel = np.abs(midpoint - hist.counts) / hist.counts
    assert 1e-5 < rel.max() < 2e-2


def test_weighted_beams_superpose_linearly():
    edges = histogram_edges()
    pair = BeamEnsemble([1e-5, -1e-5], [0.0, 0.0], [0.5, 0.5])
    hist = bin_ensemble(pair, PROFILE, edges)
    plus = bin_ensemble(BeamEnsemble([1e-5], [0.0], [1.0]), PROFILE, edges)
    minus = bin_ensemble(BeamEnsemble([-1e-5], [0.0], [1.0]), PROFILE, edges)
    assert np.allclose(hist.counts, 0.5 * plus.counts + 0.5 * minus.counts, rtol=1e-13)


def _serial_terms(pos, w, lo, hi, profile):
    """Each beam's weighted integral over each window [lo, hi), all computed
    at once on the calling thread: the rendering formula before blocks and
    threads."""
    centers = np.asarray(pos, dtype=float) + profile.center_m
    s = profile.waist_m * math.sqrt(2.0)
    norm = profile.amplitude * profile.waist_m * math.sqrt(math.pi / 2.0)
    return w[:, None] * (
        norm * (erf((hi[None, :] - centers[:, None]) / s) - erf((lo[None, :] - centers[:, None]) / s))
    )


def _serial_fold(terms):
    """The rows added one after another in beam order."""
    counts = terms[0]
    for row in terms[1:]:
        counts = counts + row
    return counts


def _random_beams(n, seed=None):
    rng = np.random.default_rng(n if seed is None else seed)
    pos = rng.normal(scale=1e-3, size=n)
    w = rng.uniform(0.0, 2.0, n)  # deliberately not normalised
    return pos, w


@pytest.mark.parametrize(
    "n",
    [
        1,
        RENDER_BLOCK_BEAMS - 1,
        RENDER_BLOCK_BEAMS,
        RENDER_BLOCK_BEAMS + 1,
        3 * RENDER_BLOCK_BEAMS + 17,
        7 * RENDER_BLOCK_BEAMS + 5,  # more blocks than buffer slots
    ],
)
def test_blocked_rendering_is_bitwise_the_one_shot_integral(n):
    pos, w = _random_beams(n)
    profile = GaussianProfile(AMPLITUDE, WAIST, center_m=1e-5)
    edges = histogram_edges()
    hist = bin_ensemble(BeamEnsemble(pos, np.zeros(n), w), profile, edges)
    terms = _serial_terms(pos, w, edges[:-1], edges[1:], profile)
    assert np.array_equal(hist.counts, _serial_fold(terms))


@pytest.mark.parametrize("block_beams", [WINDOW_BLOCK_BEAMS, 1000])
def test_integrate_window_is_bitwise_the_one_shot_sum(block_beams, monkeypatch):
    """One sum over the whole column, whatever the blocks.  A sum per block
    would round differently in about one case in six, hence many cases."""
    monkeypatch.setattr(density, "WINDOW_BLOCK_BEAMS", block_beams)
    n = 3 * block_beams + 17  # more blocks than buffer slots on two CPUs
    for seed in range(8):
        pos, w = _random_beams(n, seed)
        ens = BeamEnsemble(pos, np.zeros(n), w)
        for lo, hi in [(-7e-4, 7e-4), (8e-4, 3e-3), (-3e-3, -1e-3)]:
            one_shot = _serial_terms(pos, w, np.array([lo]), np.array([hi]), PROFILE).sum(axis=0)
            assert integrate_window(ens, PROFILE, lo, hi) == float(one_shot[0])


def _render_on(threads, monkeypatch, ens, edges):
    pool = ThreadPoolExecutor(threads)
    monkeypatch.setattr(density, "_RENDER_POOL", pool)
    monkeypatch.setattr(density, "_RENDER_THREADS", threads)
    try:
        return bin_ensemble(ens, PROFILE, edges).counts, integrate_window(ens, PROFILE, -7e-4, 7e-4)
    finally:
        pool.shutdown()


def test_rendering_is_the_same_on_any_number_of_threads(monkeypatch):
    n = 3 * WINDOW_BLOCK_BEAMS + 17
    pos, w = _random_beams(n)
    ens = BeamEnsemble(pos, np.zeros(n), w)
    edges = histogram_edges()
    one_counts, one_window = _render_on(1, monkeypatch, ens, edges)
    many_counts, many_window = _render_on(3, monkeypatch, ens, edges)
    assert np.array_equal(one_counts, many_counts)
    assert one_window == many_window


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_forked_child_renders_on_a_fresh_pool():
    """The parent's render threads do not exist in a forked child; rendering
    there must not wait on them."""
    n = RENDER_BLOCK_BEAMS + 1  # two blocks, so the pool renders them
    pos, w = _random_beams(n)
    ens = BeamEnsemble(pos, np.zeros(n), w)
    expect = bin_ensemble(ens, PROFILE).counts  # starts the parent's threads
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through its exit code
        code = 1
        try:
            signal.alarm(10)
            code = 0 if np.array_equal(bin_ensemble(ens, PROFILE).counts, expect) else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_integrate_window_matches_bin_sums():
    ens = BeamEnsemble([2e-5, -1e-5], [0.0, 0.0], [0.5, 0.5])
    hist = bin_ensemble(ens, PROFILE)
    window = integrate_window(ens, PROFILE, 0.0, DEFAULT_HISTOGRAM_MAX_M)
    assert window == pytest.approx(float(np.sum(hist.counts)), rel=1e-12)
    with pytest.raises(ValueError):
        integrate_window(ens, PROFILE, 1e-3, 1e-3)


def test_split_ensemble_loses_center_and_gains_shoulders():
    alpha = 1e-5
    ref = BeamEnsemble([0.0], [0.0], [1.0])
    pair = BeamEnsemble([alpha, -alpha], [0.0, 0.0], [0.5, 0.5])
    core_ref = integrate_window(ref, PROFILE, -7e-4, 7e-4)
    core_pair = integrate_window(pair, PROFILE, -7e-4, 7e-4)
    assert core_ref > core_pair
    tail_ref = integrate_window(ref, PROFILE, 8e-4, 3e-3)
    tail_pair = integrate_window(pair, PROFILE, 8e-4, 3e-3)
    assert tail_pair > tail_ref


def test_profile_difference_signs_and_validation():
    ref = bin_ensemble(BeamEnsemble([0.0], [0.0], [1.0]), PROFILE)
    pair = bin_ensemble(
        BeamEnsemble([1e-5, -1e-5], [0.0, 0.0], [0.5, 0.5]), PROFILE
    )
    diff = profile_difference(ref, pair)
    assert diff.counts[0] > 0  # central loss is positive
    assert diff.counts[-1] < 0  # far shoulder gain is negative
    same = profile_difference(ref, ref)
    assert np.array_equal(same.counts, np.zeros(30))
    other = bin_ensemble(
        BeamEnsemble([0.0], [0.0], [1.0]), PROFILE, histogram_edges(1e-4, 2e-3)
    )
    with pytest.raises(ValueError):
        profile_difference(ref, other)


def test_csv_rows_cover_every_bin():
    hist = bin_ensemble(BeamEnsemble([0.0], [0.0], [1.0]), PROFILE)
    rows = list(hist.to_csv_rows())
    assert len(rows) == 30
    assert rows[0][0] == 0.0
    assert rows[-1][1] == pytest.approx(3e-3, rel=1e-15)
    assert rows[0][2] == hist.counts[0]


def test_doubled_absolute_total():
    hist = DetectorHistogram(np.array([0.0, 1e-4, 2e-4]), np.array([3.0, -1.0]))
    assert hist.doubled_absolute_total() == 8.0
    assert hist.signed_sum() == 2.0
