import math
import warnings
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from oracles import gaussian_density

from axicav import cli, density
from axicav.cavity import BeamEnsemble, CavityConfig, axial_beam, run
from axicav.density import (
    DEFAULT_BIN_WIDTH_M,
    DEFAULT_HISTOGRAM_MAX_M,
    MAX_ORDER,
    DetectorHistogram,
    GaussianProfile,
    GuardError,
    bin_ensemble,
    deficit,
    histogram_edges,
    integrate_window,
    profile_difference,
    single_pass_estimate,
)
from axicav.scenario import load_preset

AMPLITUDE = 5e18
WAIST = 7.5e-4
PROFILE = GaussianProfile(AMPLITUDE, WAIST)


# --- analytic profiles -----------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        GaussianProfile(0.0, WAIST)
    with pytest.raises(ValueError):
        GaussianProfile(AMPLITUDE, -1e-3)


def test_gaussian_peak_and_falloff():
    assert gaussian_density(0.0, PROFILE) == AMPLITUDE
    # rms-width convention: one waist out is a factor exp(-1/2)
    assert gaussian_density(WAIST, PROFILE) == pytest.approx(
        AMPLITUDE * math.exp(-0.5), rel=1e-15
    )
    assert gaussian_density(2 * WAIST, PROFILE) == pytest.approx(
        AMPLITUDE * math.exp(-2.0), rel=1e-15
    )


# --- the split-pair deficit --------------------------------------------------


def _exact_deficit(x, alpha, eps, profile=PROFILE):
    """The split-pair deficit at 50 digits, straight from its definition:
    reference A e^{-x^2/r^2} minus two half-weight beams at +-alpha of
    width w = sqrt(r (r + eps)) and peak r^2/w^2, with r = sqrt(2) times
    the profile's rms width."""
    with mp.workdps(50):
        x, a, e, r = (mp.mpf(float(v)) for v in (x, alpha, eps, profile.waist_m))
        r *= mp.sqrt(2)
        w2 = r * (r + e)
        pair = (r * r / w2) * (mp.exp(-((x - a) ** 2) / w2) + mp.exp(-((x + a) ** 2) / w2)) / 2
        return mp.mpf(profile.amplitude) * (mp.exp(-x * x / (r * r)) - pair)


def _paper_deficit(x, alpha, eps, profile=PROFILE):
    """The paper's form at 50 digits: second order in alpha/r, first in eps/r,

        A e^{-x^2/r^2} [1 - ((r-eps)/r) e^{x^2 eps/r^3} (1 - alpha^2/r^2) cosh(2 alpha x/r^2)],

    r = sqrt(2) times the profile's rms width."""
    with mp.workdps(50):
        x, a, e, r = (mp.mpf(float(v)) for v in (x, alpha, eps, profile.waist_m))
        r *= mp.sqrt(2)
        inner = ((r - e) / r) * mp.exp(x * x * e / r**3) * (1 - a * a / (r * r)) * mp.cosh(2 * a * x / (r * r))
        return mp.mpf(profile.amplitude) * mp.exp(-x * x / (r * r)) * (1 - inner)


PROFILE_GRID = np.linspace(0.0, 3e-3, 121)  # the `profile` verb's default grid
ALPHA_OVER_R = [0.0, 1e-8, 7.5e-6, 1e-3, 0.09, 0.3, 2.0, 20.0]
EPSILON_OVER_R = [0.0, 1e-6, 1e-3, 0.5, 5.0]


@pytest.mark.parametrize("eps_r", EPSILON_OVER_R)
@pytest.mark.parametrize("alpha_r", ALPHA_OVER_R)
def test_deficit_matches_the_mpmath_model(alpha_r, eps_r):
    """Every value of the default grid is within 4e-15 of the curve's
    largest |D| of the model evaluated at 50 digits, from a split far below
    the roundoff of the reference (alpha/r = 1e-8) to pairs twenty waists
    apart, and raises no RuntimeWarning on the way."""
    alpha, eps = alpha_r * WAIST, eps_r * WAIST
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = deficit(PROFILE_GRID, alpha, eps, PROFILE)
    exact = [_exact_deficit(x, alpha, eps) for x in PROFILE_GRID]
    scale = max(abs(v) for v in exact)
    err = max(abs(float(g) - v) for g, v in zip(got, exact))
    assert err <= 4e-15 * scale


@pytest.mark.parametrize("eps_r", [e for e in EPSILON_OVER_R if e <= 1e-2])
@pytest.mark.parametrize("alpha_r", [a for a in ALPHA_OVER_R if a <= 0.09])
def test_deficit_has_the_paper_form_as_its_small_split_limit(alpha_r, eps_r):
    """The paper's second-order form is the exact curve's limit: the two
    differ by at most ((alpha/r)^2 + 2 eps/r) of the curve's largest |D|.
    At alpha/r = 1e-8 and eps = 0 that truncation bound (1e-16) is below the
    curve's own float64 roundoff, so the bound carries the 4e-15 of
    test_deficit_matches_the_mpmath_model as well."""
    alpha, eps = alpha_r * WAIST, eps_r * WAIST
    got = deficit(PROFILE_GRID, alpha, eps, PROFILE)
    scale = max(abs(_exact_deficit(x, alpha, eps)) for x in PROFILE_GRID)
    err = max(abs(float(g) - _paper_deficit(x, alpha, eps)) for g, x in zip(got, PROFILE_GRID))
    assert err <= (alpha_r**2 + 2 * eps_r + 4e-15) * scale


def test_deficit_is_zero_without_displacement():
    xs = np.linspace(0.0, 3e-3, 301)
    got = deficit(xs, 0.0, 0.0, PROFILE)
    assert np.array_equal(got, np.zeros_like(xs))
    assert not np.any(np.signbit(got))  # +0, not -0


def test_deficit_peak_value_at_the_axis():
    """At x = 0 the pair sits alpha out on either side: D = -A expm1(-alpha^2/r^2),
    the paper's A alpha^2/r^2 to second order, with r^2 = 2 waist^2."""
    alpha = 0.01 * WAIST
    got = deficit(0.0, alpha, 0.0, PROFILE)
    assert got == pytest.approx(-AMPLITUDE * math.expm1(-0.5 * (alpha / WAIST) ** 2), rel=1e-15)
    assert got == pytest.approx(0.5 * AMPLITUDE * (alpha / WAIST) ** 2, rel=1e-4)


def test_deficit_is_continuous_near_the_axis():
    alpha = 5.6e-9
    a = deficit(0.0, alpha, 0.0, PROFILE)
    b = deficit(1e-12, alpha, 0.0, PROFILE)
    assert b == pytest.approx(a, rel=1e-9)


def test_deficit_is_even_in_x():
    xs = np.linspace(0.0, 3e-3, 61)
    assert np.array_equal(deficit(-xs, 1e-5, 2e-6, PROFILE), deficit(xs, 1e-5, 2e-6, PROFILE))


def test_deficit_changes_sign_once_near_the_crossover():
    """Photons leave the core and pile up in the shoulders; the curve
    crosses zero near the rms width, r/sqrt(2) for the 1/e half-width r."""
    alpha = 0.02 * WAIST
    xs = np.linspace(0.0, 2.5 * WAIST, 1001)
    vals = deficit(xs, alpha, 0.0, PROFILE)
    signs = np.sign(vals[np.abs(vals) > 0])
    flips = np.nonzero(np.diff(signs))[0]
    assert len(flips) == 1
    crossing = xs[flips[0]]
    assert abs(crossing - WAIST) < 0.05 * WAIST
    assert deficit(0.9 * WAIST, alpha, 0.0, PROFILE) > 0
    assert deficit(1.1 * WAIST, alpha, 0.0, PROFILE) < 0


def test_deficit_refuses_negative_and_non_finite_splits():
    for alpha, eps in [(-1e-9, 0.0), (0.0, -1e-9), (math.nan, 0.0), (0.0, math.inf)]:
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            deficit(0.0, alpha, eps, PROFILE)


def test_deficit_far_from_the_axis_stays_finite():
    """A waist far below the grid's reach puts the pair's exponentials past
    the float range of e^{-x^2/r^2} expm1(L); the far-field form gives
    the model's value there, with no RuntimeWarning."""
    narrow = GaussianProfile(AMPLITUDE, 1e-5)
    xs = np.linspace(0.0, 3e-3, 121)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = deficit(xs, 1e-4, 2e-6, narrow)
    exact = [_exact_deficit(x, 1e-4, 2e-6, narrow) for x in xs]
    err = max(abs(float(g) - v) for g, v in zip(got, exact))
    assert err <= 4e-15 * max(abs(v) for v in exact)


def test_deficit_computes_without_overflow_at_any_distance():
    """Past alpha + 40 w both Gaussians underflow, so D is +0 there; the
    squares of |x| up to 1e308 and beyond must not overflow on the way."""
    xs = np.array([0.0, 1e-3, 1e150, 1e154, 5e199, 1e200, 1.7e308, math.inf])
    for alpha, eps in [(1e-5, 1e-6), (1e-5, 0.0), (0.0, 1e-6), (0.0, 0.0)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = deficit(xs, alpha, eps, PROFILE)
        exact = [float(_exact_deficit(x, alpha, eps)) for x in xs[:2]]
        assert np.all(np.abs(got[:2] - exact) <= 4e-15 * abs(exact[0]))
        assert np.array_equal(got[2:], np.zeros(6)) and not np.signbit(got[2:]).any()


def test_paper_form_matches_brute_force_within_one_percent():
    """Reference minus two displaced half-Gaussians of the same width
    convention, evaluated exactly, bounds the paper's second-order form."""
    r = math.sqrt(2) * WAIST  # the 1/e half-width
    alpha = 0.01 * r
    xs = np.linspace(0.0, 3 * r, 601)
    brute_ref = AMPLITUDE * np.exp(-(xs**2) / r**2)
    brute_pair = 0.5 * AMPLITUDE * (
        np.exp(-((xs - alpha) ** 2) / r**2)
        + np.exp(-((xs + alpha) ** 2) / r**2)
    )
    brute = brute_ref - brute_pair
    approx = np.array([float(_paper_deficit(x, alpha, 0.0)) for x in xs])
    mask = np.abs(brute) > 1e-12 * np.abs(brute).max()
    rel = np.abs(approx[mask] - brute[mask]) / np.abs(brute[mask])
    assert rel.max() < 0.01


def test_broadening_alone_depletes_the_axis():
    """With alpha = 0 the axis keeps r^2/w^2 = r/(r + eps) of the reference,
    r = sqrt(2) waist."""
    eps = 1e-5
    got = deficit(0.0, 0.0, eps, PROFILE)
    assert got == pytest.approx(AMPLITUDE * eps / (math.sqrt(2) * WAIST + eps), rel=1e-15)
    assert got > 0


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
        DetectorHistogram(np.array([0.0, -1e-4]), np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        DetectorHistogram(np.array([0.0, 1e-4, 2e-4]), np.array([1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        DetectorHistogram(np.array([0.0, 1e-4, 2e-4]), np.array([1.0, 2.0]), np.array([0.0]))


def test_bin_single_beam_matches_erf_integral():
    from scipy.special import erf

    ens = BeamEnsemble([0.0], [0.0], [1.0])
    hist = bin_ensemble(ens, PROFILE)
    s = WAIST * math.sqrt(2.0)
    norm = AMPLITUDE * WAIST * math.sqrt(math.pi / 2.0)
    lo, hi = 0.0, DEFAULT_BIN_WIDTH_M
    expect = norm * (erf(hi / s) - erf(lo / s))
    assert hist.counts[0] == pytest.approx(expect, rel=1e-13)
    assert hist.counts.size == 30
    assert hist.edges_m[1] - hist.edges_m[0] == pytest.approx(DEFAULT_BIN_WIDTH_M, rel=1e-15)


def test_binned_total_recovers_the_gaussian_norm():
    edges = np.linspace(-8 * WAIST, 8 * WAIST, 241)
    ens = BeamEnsemble([0.0], [0.0], [1.0])
    hist = bin_ensemble(ens, PROFILE, edges)
    assert math.fsum(hist.counts.tolist()) == pytest.approx(
        AMPLITUDE * WAIST * math.sqrt(2 * math.pi), rel=1e-6
    )


def test_binned_total_is_independent_of_beam_position():
    edges = np.linspace(-8 * WAIST, 8 * WAIST, 241)
    at_zero = bin_ensemble(BeamEnsemble([0.0], [0.0], [1.0]), PROFILE, edges)
    shifted = bin_ensemble(BeamEnsemble([1e-4], [0.0], [1.0]), PROFILE, edges)
    assert math.fsum(shifted.counts.tolist()) == pytest.approx(
        math.fsum(at_zero.counts.tolist()), rel=1e-9
    )


def test_exact_bin_integral_differs_from_midpoint_sampling():
    """The default bins are a small fraction of the waist, yet the curvature
    bias of midpoint sampling is well above the tolerance the growth series
    are held to; the erf form sidesteps it."""
    ens = BeamEnsemble([0.0], [0.0], [1.0])
    hist = bin_ensemble(ens, PROFILE)
    mid = 0.5 * (hist.edges_m[:-1] + hist.edges_m[1:])
    midpoint = gaussian_density(mid, PROFILE) * np.diff(hist.edges_m)
    rel = np.abs(midpoint - hist.counts) / hist.counts
    assert 1e-5 < rel.max() < 2e-2


def test_weighted_beams_superpose_linearly():
    edges = histogram_edges()
    pair = BeamEnsemble([1e-5, -1e-5], [0.0, 0.0], [0.5, 0.5])
    hist = bin_ensemble(pair, PROFILE, edges)
    plus = bin_ensemble(BeamEnsemble([1e-5], [0.0], [1.0]), PROFILE, edges)
    minus = bin_ensemble(BeamEnsemble([-1e-5], [0.0], [1.0]), PROFILE, edges)
    assert np.allclose(hist.counts, 0.5 * plus.counts + 0.5 * minus.counts, rtol=1e-13)


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


def test_histogram_edges_cover_every_bin():
    hist = bin_ensemble(BeamEnsemble([0.0], [0.0], [1.0]), PROFILE)
    assert hist.edges_m.shape == (31,) and hist.counts.shape == (30,)
    assert hist.edges_m[0] == 0.0
    assert hist.edges_m[-1] == pytest.approx(3e-3, rel=1e-15)


def test_histogram_counts_are_axial_plus_deviation():
    hist = DetectorHistogram(np.array([0.0, 1e-4, 2e-4]), np.array([2.0, 1.0]), np.array([1.0, -2.0]))
    assert np.array_equal(hist.counts, [3.0, -1.0])
    assert 2.0 * float(np.sum(np.abs(hist.counts))) == 8.0  # both detector halves
    assert math.fsum(hist.counts.tolist()) == 2.0


_EDGES = "finite and strictly ascending"


@pytest.mark.parametrize("edges, axial, deviation, match", [
    ([0.0, math.nan, 1e-4], None, None, _EDGES), ([0.0, 1e-4, math.inf], None, None, _EDGES),
    ([-math.inf, 0.0, 1e-4], None, None, _EDGES), ([0.0, 1e-4, 1e-4], None, None, _EDGES),
    ([0.0, 2e-4, 1e-4], None, None, _EDGES), ([0.0], None, None, _EDGES),
    ([0.0, 1e-4], [math.nan], None, "axial must be finite"),
    ([0.0, 1e-4], None, [math.inf], "deviation must be finite"),
    ([0.0, 1e-4, 2e-4], None, [0.0, -math.inf], "deviation must be finite"),
], ids=["nan", "inf", "-inf", "repeated", "descending", "no-bin",
        "nan-axial", "inf-deviation", "-inf-deviation"])
def test_histogram_refuses_bad_edges_and_non_finite_rates(edges, axial, deviation, match):
    """One edge rule for histograms and windows: finite, strictly
    ascending, at least one bin.  The rates in the bins must be finite."""
    zeros = [0.0] * max(len(edges) - 1, 0)
    with pytest.raises(ValueError, match=match):
        DetectorHistogram(edges, zeros if axial is None else axial,
                          zeros if deviation is None else deviation)


# --- the moment series -------------------------------------------------------


@pytest.mark.parametrize("lo, hi", [
    (math.nan, 1e-3), (-1e-3, math.nan), (-math.inf, 1e-3), (-1e-3, math.inf),
    (1e-3, 1e-3), (1e-3, -1e-3),
])
def test_window_edges_must_be_finite_and_ascending(lo, hi):
    ens = BeamEnsemble([1e-6, -1e-6], [0.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="finite and strictly ascending"):
        integrate_window(ens, PROFILE, lo, hi)
    with pytest.raises(ValueError, match="finite and strictly ascending"):
        bin_ensemble(ens, PROFILE, [0.0, lo, hi] if lo > 0 else [lo, hi])


def _neighbours(x):
    return {x, float(np.nextafter(x, -math.inf)), float(np.nextafter(x, math.inf))}


@pytest.mark.parametrize("n", [1, 2, 6, 7, 4094, 4095, 50_000])
def test_exact_sum_is_faithful(n):
    """Within one rounding of the exact sum (math.fsum rounds it correctly),
    however much the terms cancel."""
    rng = np.random.default_rng(n)
    spread = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n)
    mirrored = np.concatenate([spread, -spread[::-1]])
    nearly = np.append(mirrored, 1e-40)
    for p in (spread, mirrored, nearly, np.append(spread, -math.fsum(spread))):
        assert density._exact_sum(p) in _neighbours(math.fsum(p.tolist()))
    assert density._exact_sum(mirrored) == 0.0


def test_two_product_is_error_free():
    """Each product and its error add up to the exact product, signs and
    scales mixed."""
    rng = np.random.default_rng(24)
    a = rng.normal(size=2000) * 10.0 ** rng.integers(-20, 5, 2000)
    b = rng.normal(size=2000) * 10.0 ** rng.integers(-20, 5, 2000)
    a[:3], b[:3] = [0.0, -0.0, 1.0], [5.0, 1e-3, -0.0]
    out = density._two_product(a, b)
    for x, y, p, e in zip(a.tolist(), b.tolist(), out[:2000].tolist(), out[2000:].tolist()):
        assert p == x * y and Fraction(p) + Fraction(e) == Fraction(x) * Fraction(y)


def test_moments_are_read_once_per_waist():
    ens = BeamEnsemble([2e-5, -1e-5], [0.0, 0.0], [0.25, 0.75])
    m = density.moments(ens, WAIST)
    assert density.moments(ens, WAIST) is m
    assert density.moments(ens, 2 * WAIST) is not m
    assert m[0] == 0.0  # the weights sum to one unit beam
    assert m[1] == pytest.approx((0.25 * 2e-5 - 0.75 * 1e-5) / WAIST, rel=1e-15)


def test_series_order_grows_with_the_spread_and_is_capped():
    assert density.moments(BeamEnsemble([0.0], [0.0], [1.0]), WAIST).size == 3
    wide = density.moments(BeamEnsemble([0.5 * WAIST], [0.0], [1.0]), WAIST)
    assert 3 < wide.size <= MAX_ORDER + 1
    too_wide = BeamEnsemble([1.5 * WAIST], [0.0], [1.0])
    with pytest.raises(GuardError, match=f"more than {MAX_ORDER} terms"):
        bin_ensemble(too_wide, PROFILE)


def test_a_wide_beam_renders_as_its_own_gaussian():
    """At half a waist off the axis the series runs to a high order; the
    rate is still the beam's Gaussian integral."""
    from mpmath import mp

    mp.dps = 40
    x0 = 0.5 * WAIST
    hist = bin_ensemble(BeamEnsemble([x0], [0.0], [1.0]), PROFILE)
    s = mp.mpf(WAIST) * mp.sqrt(2)
    norm = AMPLITUDE * mp.mpf(WAIST) * mp.sqrt(mp.pi / 2)
    edges = hist.edges_m.tolist()
    for lo, hi, got in zip(edges[:-1], edges[1:], hist.counts.tolist()):
        expect = norm * (mp.erf((hi - mp.mpf(x0)) / s) - mp.erf((lo - mp.mpf(x0)) / s))
        assert abs(got - expect) <= 1e-12 * expect


# one beam at max|x|/r = rho needs the orders 20, 21, ..., 32 of the series
HIGH_ORDER_RHOS = [0.4, 0.45, 0.5, 0.55, 0.6, 0.67, 0.72, 0.8, 0.85, 0.9, 0.97, 1.03, 1.1]


def test_rates_past_order_20_are_float_and_match_the_oracle():
    """Past 20! the factorials no longer fit an int64; the deviation stays a
    float64 array, its bytes repeat from call to call, and each bin's rate
    matches the 40-digit oracle of tests/test_oracle.py (the deviation alone
    changes sign between the axis and the beam, where no relative bound
    holds)."""
    from test_oracle import PROFILE as ORACLE_PROFILE, _assert_close, _oracle_deviation

    edges = histogram_edges()
    s = mp.mpf(ORACLE_PROFILE.waist_m) * mp.sqrt(2)
    scale = ORACLE_PROFILE.amplitude * s * mp.sqrt(mp.pi) / 2
    axial = [scale * (mp.erf(hi / s) - mp.erf(lo / s)) for lo, hi in zip(edges[:-1], edges[1:])]
    orders = []
    for rho in HIGH_ORDER_RHOS:
        ens = BeamEnsemble([rho * ORACLE_PROFILE.waist_m], [0.0], [1.0])
        orders.append(density.moments(ens, ORACLE_PROFILE.waist_m).size - 1)
        got_axial, deviation = density.rates(ens, ORACLE_PROFILE, edges)
        assert deviation.dtype == np.float64
        assert density.rates(ens, ORACLE_PROFILE, edges)[1].tobytes() == deviation.tobytes()
        want = [a + d for a, d in zip(axial, _oracle_deviation(ens, edges, direct=True))]
        _assert_close(got_axial + deviation, want, f"rho={rho}")
    assert orders == list(range(20, 33))


def test_null_run_deviates_by_exact_zeros():
    res = run(CavityConfig(n_traversals=3, theta_split_rad=0.0))
    for snap in res.snapshots:
        hist = bin_ensemble(snap.ensemble, PROFILE)
        assert np.array_equal(hist.deviation, np.zeros(30))
        assert not np.any(np.signbit(hist.deviation))


# --- the mirror rule of `moments` --------------------------------------------

CONFOCAL = load_preset("confocal").cavity
BNL_QUAD = load_preset("bnl-quad").cavity
MIRRORED_RUNS = {
    "confocal": replace(CONFOCAL, n_traversals=12),
    "confocal-0.9theta": replace(CONFOCAL, n_traversals=12, theta_split_rad=0.9 * CONFOCAL.theta_split_rad),
    "confocal-1.1theta": replace(CONFOCAL, n_traversals=12, theta_split_rad=1.1 * CONFOCAL.theta_split_rad),
    "bnl-quad": replace(BNL_QUAD, n_traversals=40),
    "coarse-tolerance": replace(CONFOCAL, n_traversals=10, coalesce_tol_position_m=1e-9,
                                coalesce_tol_angle_rad=1e-10),
}


def _odd_sized_mirrored():
    """Mirrored ensembles with a beam on the axis, at +0 and at -0."""
    return [
        axial_beam(),
        BeamEnsemble([-2e-5, 0.0, 2e-5], [1e-7, 0.0, -1e-7], [0.25, 0.5, 0.25]),
        BeamEnsemble([-3e-5, -1e-6, -0.0, 1e-6, 3e-5], [0.0] * 5, [0.1, 0.3, 0.2, 0.3, 0.1]),
    ]


def _moment_bits(ens, monkeypatch, mirror_check):
    """The moments' bytes, with the mirror check as it is or forced off."""
    with monkeypatch.context() as patch:
        if not mirror_check:
            patch.setattr(density, "_is_mirrored", lambda positions, weights: False)
        ens.moment_memo.clear()
        bits = density.moments(ens, WAIST).tobytes()
    ens.moment_memo.clear()
    return bits


@pytest.mark.parametrize("case", [*MIRRORED_RUNS, "odd-sized"])
def test_mirrored_moments_are_bitwise_the_exact_sums(case, monkeypatch):
    """Every snapshot of these runs is its own mirror image, and its odd
    moments set to 0.0 are bitwise what the exact sums return."""
    if case == "odd-sized":
        ensembles = _odd_sized_mirrored()
    else:
        ensembles = [snap.ensemble for snap in run(MIRRORED_RUNS[case]).snapshots]
    for ens in ensembles:
        assert density._is_mirrored(ens.positions, ens.weights)
        assert _moment_bits(ens, monkeypatch, True) == _moment_bits(ens, monkeypatch, False)


def _exact_sums_per_ensemble(monkeypatch, ensembles):
    """How many times `moments` calls `_exact_sum` on each ensemble."""
    sizes = []
    exact_sum = density._exact_sum
    monkeypatch.setattr(density, "_exact_sum", lambda p: sizes.append(p.size) or exact_sum(p))
    counts = []
    for ens in ensembles:
        del sizes[:]
        ens.moment_memo.clear()
        m = density.moments(ens, WAIST)
        assert sizes[0] == len(ens) + 1  # the weight, with the unit beam taken off
        counts.append((len(sizes), m.size - 1))
    return counts


def test_asymmetric_ensembles_take_the_exact_sums(monkeypatch):
    """An off-axis start, late bnl-quad snapshots off the preset split
    (asymmetric merges), and a mirrored ensemble with one position or one
    weight moved by one ulp are summed exactly at every odd order, and
    still match the forced-off path bitwise."""
    rng = np.random.default_rng(7)
    half = np.sort(rng.uniform(1e-6, 3e-5, 500))
    x = np.concatenate([-half[::-1], half])
    w = np.full(1000, 1e-3)
    x_moved, w_moved = x.copy(), w.copy()
    x_moved[700] = np.nextafter(x[700], math.inf)
    w_moved[300] = np.nextafter(w[300], math.inf)
    assert density._is_mirrored(x, w)
    off_axis = BeamEnsemble([3e-5, -1e-5], [2e-7, -1e-7], [0.25, 0.75])
    bnl = run(replace(BNL_QUAD, n_traversals=40, theta_split_rad=1.1 * BNL_QUAD.theta_split_rad))
    late = [s.ensemble for s in bnl.snapshots
            if not density._is_mirrored(s.ensemble.positions, s.ensemble.weights)]
    assert late  # 4 of the 20 snapshots at 1.1 times the preset split
    ensembles = [off_axis, BeamEnsemble(x_moved, np.zeros(1000), w),
                 BeamEnsemble(x, np.zeros(1000), w_moved), *late]
    for ens in ensembles:
        assert not density._is_mirrored(ens.positions, ens.weights)
    for calls, order in _exact_sums_per_ensemble(monkeypatch, ensembles):
        assert calls == 1 + (order + 1) // 2  # the weight and every odd order
    monkeypatch.undo()
    for ens in ensembles:
        assert _moment_bits(ens, monkeypatch, True) == _moment_bits(ens, monkeypatch, False)


def test_confocal_simulate_sums_only_the_weights_exactly(tmp_path, monkeypatch):
    """A confocal `simulate` reads each snapshot's moments once, and each
    snapshot is mirrored, so `_exact_sum` runs once per snapshot, on its
    weights."""
    sizes, checked = [], []
    exact_sum, is_mirrored = density._exact_sum, density._is_mirrored
    monkeypatch.setattr(density, "_exact_sum", lambda p: sizes.append(p.size) or exact_sum(p))
    monkeypatch.setattr(density, "_is_mirrored",
                        lambda x, w: checked.append(x.size) or is_mirrored(x, w))
    assert cli.main(["--preset", "confocal", "--override", "cavity.n_traversals=8",
                     "--out", str(tmp_path), "simulate"]) == 0
    assert checked == [2**n for n in range(1, 9)]
    assert sizes == [n + 1 for n in checked]


# --- one window table per windows, waist and order ------------------------------


def _all_rates(ensembles, profile=PROFILE):
    """The bins and the central and sideband pixels of every ensemble, as
    the bytes of their values."""
    windows = [histogram_edges(), (-1e-6, 1e-6), (3.299e-3, 3.301e-3)]
    return [b"".join(part.tobytes() for edges in windows
                     for part in density.rates(ens, profile, edges)) for ens in ensembles]


def test_window_tables_from_a_cold_and_a_warm_cache_agree():
    ensembles = [s.ensemble for s in run(replace(CONFOCAL, n_traversals=10)).snapshots]
    ensembles.append(BeamEnsemble([0.5 * WAIST], [0.0], [1.0]))  # a high order
    cold = []
    for ens in ensembles:
        density._window_table.cache_clear()
        cold += _all_rates([ens])
    assert _all_rates(ensembles) == cold
    assert density._window_table.cache_info().hits > 0


def test_window_tables_are_read_only():
    change, mass = density._window_table(histogram_edges().tobytes(), WAIST, 4)
    assert change.shape == (4, 30) and mass.shape == (30,)
    for table in (change, mass):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
    axial, deviation = density.rates(axial_beam(), PROFILE, histogram_edges())
    assert axial.flags.writeable and deviation.flags.writeable


def test_window_tables_are_kept_per_waist_and_order():
    """Two waists or two orders over the same edges build two tables, and
    each rate matches the one computed from an empty cache."""
    near = BeamEnsemble([-1e-6, 1e-6], [0.0, 0.0], [0.5, 0.5])
    wide = BeamEnsemble([-0.3 * WAIST, 0.3 * WAIST], [0.0, 0.0], [0.5, 0.5])
    assert density.moments(near, WAIST).size != density.moments(wide, WAIST).size
    cases = [(near, PROFILE), (wide, PROFILE), (near, GaussianProfile(AMPLITUDE, 2 * WAIST))]
    cold = []
    for ens, profile in cases:
        density._window_table.cache_clear()
        cold += _all_rates([ens], profile)
    density._window_table.cache_clear()
    warm = [_all_rates([ens], profile)[0] for ens, profile in cases]
    assert warm == cold
    assert density._window_table.cache_info().currsize == 3 * 3
