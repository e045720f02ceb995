import math
import warnings
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
import oracles
from oracles import gaussian_density, rates, run_moments, run_with_detector_beams

from axicav import cavity, cli, density
from axicav.cavity import BeamEnsemble, CavityConfig, axial_beam
from axicav.density import (
    MAX_ORDER,
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
# the presets' detector bins
BIN_WIDTH_M = 1e-4
HISTOGRAM_MAX_M = 3e-3
EDGES = histogram_edges(BIN_WIDTH_M, HISTOGRAM_MAX_M)


def _moments(positions, angles, weights):
    """The moment vector, at the waist, of beams with these arrays."""
    ens = BeamEnsemble(positions, angles, weights)
    return oracles.moments(ens.positions, ens.weights, WAIST)


def _counts(moments, edges=EDGES):
    """The photon rate of one snapshot in each bin: axial part plus deviation."""
    axial, deviation = bin_ensemble([moments], PROFILE, edges)
    return axial + deviation[0]


# --- analytic profiles -----------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        GaussianProfile(0.0, WAIST)
    with pytest.raises(ValueError):
        GaussianProfile(AMPLITUDE, -1e-3)


def test_a_profile_whose_whole_beam_rate_overflows_is_refused():
    """A*r*sqrt(2 pi), the whole beam's rate, bounds every window's axial
    part, so a profile where it overflows a double is refused by name; one
    just inside renders finite rates."""
    for amplitude, waist in [(1.7e308, 2.0), (1e308, 1.0), (1e300, 1e10)]:
        with pytest.raises(ValueError, match=r"^amplitude_photons_per_s and waist_m must give "
                                             r"a finite whole-beam rate A\*r\*sqrt\(2 pi\), got "):
            GaussianProfile(amplitude, waist)
    edge = GaussianProfile(1e308 / math.sqrt(2.0 * math.pi), 0.999)
    axial = density.rates_from_moments([np.zeros(3)], edge, [-1e3, 0.0, 1e3])[0]
    assert axial.sum() < math.inf


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
        return mp.mpf(profile.amplitude_photons_per_s) * (mp.exp(-x * x / (r * r)) - pair)


def _paper_deficit(x, alpha, eps, profile=PROFILE):
    """The paper's form at 50 digits: second order in alpha/r, first in eps/r,

        A e^{-x^2/r^2} [1 - ((r-eps)/r) e^{x^2 eps/r^3} (1 - alpha^2/r^2) cosh(2 alpha x/r^2)],

    r = sqrt(2) times the profile's rms width."""
    with mp.workdps(50):
        x, a, e, r = (mp.mpf(float(v)) for v in (x, alpha, eps, profile.waist_m))
        r *= mp.sqrt(2)
        inner = ((r - e) / r) * mp.exp(x * x * e / r**3) * (1 - a * a / (r * r)) * mp.cosh(2 * a * x / (r * r))
        return mp.mpf(profile.amplitude_photons_per_s) * mp.exp(-x * x / (r * r)) * (1 - inner)


PROFILE_GRID = np.linspace(0.0, 3e-3, 121)  # the `profile` grid on the presets
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
    edges = histogram_edges(BIN_WIDTH_M, HISTOGRAM_MAX_M)
    assert edges.size == 31
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(HISTOGRAM_MAX_M, rel=1e-15)
    assert np.allclose(np.diff(edges), BIN_WIDTH_M)


def test_histogram_edges_require_integer_bin_count():
    with pytest.raises(ValueError):
        histogram_edges(1e-4, 3.05e-3)
    with pytest.raises(ValueError):
        histogram_edges(-1e-4, 3e-3)


def test_histogram_validation():
    """A render is one axial value per bin and one deviation row per
    moment vector, in their order; descending edges are refused."""
    ref, pair = _moments([0.0], [0.0], [1.0]), _moments([1e-5, -1e-5], [0.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="finite and strictly ascending"):
        bin_ensemble([pair], PROFILE, np.array([0.0, -1e-4]))
    axial, deviation = bin_ensemble([ref, pair, ref], PROFILE, EDGES[:3])
    assert axial.shape == (2,) and deviation.shape == (3, 2)
    assert np.array_equal(deviation[0], [0.0, 0.0]) and np.array_equal(deviation[2], [0.0, 0.0])
    assert deviation[1, 0] < 0.0  # the pair moved photons out of the first bin


def test_bin_single_beam_matches_erf_integral():
    from scipy.special import erf

    counts = _counts(_moments([0.0], [0.0], [1.0]))
    s = WAIST * math.sqrt(2.0)
    norm = AMPLITUDE * WAIST * math.sqrt(math.pi / 2.0)
    lo, hi = 0.0, BIN_WIDTH_M
    expect = norm * (erf(hi / s) - erf(lo / s))
    assert counts[0] == pytest.approx(expect, rel=1e-13)
    assert counts.size == 30


def test_binned_total_recovers_the_gaussian_norm():
    edges = np.linspace(-8 * WAIST, 8 * WAIST, 241)
    counts = _counts(_moments([0.0], [0.0], [1.0]), edges)
    assert math.fsum(counts.tolist()) == pytest.approx(
        AMPLITUDE * WAIST * math.sqrt(2 * math.pi), rel=1e-6
    )


def test_binned_total_is_independent_of_beam_position():
    edges = np.linspace(-8 * WAIST, 8 * WAIST, 241)
    at_zero = _counts(_moments([0.0], [0.0], [1.0]), edges)
    shifted = _counts(_moments([1e-4], [0.0], [1.0]), edges)
    assert math.fsum(shifted.tolist()) == pytest.approx(
        math.fsum(at_zero.tolist()), rel=1e-9
    )


def test_exact_bin_integral_differs_from_midpoint_sampling():
    """The default bins are a small fraction of the waist, yet the curvature
    bias of midpoint sampling is well above the tolerance the growth series
    are held to; the erf form sidesteps it."""
    counts = _counts(_moments([0.0], [0.0], [1.0]))
    mid = 0.5 * (EDGES[:-1] + EDGES[1:])
    midpoint = gaussian_density(mid, PROFILE) * np.diff(EDGES)
    rel = np.abs(midpoint - counts) / counts
    assert 1e-5 < rel.max() < 2e-2


def test_weighted_beams_superpose_linearly():
    pair = _counts(_moments([1e-5, -1e-5], [0.0, 0.0], [0.5, 0.5]))
    plus = _counts(_moments([1e-5], [0.0], [1.0]))
    minus = _counts(_moments([-1e-5], [0.0], [1.0]))
    assert np.allclose(pair, 0.5 * plus + 0.5 * minus, rtol=1e-13)


def test_integrate_window_matches_bin_sums():
    ens = _moments([2e-5, -1e-5], [0.0, 0.0], [0.5, 0.5])
    window = integrate_window(ens, PROFILE, 0.0, HISTOGRAM_MAX_M)
    assert window == pytest.approx(float(np.sum(_counts(ens))), rel=1e-12)
    with pytest.raises(ValueError):
        integrate_window(ens, PROFILE, 1e-3, 1e-3)


def test_split_ensemble_loses_center_and_gains_shoulders():
    alpha = 1e-5
    ref = _moments([0.0], [0.0], [1.0])
    pair = _moments([alpha, -alpha], [0.0, 0.0], [0.5, 0.5])
    core_ref = integrate_window(ref, PROFILE, -7e-4, 7e-4)
    core_pair = integrate_window(pair, PROFILE, -7e-4, 7e-4)
    assert core_ref > core_pair
    tail_ref = integrate_window(ref, PROFILE, 8e-4, 3e-3)
    tail_pair = integrate_window(pair, PROFILE, 8e-4, 3e-3)
    assert tail_pair > tail_ref


def test_profile_difference_signs_and_validation():
    ref = _moments([0.0], [0.0], [1.0])
    pair = _moments([1e-5, -1e-5], [0.0, 0.0], [0.5, 0.5])
    diff = profile_difference(ref, pair, PROFILE, EDGES)
    assert diff[0] > 0  # central loss is positive
    assert diff[-1] < 0  # far shoulder gain is negative
    same = profile_difference(ref, ref, PROFILE, EDGES)
    assert np.array_equal(same, np.zeros(30))


def test_histogram_edges_cover_every_bin():
    axial, deviation = bin_ensemble([_moments([0.0], [0.0], [1.0])], PROFILE, EDGES)
    assert EDGES.shape == (31,) and axial.shape == (30,) and deviation.shape == (1, 30)
    assert EDGES[0] == 0.0
    assert EDGES[-1] == pytest.approx(3e-3, rel=1e-15)


def test_histogram_counts_are_axial_plus_deviation():
    """A bin's rate is its axial part plus the deviation: the rate
    `integrate_window` gives over that bin."""
    pair = _moments([2e-5, -1e-5], [0.0, 0.0], [0.5, 0.5])
    counts = _counts(pair)
    for lo, hi, got in zip(EDGES[:-1].tolist(), EDGES[1:].tolist(), counts.tolist()):
        assert got == pytest.approx(integrate_window(pair, PROFILE, lo, hi), rel=1e-15)


_EDGES = "finite and strictly ascending"


@pytest.mark.parametrize("edges, amplitude, moments, match", [
    ([0.0, math.nan, 1e-4], None, None, _EDGES), ([0.0, 1e-4, math.inf], None, None, _EDGES),
    ([-math.inf, 0.0, 1e-4], None, None, _EDGES), ([0.0, 1e-4, 1e-4], None, None, _EDGES),
    ([0.0, 2e-4, 1e-4], None, None, _EDGES), ([0.0], None, None, _EDGES),
    ([0.0, 1e-4], math.nan, None, "deviation must be finite"),
    ([0.0, 1e-4], None, [0.0, math.inf, 0.0], "deviation must be finite"),
    ([0.0, 1e-4, 2e-4], None, [-math.inf, 0.0, 0.0], "deviation must be finite"),
], ids=["nan", "inf", "-inf", "repeated", "descending", "no-bin",
        "nan-axial", "inf-deviation", "-inf-deviation"])
def test_histogram_refuses_bad_edges_and_non_finite_rates(edges, amplitude, moments, match):
    """One edge rule for histograms and windows: finite, strictly
    ascending, at least one bin.  The rates in the bins must be finite: a
    NaN amplitude (which `GaussianProfile` refuses, so a stand-in carries
    it) or a moment past a double is refused, not rendered.  The NaN
    amplitude makes every rate NaN, so the deviations' check refuses it."""
    profile = PROFILE if amplitude is None else SimpleNamespace(amplitude_photons_per_s=amplitude, waist_m=WAIST)
    m = np.zeros(3) if moments is None else np.array(moments)
    with pytest.raises(ValueError, match=match):
        density.rates_from_moments([m, np.zeros(3)], profile, edges)


# --- the moment series -------------------------------------------------------


@pytest.mark.parametrize("lo, hi", [
    (math.nan, 1e-3), (-1e-3, math.nan), (-math.inf, 1e-3), (-1e-3, math.inf),
    (1e-3, 1e-3), (1e-3, -1e-3),
])
def test_window_edges_must_be_finite_and_ascending(lo, hi):
    ens = _moments([1e-6, -1e-6], [0.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="finite and strictly ascending"):
        integrate_window(ens, PROFILE, lo, hi)
    with pytest.raises(ValueError, match="finite and strictly ascending"):
        bin_ensemble([ens], PROFILE, [0.0, lo, hi] if lo > 0 else [lo, hi])


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
        assert oracles.exact_sum(p.copy()) in _neighbours(math.fsum(p.tolist()))
    assert oracles.exact_sum(mirrored) == 0.0


def test_two_product_is_error_free():
    """Each product and its error add up to the exact product, signs and
    scales mixed."""
    rng = np.random.default_rng(24)
    a = rng.normal(size=2000) * 10.0 ** rng.integers(-20, 5, 2000)
    b = rng.normal(size=2000) * 10.0 ** rng.integers(-20, 5, 2000)
    a[:3], b[:3] = [0.0, -0.0, 1.0], [5.0, 1e-3, -0.0]
    out = oracles.two_product(a, b)
    for x, y, p, e in zip(a.tolist(), b.tolist(), out[:2000].tolist(), out[2000:].tolist()):
        assert p == x * y and Fraction(p) + Fraction(e) == Fraction(x) * Fraction(y)


def test_moments_of_two_beams():
    m = oracles.moments(np.array([2e-5, -1e-5]), np.array([0.25, 0.75]), WAIST)
    assert m[0] == 0.0  # the weights sum to one unit beam
    assert m[1] == pytest.approx((0.25 * 2e-5 - 0.75 * 1e-5) / WAIST, rel=1e-15)
    assert m[2] == pytest.approx((0.25 * 2e-5**2 + 0.75 * 1e-5**2) / WAIST**2, rel=1e-15)


def test_series_order_grows_with_the_spread_and_is_capped():
    one = np.array([1.0])
    assert oracles.moments(np.array([0.0]), one, WAIST).size == 3
    wide = oracles.moments(np.array([0.5 * WAIST]), one, WAIST)
    assert 3 < wide.size <= MAX_ORDER + 1
    with pytest.raises(GuardError, match=f"more than {MAX_ORDER} terms"):
        _moments([1.5 * WAIST], [0.0], [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_moments_refuse_a_position_that_is_not_finite(bad):
    """A detector position that overflowed, or a NaN, needs more than
    MAX_ORDER terms: the beams are refused with GuardError, without a
    RuntimeWarning on the way."""
    with pytest.raises(GuardError, match=f"^max\\|x\\|/r = {abs(bad)!r}: "):
        oracles.moments(np.array([0.0, bad, 1e-6]), np.full(3, 1.0 / 3), WAIST)


def test_a_wide_beam_renders_as_its_own_gaussian():
    """At half a waist off the axis the series runs to a high order; the
    rate is still the beam's Gaussian integral."""
    from mpmath import mp

    mp.dps = 40
    x0 = 0.5 * WAIST
    counts = _counts(_moments([x0], [0.0], [1.0]))
    s = mp.mpf(WAIST) * mp.sqrt(2)
    norm = AMPLITUDE * mp.mpf(WAIST) * mp.sqrt(mp.pi / 2)
    edges = EDGES.tolist()
    for lo, hi, got in zip(edges[:-1], edges[1:], counts.tolist()):
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

    s = mp.mpf(ORACLE_PROFILE.waist_m) * mp.sqrt(2)
    scale = ORACLE_PROFILE.amplitude_photons_per_s * s * mp.sqrt(mp.pi) / 2
    axial = [scale * (mp.erf(hi / s) - mp.erf(lo / s)) for lo, hi in zip(EDGES[:-1], EDGES[1:])]
    orders = []
    for rho in HIGH_ORDER_RHOS:
        ens = BeamEnsemble([rho * ORACLE_PROFILE.waist_m], [0.0], [1.0])
        orders.append(oracles.moments(ens.positions, ens.weights, ORACLE_PROFILE.waist_m).size - 1)
        got_axial, deviation = rates(ens, ORACLE_PROFILE, EDGES)
        assert deviation.dtype == np.float64
        assert rates(ens, ORACLE_PROFILE, EDGES)[1].tobytes() == deviation.tobytes()
        want = [a + d for a, d in zip(axial, _oracle_deviation(ens, EDGES, direct=True))]
        _assert_close(got_axial + deviation, want, f"rho={rho}")
    assert orders == list(range(20, 33))


def test_null_run_deviates_by_exact_zeros():
    deviation = bin_ensemble(run_moments(CavityConfig(n_traversals=3, theta_split_rad=0.0), WAIST),
                             PROFILE, EDGES)[1]
    assert np.array_equal(deviation, np.zeros((3, 30)))
    assert not np.any(np.signbit(deviation))


# --- the mirror rule of `oracles.moments` ------------------------------------

CONFOCAL = load_preset("confocal").cavity
BNL_QUAD = load_preset("bnl-quad").cavity
MIRRORED_RUNS = {
    "confocal": replace(CONFOCAL, n_traversals=12),
    "confocal-0.9theta": replace(CONFOCAL, n_traversals=12, theta_split_rad=0.9 * CONFOCAL.theta_split_rad),
    "confocal-1.1theta": replace(CONFOCAL, n_traversals=12, theta_split_rad=1.1 * CONFOCAL.theta_split_rad),
    "bnl-quad": replace(BNL_QUAD, n_traversals=40),
    # run on a coarser grid than the engine's, on which it merges
    "coarse-tolerance": replace(CONFOCAL, n_traversals=10),
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
            patch.setattr(oracles, "is_mirrored", lambda positions, weights: False)
        return oracles.moments(ens.positions, ens.weights, WAIST).tobytes()


@pytest.mark.parametrize("case", [*MIRRORED_RUNS, "odd-sized"])
def test_mirrored_moments_are_bitwise_the_exact_sums(case, monkeypatch):
    """Every snapshot of these runs is its own mirror image, and its odd
    moments set to 0.0 are bitwise what the exact sums return, and what the
    run kept (from the kick coefficients) at those orders."""
    if case == "odd-sized":
        ensembles, kept = _odd_sized_mirrored(), []
    else:
        if case == "coarse-tolerance":
            monkeypatch.setattr(cavity, "COALESCE_TOL_POSITION_M", 1e-9)
            monkeypatch.setattr(cavity, "COALESCE_TOL_ANGLE_RAD", 1e-10)
        _, ensembles = run_with_detector_beams(MIRRORED_RUNS[case])
        kept = run_moments(MIRRORED_RUNS[case], WAIST)
    for ens in ensembles:
        assert oracles.is_mirrored(ens.positions, ens.weights)
        assert _moment_bits(ens, monkeypatch, True) == _moment_bits(ens, monkeypatch, False)
    # the run's own vectors, from the kick coefficients, hold the same 0.0
    # at index 0 and every odd order
    for m, ens in zip(kept, ensembles, strict=False):
        beams = np.frombuffer(_moment_bits(ens, monkeypatch, True))
        for vector in (m, beams):
            assert vector[:2].tobytes() + vector[3::2].tobytes() == bytes(8 * (vector.size // 2 + 1))


def _exact_sums_per_ensemble(monkeypatch, ensembles):
    """How many times `moments` calls `_exact_sum` on each ensemble."""
    sizes = []
    exact_sum = oracles.exact_sum
    monkeypatch.setattr(oracles, "exact_sum", lambda p: sizes.append(p.size) or exact_sum(p))
    counts = []
    for ens in ensembles:
        del sizes[:]
        m = oracles.moments(ens.positions, ens.weights, WAIST)
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
    assert oracles.is_mirrored(x, w)
    off_axis = BeamEnsemble([3e-5, -1e-5], [2e-7, -1e-7], [0.25, 0.75])
    _, bnl = run_with_detector_beams(
        replace(BNL_QUAD, n_traversals=40, theta_split_rad=1.1 * BNL_QUAD.theta_split_rad))
    late = [ens for ens in bnl if not oracles.is_mirrored(ens.positions, ens.weights)]
    assert late  # 4 of the 20 snapshots at 1.1 times the preset split
    ensembles = [off_axis, BeamEnsemble(x_moved, np.zeros(1000), w),
                 BeamEnsemble(x, np.zeros(1000), w_moved), *late]
    for ens in ensembles:
        assert not oracles.is_mirrored(ens.positions, ens.weights)
    for calls, order in _exact_sums_per_ensemble(monkeypatch, ensembles):
        assert calls == 1 + (order + 1) // 2  # the weight and every odd order
    monkeypatch.undo()
    for ens in ensembles:
        assert _moment_bits(ens, monkeypatch, True) == _moment_bits(ens, monkeypatch, False)


def test_confocal_simulate_sums_only_the_weights_exactly(tmp_path, monkeypatch):
    """A confocal `simulate` reads no beam's position for the moments:
    each snapshot's vector comes from its kick coefficients, with the
    weight beyond one unit beam and every odd moment exactly 0.0, and no
    detector position row is formed (`cavity._row` runs twice per
    traversal, for the next ensemble's positions and angles)."""
    vectors, rows = [], []
    snapshot_moments, row = density.snapshot_moments, cavity._row

    def kept(*args):
        vectors.extend(snapshot_moments(*args))
        return vectors

    monkeypatch.setattr(density, "snapshot_moments", kept)
    monkeypatch.setattr(cavity, "_row", lambda *args: rows.append(args[0].size) or row(*args))
    assert cli.main(["--preset", "confocal", "--override", "cavity.n_traversals=8",
                     "--out", str(tmp_path), "simulate"]) == 0
    assert len(vectors) == 8 and len(rows) == 16
    for m in vectors:
        assert m[0] == 0.0 and not np.any(m[1::2]) and np.all(m[2::2] > 0.0)


# --- one render per run ----------------------------------------------------------


def _all_rates(ensembles, profile=PROFILE):
    """The bins and the central and sideband pixels of every ensemble,
    stacked in one call per set of windows, as the bytes of each
    ensemble's values."""
    windows = [EDGES, (-1e-6, 1e-6), (3.299e-3, 3.301e-3)]
    ms = [oracles.moments(ens.positions, ens.weights, profile.waist_m) for ens in ensembles]
    parts = [density.rates_from_moments(ms, profile, edges) for edges in windows]
    return [b"".join(axial.tobytes() + deviation[i].tobytes() for axial, deviation in parts)
            for i in range(len(ensembles))]


def test_a_stacked_render_is_each_ensembles_own():
    """One call over a run's snapshots gives every snapshot the bytes it
    gets alone, in any order of the stack: on a confocal run, on bnl-quad
    runs with odd moments, and with a beam half a waist off the axis
    (order 22) in the stack.  A table built at order 22 holds two more
    midpoint terms in each bin than one at order 5; reading the rows of
    order 5 from it moves the last bits of 31 of these 51 snapshots, so
    each order reads its own table."""
    _, ensembles = run_with_detector_beams(replace(CONFOCAL, n_traversals=10))
    for theta in (2.2e-14, 3.5e-14):
        ensembles += run_with_detector_beams(
            replace(BNL_QUAD, n_traversals=40, theta_split_rad=theta))[1]
    ensembles.append(BeamEnsemble([0.5 * WAIST], [0.0], [1.0]))
    orders = {oracles.moments(ens.positions, ens.weights, WAIST).size - 1 for ens in ensembles}
    assert len(orders) > 2 and max(orders) == 22
    alone = [_all_rates([ens])[0] for ens in ensembles]
    assert _all_rates(ensembles) == alone
    assert _all_rates(ensembles[::-1]) == alone[::-1]
