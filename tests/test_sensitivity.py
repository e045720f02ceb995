import math
import random
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from oracles import beam_moments, rates, run_moments, run_with_detector_beams

from axicav import scenario
from axicav.cavity import MIRROR_1, CavityConfig, axial_beam
from axicav.density import GaussianProfile, integrate_window, rates_from_moments
from axicav.sensitivity import (
    GrowthFit,
    GrowthSeries,
    FractionError,
    center_sideband_series,
    central_loss_series,
    fit_linear,
    fit_power,
    reach,
    scenario_report,
    sideband_gain_series,
)

# the presets' beam and pixels
BEAM_RATE = 5e18  # photons/s carried by the full beam
PROFILE = GaussianProfile(BEAM_RATE, 7.5e-4)
H, C = 1e-6, 3.3e-3  # pixel half-width and sideband pixel center, m


def _snapshots(cfg):
    """A run's snapshots as the series builders take them: traversals, and
    moment vectors."""
    return list(cfg.snapshot_traversals), run_moments(cfg, PROFILE.waist_m)


# --- series and fits --------------------------------------------------------


def test_series_requires_increasing_n():
    with pytest.raises(ValueError):
        GrowthSeries(np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        GrowthSeries(np.array([3.0, 2.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        GrowthSeries(np.array([1.0, 2.0]), np.array([1.0]))


_COUNTS = "finite and strictly increasing"


@pytest.mark.parametrize("n, signal, match", [
    ([1.0, math.nan, 3.0], None, _COUNTS), ([math.nan, 2.0, 3.0], None, _COUNTS),
    ([1.0, 2.0, math.nan], None, _COUNTS), ([math.nan], None, _COUNTS),
    ([1.0, 2.0, math.inf], None, _COUNTS),
    ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0], "signal must be finite"),
    ([1.0, 2.0, 3.0], [1.0, 2.0, -math.inf], "signal must be finite"),
], ids=["nan-middle", "nan-first", "nan-last", "nan-only", "inf", "nan-signal", "inf-signal"])
def test_series_refuses_non_finite_values(n, signal, match):
    """A NaN fails every comparison, so the increasing test alone would let
    it through to the fits."""
    with pytest.raises(ValueError, match=match):
        GrowthSeries(np.array(n), np.ones(len(n)) if signal is None else np.array(signal))


def test_fit_linear_recovers_exact_line():
    n = np.arange(1.0, 16.0)
    series = GrowthSeries(n, 73907.0 * n + 274.0)
    fit = fit_linear(series)
    assert fit.kind == "linear"
    assert fit.slope == pytest.approx(73907.0, rel=1e-9)
    assert fit.intercept == pytest.approx(274.0, rel=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_linear_needs_three_points():
    with pytest.raises(ValueError):
        fit_linear(GrowthSeries(np.array([1.0, 2.0]), np.array([1.0, 2.0])))


def test_fit_power_recovers_exact_law():
    n = np.array([1.0, 10.0, 100.0, 1000.0, 15000.0])
    series = GrowthSeries(n, 2.2 * n**2.959)
    fit = fit_power(series)
    assert fit.kind == "power"
    assert fit.coefficient == pytest.approx(2.2, rel=1e-9)
    assert fit.exponent == pytest.approx(2.959, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def _least_squares(x, y):
    """Slope and intercept of the least-squares line through float points,
    at 50 digits."""
    with mp.workdps(50):
        x, y = [mp.mpf(v) for v in x], [mp.mpf(v) for v in y]
        x_mean, y_mean = mp.fsum(x) / len(x), mp.fsum(y) / len(y)
        slope = (mp.fsum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
                 / mp.fsum((a - x_mean) ** 2 for a in x))
        return slope, y_mean - slope * x_mean


def test_fits_match_a_50_digit_least_squares_line():
    """Over 200 seeded series shaped like the benchmark's reach series
    (n = 1..15, a power law with exponent 1-1.3 and 1 % noise), the slope,
    the intercept and the power law's exponent and log coefficient are the
    50-digit least-squares values of the same doubles (the logarithms taken
    by math.log), rounded once; np.polyfit was off by up to 2.7e-15."""
    worst = 0.0
    for seed in range(200):
        rng = random.Random(seed)
        exponent, scale = rng.uniform(1.0, 1.3), 10 ** rng.uniform(2.0, 4.0)
        n = [float(k) for k in range(1, 16)]
        signal = [scale * k**exponent * (1.0 + rng.gauss(0.0, 0.01)) for k in n]
        series = GrowthSeries(np.array(n), np.array(signal))
        linear, power = fit_linear(series), fit_power(series)
        slope, intercept = _least_squares(n, signal)
        power_law = _least_squares([math.log(v) for v in n], [math.log(v) for v in signal])
        for got, want in [(linear.slope, slope), (linear.intercept, intercept),
                          (power.exponent, power_law[0])]:
            assert got == float(want)
            worst = max(worst, float(abs(got - want) / abs(want)))
        assert math.log(power.coefficient) == pytest.approx(float(power_law[1]), rel=1e-15)
    assert worst <= 2.0e-16


def test_fit_power_rejects_nonpositive_signal():
    n = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power(GrowthSeries(n, np.array([1.0, 0.0, 2.0])))
    with pytest.raises(ValueError, match="need at least 3 points"):
        fit_power(GrowthSeries(n[:2], np.array([1.0, 2.0])))


def test_fit_evaluate_roundtrip_and_unknown_kind():
    fit = GrowthFit(kind="linear", slope=2.0, intercept=1.0)
    assert fit.evaluate(10.0) == 21.0
    bad = GrowthFit(kind="cubic")
    with pytest.raises(ValueError):
        bad.evaluate(1.0)


@pytest.mark.parametrize("fit", [
    GrowthFit(kind="linear", slope=3.5e307, intercept=6.7e307),
    GrowthFit(kind="linear", slope=-3.5e307, intercept=-6.7e307),
    GrowthFit(kind="linear", slope=1e308, intercept=-math.inf),
    GrowthFit(kind="power", coefficient=1e308, exponent=0.5),
], ids=["linear", "negative-linear", "nan", "power"])
def test_fit_evaluate_refuses_a_value_past_a_double(fit):
    """A float product that overflows gives +-inf (or, against an infinite
    intercept, NaN) without raising; `evaluate` raises OverflowError."""
    with pytest.raises(OverflowError, match=f"^the {fit.kind} fit at n = 12000 is "):
        fit.evaluate(12000)


def test_as_dict_carries_only_relevant_fields():
    lin = GrowthFit(kind="linear", slope=1.0, intercept=0.0).as_dict()
    assert set(lin) == {"kind", "r_squared", "slope", "intercept"}
    pow_ = GrowthFit(kind="power", coefficient=1.0, exponent=2.0).as_dict()
    assert set(pow_) == {"kind", "r_squared", "coefficient", "exponent"}


# --- extrapolation chains ---------------------------------------------------


def test_linear_chain_to_large_n():
    fit = GrowthFit(kind="linear", slope=73907.0, intercept=274.0)
    assert fit.evaluate(12000) == 886884274.0


def test_second_linear_chain_and_fraction():
    fit = GrowthFit(kind="linear", slope=6.41e7, intercept=24793.0)
    photons = fit.evaluate(12000)
    assert photons == 769200024793.0
    assert reach(photons, BEAM_RATE, 1e-6, 1.0)["signal_fraction"] == pytest.approx(
        1.538400049586e-07, rel=1e-12)


def test_power_chain_values():
    strong = GrowthFit(kind="power", coefficient=1.0e9, exponent=2.959)
    assert strong.evaluate(1000) == pytest.approx(7.533555637337178e17, rel=1e-12)
    weak = GrowthFit(kind="power", coefficient=2.2, exponent=2.959)
    assert weak.evaluate(15000) == pytest.approx(5005837142429.729, rel=1e-12)


def test_extrapolate_rejects_n_below_one():
    fit = GrowthFit(kind="linear", slope=1.0, intercept=0.0)
    with pytest.raises(ValueError, match="^n_target must be an int >= 1, got 0$"):
        scenario_report("x", fit, 0, 1e-6, 1.0, BEAM_RATE)


# --- noise and coupling -----------------------------------------------------


def _noise(rate):
    """The 1 s shot-noise fraction `reach` sets against any signal."""
    return reach(0.0, rate, 1e-6, 1.0)["noise_fraction"]


def test_shot_noise_reference_points():
    assert _noise(5.42e15) == pytest.approx(1.3583145623104031e-08, rel=1e-12)
    assert _noise(1.92e14) == pytest.approx(7.216878364870322e-08, rel=1e-12)
    assert _noise(BEAM_RATE) == pytest.approx(4.4721359549995793e-10, rel=1e-15)


def test_shot_noise_integrates_as_sqrt_time():
    """Counting 3e4 s of a beam is counting 3e4 times its photons, and the
    coupling that clears that floor is the 1 s one times t^(-1/4)."""
    assert _noise(5e18 * 3e4) == pytest.approx(_noise(5e18) / math.sqrt(3e4), rel=1e-12)
    one = reach(1e12, 5e18, 1e-6, 3e4)
    assert one["g_min_integrated"] == one["g_min_1s"] * 3e4 ** -0.25


def test_noise_budget_validation():
    """The rate and the integration time are refused by name unless finite
    and positive."""
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        rule = f"must be finite and > 0, got {bad!r}$"
        with pytest.raises(ValueError, match="^total_rate " + rule):
            reach(1.0, bad, 1e-6, 1.0)
        with pytest.raises(ValueError, match="^integration_time_s " + rule):
            reach(1.0, 5e18, 1e-6, bad)


def test_reach_returns_its_keys_in_report_order():
    assert list(reach(1.0, 5e18, 1e-6, 1.0)) == [
        "signal_fraction", "noise_fraction", "g_min_1s", "g_min_integrated"]


def test_min_coupling_threshold_formula():
    """g_min = g_ref * sqrt(noise / fraction) at the confocal chain's
    fraction 1.5384e-7 of the 5e18/s beam."""
    g = reach(769200024793.0, BEAM_RATE, 1e-6, 1.0)["g_min_1s"]
    assert g == pytest.approx(5.3916644528722695e-08, rel=1e-12)


def test_min_coupling_scales_with_reference():
    # fraction 1e-7 against a noise of 1e-10
    a = reach(1e13, 1e20, 1e-6, 1.0)["g_min_1s"]
    b = reach(1e13, 1e20, 2e-6, 1.0)["g_min_1s"]
    assert b == pytest.approx(2 * a, rel=1e-15)


def test_min_coupling_improves_with_signal():
    weak = reach(1e12, 1e20, 1e-6, 1.0)["g_min_1s"]
    strong = reach(1e14, 1e20, 1e-6, 1.0)["g_min_1s"]
    assert strong < weak


def test_min_coupling_zero_signal_is_blind():
    """A fraction that is not positive, -0 included, reaches no coupling."""
    for signal in (0.0, -0.0, -1e13):
        blind = reach(signal, 1e20, 1e-6, 3e4)
        assert blind["g_min_1s"] is None and blind["g_min_integrated"] is None
    with pytest.raises(ValueError, match="^g_ref must be finite and > 0"):
        reach(1e13, 1e20, 0.0, 1.0)


@pytest.mark.parametrize("signal", [math.nan, math.inf, -math.inf])
def test_min_coupling_refuses_a_fraction_that_is_no_number(signal):
    """A signal that is no number, or a finite one over a rate so small that
    the fraction overflows either way, is refused, not reported."""
    match = f"^signal_fraction must be finite, got {signal!r}$"
    with pytest.raises(FractionError, match=match):
        reach(signal, 1e-10, 1e-6, 1.0)
    with pytest.raises(FractionError, match="got inf$"):
        reach(1e300, 1e-10, 1e-6, 1.0)
    with pytest.raises(FractionError, match="got -inf$"):
        reach(-1e300, 1e-10, 1e-6, 1.0)


# --- scenario reports -------------------------------------------------------

REPORT_KEYS = {
    "scenario",
    "fit",
    "extrapolated_photons",
    "signal_fraction",
    "noise_fraction",
    "g_min_1s",
    "g_min_integrated",
    "integration_time_s",
}


def test_report_confocal_reach():
    fit = GrowthFit(kind="linear", slope=6.41e7, intercept=24793.0)
    rep = scenario_report("confocal", fit, 12000, 1e-6, 3e4, BEAM_RATE)
    assert set(rep) == REPORT_KEYS
    assert rep["g_min_1s"] == pytest.approx(5.3916644528722695e-08, rel=1e-12)
    assert rep["g_min_integrated"] == pytest.approx(4.09677905635152e-09, rel=1e-12)


def test_report_defocusing_pair_reach():
    fit = GrowthFit(kind="power", coefficient=1.0e9, exponent=2.959)
    rep = scenario_report("convex-concave", fit, 1000, 1e-6, 3e4, BEAM_RATE)
    assert rep["g_min_1s"] == pytest.approx(5.448067767970739e-11, rel=1e-12)
    assert rep["g_min_integrated"] == pytest.approx(4.139636307952387e-12, rel=1e-12)


def test_report_long_integration_reach():
    fit = GrowthFit(kind="power", coefficient=2.2, exponent=2.959)
    rep = scenario_report("quad-doublet", fit, 15000, 1e-10, 3e6, BEAM_RATE)
    assert rep["g_min_integrated"] == pytest.approx(5.0783640327805577e-14, rel=1e-12)


def test_report_reach_follows_fourth_root_of_time():
    fit = GrowthFit(kind="linear", slope=6.41e7, intercept=24793.0)
    base = scenario_report("x", fit, 12000, 1e-6, 1.0, BEAM_RATE)
    longer = scenario_report("x", fit, 12000, 1e-6, 1e4, BEAM_RATE)
    assert longer["g_min_integrated"] == pytest.approx(
        base["g_min_integrated"] / 10.0, rel=1e-12
    )
    assert base["g_min_1s"] == base["g_min_integrated"]


def test_report_zero_signal_notes_blindness():
    """A zero or negative fraction reaches no coupling: both are None,
    JSON's null."""
    for slope in (0.0, -1.0):
        fit = GrowthFit(kind="linear", slope=slope, intercept=0.0)
        rep = scenario_report("flat", fit, 100, 1e-6, 1.0, BEAM_RATE)
        assert rep["g_min_1s"] is None and rep["g_min_integrated"] is None
        assert rep["note"] == "no sensitivity: signal fraction is not positive"


@pytest.mark.parametrize("g_ref, time_s", [(1e300, 1e-300), (1e300, 1.0)])
def test_report_refuses_a_reach_past_the_largest_double(g_ref, time_s):
    """A tiny positive fraction at a huge g_ref: the reach is refused, not
    reported as inf, which JSON cannot hold."""
    fit = GrowthFit(kind="linear", slope=1e-300, intercept=0.0)
    with pytest.raises(ValueError, match="lies past the largest double"):
        scenario_report("x", fit, 12000, g_ref, time_s, BEAM_RATE)


@pytest.mark.parametrize("time_s", [-1.0, 0.0])
def test_report_refuses_a_non_positive_integration_time(time_s):
    fit = GrowthFit(kind="linear", slope=6.41e7, intercept=24793.0)
    with pytest.raises(ValueError, match="^integration_time_s must be finite and > 0"):
        scenario_report("x", fit, 12000, 1e-6, time_s, BEAM_RATE)


# --- series builders on cavity runs ----------------------------------------


def test_central_loss_series_grows_with_traversals():
    cfg = CavityConfig(n_traversals=6)
    series = central_loss_series(*_snapshots(cfg), PROFILE, H)
    assert np.array_equal(series.n, np.arange(1.0, 7.0))
    assert np.all(series.signal > 0)
    # later snapshots have lost at least as much as the first
    assert series.signal[-1] > series.signal[0]


def test_sideband_gain_series_is_positive():
    cfg = CavityConfig(n_traversals=6)
    series = sideband_gain_series(*_snapshots(cfg), PROFILE, C, H)
    assert np.all(series.signal > 0)
    assert series.signal[-1] > series.signal[0]


def test_center_sideband_series_counts_migration_twice():
    cfg = CavityConfig(n_traversals=6)
    amb = center_sideband_series(*_snapshots(cfg), PROFILE)
    assert np.all(amb.signal > 0)
    assert amb.signal[-1] > amb.signal[0]


def test_series_on_null_run_are_exactly_zero():
    cfg = replace(CavityConfig(n_traversals=5), theta_split_rad=0.0)
    assert np.array_equal(central_loss_series(*_snapshots(cfg), PROFILE, H).signal, np.zeros(5))
    assert np.array_equal(sideband_gain_series(*_snapshots(cfg), PROFILE, C, H).signal, np.zeros(5))
    assert np.array_equal(center_sideband_series(*_snapshots(cfg), PROFILE).signal, np.zeros(5))


def test_mirror1_extraction_series_use_even_traversals():
    cfg = CavityConfig(mirror2_focal_m=None, extraction_mirror=MIRROR_1, n_traversals=8)
    series = central_loss_series(*_snapshots(cfg), PROFILE, H)
    assert np.array_equal(series.n, [2.0, 4.0, 6.0, 8.0])


def test_series_windows_and_signs_match_the_change_form():
    """Each series is minus the coefficient-weighted deviation of its
    windows from the axial beam (`density.rates_from_moments` of each
    snapshot's moments, taken alone), bit for bit: the central
    pixel once, the sideband pixel doubled with the sign flipped (a gain),
    and the doubled center [0, w/2] minus the doubled sidebands
    [w, 4w + 1 mm].  The change equals the difference of the windows'
    direct integrals to the roundoff of those 1e13-1e15 photons/s totals,
    and the same change read from the snapshot's beams (`oracles.rates`)
    to 1e-15 of it."""
    cfg = CavityConfig(n_traversals=4)
    _, beams = run_with_detector_beams(cfg)
    moments = run_moments(cfg, PROFILE.waist_m)
    h, c, w = H, C, PROFILE.waist_m

    def change(windows, of_beams=False):
        def one(m, ens):
            def deviation(lo, hi):
                if of_beams:
                    return rates(ens, PROFILE, (lo, hi))[1][0]
                return rates_from_moments([m], PROFILE, (lo, hi))[1][0, 0]

            return 0.0 - sum(k * deviation(lo, hi) for lo, hi, k in windows)

        return [one(m, ens) for m, ens in zip(moments, beams, strict=True)]

    def direct(windows):
        def total(m):
            return sum(k * integrate_window(m, PROFILE, lo, hi) for lo, hi, k in windows)

        return [total(beam_moments(axial_beam(), w)) - total(m) for m in moments]

    central = [(-h, h, 1.0)]
    sideband = [(c - h, c + h, -2.0)]
    amb = [(0.0, 0.5 * w, 2.0), (w, 4.0 * w + 1e-3, -2.0)]
    for windows, series, scale in [
        (central, central_loss_series(*_snapshots(cfg), PROFILE, h), 1e13),
        (sideband, sideband_gain_series(*_snapshots(cfg), PROFILE, c, h), 1e9),
        (amb, center_sideband_series(*_snapshots(cfg), PROFILE), 1e15),
    ]:
        assert np.array_equal(series.signal, change(windows))
        assert np.allclose(series.signal, direct(windows), rtol=0.0, atol=1e-15 * scale)
        assert np.allclose(series.signal, change(windows, of_beams=True), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_series_builders_refuse_non_finite_windows(bad):
    cfg = CavityConfig(n_traversals=2)
    for build in (
        lambda: central_loss_series(*_snapshots(cfg), PROFILE, bad),
        lambda: sideband_gain_series(*_snapshots(cfg), PROFILE, bad, H),
        lambda: sideband_gain_series(*_snapshots(cfg), PROFILE, C, bad),
    ):
        with pytest.raises(ValueError, match="finite and strictly ascending"):
            build()


def test_bnl_quad_sideband_gain_is_positive_and_increasing():
    """Exact observables: the sideband column of the preset was negative
    roundoff while it was the difference of two erf totals."""
    cfg = scenario.load_preset("bnl-quad").cavity
    gain = sideband_gain_series(*_snapshots(cfg), PROFILE, C, H).signal
    assert np.all(gain > 0)
    assert np.all(np.diff(gain) > 0)
    assert gain[-1] == pytest.approx(5.3827e-5, rel=1e-4)
