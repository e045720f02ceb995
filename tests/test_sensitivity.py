import math
from dataclasses import replace

import numpy as np
import pytest

from axicav import density, scenario
from axicav.cavity import MIRROR_1, CavityConfig, axial_beam, run
from axicav.density import GaussianProfile, integrate_window
from axicav.sensitivity import (
    DEFAULT_BEAM_RATE,
    GrowthFit,
    GrowthSeries,
    NoiseBudget,
    center_sideband_series,
    central_loss_series,
    extrapolate,
    fit_linear,
    fit_power,
    min_coupling,
    scenario_report,
    shot_noise_fraction,
    sideband_gain_series,
)

PROFILE = GaussianProfile(5e18, 7.5e-4)


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


def test_fit_power_rejects_nonpositive_signal():
    n = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power(GrowthSeries(n, np.array([1.0, 0.0, 2.0])))


def test_fit_evaluate_roundtrip_and_unknown_kind():
    fit = GrowthFit(kind="linear", slope=2.0, intercept=1.0)
    assert fit.evaluate(10.0) == 21.0
    bad = GrowthFit(kind="cubic")
    with pytest.raises(ValueError):
        bad.evaluate(1.0)


def test_as_dict_carries_only_relevant_fields():
    lin = GrowthFit(kind="linear", slope=1.0, intercept=0.0).as_dict()
    assert set(lin) == {"kind", "r_squared", "slope", "intercept"}
    pow_ = GrowthFit(kind="power", coefficient=1.0, exponent=2.0).as_dict()
    assert set(pow_) == {"kind", "r_squared", "coefficient", "exponent"}


# --- extrapolation chains ---------------------------------------------------


def test_linear_chain_to_large_n():
    fit = GrowthFit(kind="linear", slope=73907.0, intercept=274.0)
    assert extrapolate(fit, 12000) == 886884274.0


def test_second_linear_chain_and_fraction():
    fit = GrowthFit(kind="linear", slope=6.41e7, intercept=24793.0)
    photons = extrapolate(fit, 12000)
    assert photons == 769200024793.0
    assert photons / DEFAULT_BEAM_RATE == pytest.approx(1.538400049586e-07, rel=1e-12)


def test_power_chain_values():
    strong = GrowthFit(kind="power", coefficient=1.0e9, exponent=2.959)
    assert extrapolate(strong, 1000) == pytest.approx(7.533555637337178e17, rel=1e-12)
    weak = GrowthFit(kind="power", coefficient=2.2, exponent=2.959)
    assert extrapolate(weak, 15000) == pytest.approx(5005837142429.729, rel=1e-12)


def test_extrapolate_rejects_n_below_one():
    fit = GrowthFit(kind="linear", slope=1.0, intercept=0.0)
    with pytest.raises(ValueError):
        extrapolate(fit, 0)


# --- noise and coupling -----------------------------------------------------


def test_shot_noise_reference_points():
    assert shot_noise_fraction(NoiseBudget(5.42e15)) == pytest.approx(
        1.3583145623104031e-08, rel=1e-12
    )
    assert shot_noise_fraction(NoiseBudget(1.92e14)) == pytest.approx(
        7.216878364870322e-08, rel=1e-12
    )
    assert shot_noise_fraction(NoiseBudget(DEFAULT_BEAM_RATE)) == pytest.approx(
        4.4721359549995793e-10, rel=1e-15
    )


def test_shot_noise_integrates_as_sqrt_time():
    one = shot_noise_fraction(NoiseBudget(5e18, 1.0))
    long = shot_noise_fraction(NoiseBudget(5e18, 3e4))
    assert long == pytest.approx(one / math.sqrt(3e4), rel=1e-12)


def test_noise_budget_validation():
    with pytest.raises(ValueError):
        NoiseBudget(0.0)
    with pytest.raises(ValueError):
        NoiseBudget(5e18, -1.0)


def test_min_coupling_threshold_formula():
    g = min_coupling(1e-6, 1.538400049586e-07, 4.4721359549995793e-10)
    assert g == pytest.approx(5.3916644528722695e-08, rel=1e-12)


def test_min_coupling_scales_with_reference():
    a = min_coupling(1e-6, 1e-7, 1e-10)
    b = min_coupling(2e-6, 1e-7, 1e-10)
    assert b == pytest.approx(2 * a, rel=1e-15)


def test_min_coupling_improves_with_signal():
    weak = min_coupling(1e-6, 1e-8, 1e-10)
    strong = min_coupling(1e-6, 1e-6, 1e-10)
    assert strong < weak


def test_min_coupling_zero_signal_is_blind():
    assert min_coupling(1e-6, 0.0, 1e-10) == math.inf
    assert min_coupling(1e-6, -1e-7, 1e-10) == math.inf
    with pytest.raises(ValueError):
        min_coupling(0.0, 1e-7, 1e-10)


@pytest.mark.parametrize("fraction", [math.nan, math.inf])
def test_min_coupling_refuses_a_fraction_that_is_no_number(fraction):
    with pytest.raises(ValueError, match="signal_fraction_at_ref"):
        min_coupling(1e-6, fraction, 1e-10)


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
    rep = scenario_report("confocal", fit, 12000, 1e-6, 3e4)
    assert set(rep) == REPORT_KEYS
    assert rep["g_min_1s"] == pytest.approx(5.3916644528722695e-08, rel=1e-12)
    assert rep["g_min_integrated"] == pytest.approx(4.09677905635152e-09, rel=1e-12)


def test_report_defocusing_pair_reach():
    fit = GrowthFit(kind="power", coefficient=1.0e9, exponent=2.959)
    rep = scenario_report("convex-concave", fit, 1000, 1e-6, 3e4)
    assert rep["g_min_1s"] == pytest.approx(5.448067767970739e-11, rel=1e-12)
    assert rep["g_min_integrated"] == pytest.approx(4.139636307952387e-12, rel=1e-12)


def test_report_long_integration_reach():
    fit = GrowthFit(kind="power", coefficient=2.2, exponent=2.959)
    rep = scenario_report("quad-doublet", fit, 15000, 1e-10, 3e6)
    assert rep["g_min_integrated"] == pytest.approx(5.0783640327805577e-14, rel=1e-12)


def test_report_reach_follows_fourth_root_of_time():
    fit = GrowthFit(kind="linear", slope=6.41e7, intercept=24793.0)
    base = scenario_report("x", fit, 12000, 1e-6, 1.0)
    longer = scenario_report("x", fit, 12000, 1e-6, 1e4)
    assert longer["g_min_integrated"] == pytest.approx(
        base["g_min_integrated"] / 10.0, rel=1e-12
    )
    assert base["g_min_1s"] == base["g_min_integrated"]


def test_report_zero_signal_notes_blindness():
    fit = GrowthFit(kind="linear", slope=0.0, intercept=0.0)
    rep = scenario_report("flat", fit, 100, 1e-6, 1.0)
    assert math.isinf(rep["g_min_1s"])
    assert "note" in rep


@pytest.mark.parametrize("time_s", [-1.0, 0.0])
def test_report_refuses_a_non_positive_integration_time(time_s):
    fit = GrowthFit(kind="linear", slope=6.41e7, intercept=24793.0)
    with pytest.raises(ValueError, match="^integration_time_s must be finite and > 0"):
        scenario_report("x", fit, 12000, 1e-6, time_s)


# --- series builders on cavity runs ----------------------------------------


def test_central_loss_series_grows_with_traversals():
    res = run(CavityConfig(n_traversals=6))
    series = central_loss_series(res, PROFILE)
    assert np.array_equal(series.n, np.arange(1.0, 7.0))
    assert np.all(series.signal > 0)
    # later snapshots have lost at least as much as the first
    assert series.signal[-1] > series.signal[0]


def test_sideband_gain_series_is_positive():
    res = run(CavityConfig(n_traversals=6))
    series = sideband_gain_series(res, PROFILE)
    assert np.all(series.signal > 0)
    assert series.signal[-1] > series.signal[0]


def test_center_sideband_series_counts_migration_twice():
    res = run(CavityConfig(n_traversals=6))
    amb = center_sideband_series(res, PROFILE)
    assert np.all(amb.signal > 0)
    assert amb.signal[-1] > amb.signal[0]


def test_series_on_null_run_are_exactly_zero():
    cfg = replace(CavityConfig(n_traversals=5), theta_split_rad=0.0)
    res = run(cfg)
    assert np.array_equal(central_loss_series(res, PROFILE).signal, np.zeros(5))
    assert np.array_equal(sideband_gain_series(res, PROFILE).signal, np.zeros(5))
    assert np.array_equal(center_sideband_series(res, PROFILE).signal, np.zeros(5))


def test_mirror1_extraction_series_use_even_traversals():
    res = run(CavityConfig(mirror2_focal_m=None, extraction_mirror=MIRROR_1, n_traversals=8))
    series = central_loss_series(res, PROFILE)
    assert np.array_equal(series.n, [2.0, 4.0, 6.0, 8.0])


def test_series_windows_and_signs_match_the_change_form():
    """Each series is minus the coefficient-weighted deviation of its
    windows from the axial beam (`density.rates`), bit for bit: the central
    pixel once, the sideband pixel doubled with the sign flipped (a gain),
    and the doubled center [0, w/2] minus the doubled sidebands
    [w, 4w + 1 mm].  The change equals the difference of the windows'
    direct integrals to the roundoff of those 1e13-1e15 photons/s totals."""
    res = run(CavityConfig(n_traversals=4))
    h, c, w = 1e-6, 3.3e-3, PROFILE.waist_m

    def change(windows):
        def one(ens):
            return 0.0 - sum(k * density.rates(ens, PROFILE, (lo, hi))[1][0] for lo, hi, k in windows)

        return [one(s.ensemble) for s in res.snapshots]

    def direct(windows):
        def total(ens):
            return sum(k * integrate_window(ens, PROFILE, lo, hi) for lo, hi, k in windows)

        return [total(axial_beam()) - total(s.ensemble) for s in res.snapshots]

    central = [(-h, h, 1.0)]
    sideband = [(c - h, c + h, -2.0)]
    amb = [(0.0, 0.5 * w, 2.0), (w, 4.0 * w + 1e-3, -2.0)]
    for windows, series, scale in [
        (central, central_loss_series(res, PROFILE, h), 1e13),
        (sideband, sideband_gain_series(res, PROFILE, c, h), 1e9),
        (amb, center_sideband_series(res, PROFILE), 1e15),
    ]:
        assert np.array_equal(series.signal, change(windows))
        assert np.allclose(series.signal, direct(windows), rtol=0.0, atol=1e-15 * scale)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_series_builders_refuse_non_finite_windows(bad):
    res = run(CavityConfig(n_traversals=2))
    for build in (
        lambda: central_loss_series(res, PROFILE, bad),
        lambda: sideband_gain_series(res, PROFILE, bad),
        lambda: sideband_gain_series(res, PROFILE, 3.3e-3, bad),
    ):
        with pytest.raises(ValueError, match="finite and strictly ascending"):
            build()


def test_bnl_quad_sideband_gain_is_positive_and_increasing():
    """Exact observables: the sideband column of the preset was negative
    roundoff while it was the difference of two erf totals."""
    res = run(scenario.load_preset("bnl-quad").cavity)
    gain = sideband_gain_series(res, PROFILE).signal
    assert np.all(gain > 0)
    assert np.all(np.diff(gain) > 0)
    assert gain[-1] == pytest.approx(5.3827e-5, rel=1e-4)
