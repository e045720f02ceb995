"""Acceptance suite: twelve release criteria, one test (and one printed
pass/fail line) each.

Each criterion asserts its stated tolerance and, where the quantity comes out
of the simulation engine, additionally pins the engine-frozen value at a tight
relative tolerance so regressions cannot hide inside the coarse acceptance
band.  Run with ``pytest -v`` for the per-criterion verdict lines.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    beam_moments,
    initial_ensemble,
    momentum_spectrum,
    run_moments,
    run_with_detector_beams,
    step_bifurcation,
    step_pascal,
)

from axicav import cavity
from axicav.axion import (
    MixingParameters,
    mixing_angle,
    mixing_angle_from_q,
    q_gamma,
    q_m,
)
from axicav.cavity import MIRROR_1, BeamEnsemble, CavityConfig, run
from axicav.density import (
    GaussianProfile,
    deficit,
    histogram_edges,
    profile_difference,
    single_pass_estimate,
)
from axicav.lattice import compare_growth
from axicav.sensitivity import (
    GrowthFit,
    GrowthSeries,
    center_sideband_series,
    central_loss_series,
    fit_linear,
    fit_power,
    reach,
    scenario_report,
)

# the presets' beam, detector bins and central pixel
BEAM_RATE = 5e18
PROFILE = GaussianProfile(BEAM_RATE, 7.5e-4)
EDGES = histogram_edges(1e-4, 3e-3)  # 30 bins of 0.1 mm out to 3 mm
PIXEL_HALF_WIDTH_M = 1e-6
THETA = 4e-10


def _verdict(num, label, parts):
    """parts: list of (name, ok, info).  Prints one line, asserts the lot."""
    ok = all(p[1] for p in parts)
    detail = "; ".join(f"{name}: {info}" for name, good, info in parts)
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} ({label}) {detail}"
    print(line)
    bad = [f"{name}: {info}" for name, good, info in parts if not good]
    assert ok, f"criterion {num:02d} FAIL ({label}) " + "; ".join(bad)


def _rel(value, target):
    return abs(value - target) / abs(target)


# ---------------------------------------------------------------------------


def test_criterion_01_central_loss_reach_chain():
    """Linear central-loss growth (slope 73907, intercept 274) extrapolated
    to 12000 extractions."""
    fit = GrowthFit(kind="linear", slope=73907.0, intercept=274.0)
    value = fit.evaluate(12000)
    # same chain recovered through an actual least-squares fit
    n = np.arange(1.0, 16.0)
    refit = fit_linear(GrowthSeries(n, 73907.0 * n + 274.0))
    revalue = refit.evaluate(12000)
    parts = [
        ("pinned", value == 886884274.0, f"{value!r}"),
        (
            "within 0.1% of 8.869e8",
            _rel(value, 8.869e8) <= 1e-3,
            f"rel {_rel(value, 8.869e8):.2e}",
        ),
        (
            # the two-significant-figure quote sits 0.35% away by rounding
            # alone, so the coarser figure gets a rounding-width band
            "within 0.5% of the rounded 8.9e8",
            _rel(value, 8.9e8) <= 5e-3,
            f"rel {_rel(value, 8.9e8):.2e}",
        ),
        ("refit agrees", _rel(revalue, value) <= 1e-9, f"{revalue!r}"),
    ]
    _verdict(1, "central-loss reach chain", parts)


def test_criterion_02_sideband_gain_reach_chain():
    """Linear sideband-gain growth (slope 6.41e7, intercept 24793) at 12000
    extractions, and its fraction of the 5e18/s beam."""
    fit = GrowthFit(kind="linear", slope=6.41e7, intercept=24793.0)
    photons = fit.evaluate(12000)
    fraction = reach(photons, BEAM_RATE, 1e-6, 1.0)["signal_fraction"]
    parts = [
        ("pinned", photons == 769200024793.0, f"{photons!r}"),
        (
            "within 1% of 7.69e11",
            _rel(photons, 7.69e11) <= 1e-2,
            f"rel {_rel(photons, 7.69e11):.2e}",
        ),
        (
            "fraction within 1% of 1.54e-7",
            _rel(fraction, 1.54e-7) <= 1e-2,
            f"{fraction!r}",
        ),
    ]
    _verdict(2, "sideband-gain reach chain", parts)


def test_criterion_03_power_law_reach_chains():
    """Super-linear growth laws extrapolated to their working points."""
    strong = GrowthFit(kind="power", coefficient=1.0e9, exponent=2.959).evaluate(1000)
    weak = GrowthFit(kind="power", coefficient=2.2, exponent=2.959).evaluate(15000)
    parts = [
        ("pinned strong", _rel(strong, 7.533555637337178e17) <= 1e-12, f"{strong!r}"),
        (
            "strong within 1% of 7.53e17",
            _rel(strong, 7.53e17) <= 1e-2,
            f"rel {_rel(strong, 7.53e17):.2e}",
        ),
        ("pinned weak", _rel(weak, 5005837142429.729) <= 1e-12, f"{weak!r}"),
        (
            "weak within 1% of 5.00e12",
            _rel(weak, 5.00e12) <= 1e-2,
            f"rel {_rel(weak, 5.00e12):.2e}",
        ),
    ]
    _verdict(3, "power-law reach chains", parts)


def test_criterion_04_minimum_coupling_chains():
    """Noise-matched coupling floors for the three working points, at 1 s and
    at the integration times, using the 1/sqrt(5e18) noise fraction and the
    fourth-root-of-time scaling."""
    confocal = reach(GrowthFit(kind="linear", slope=6.41e7, intercept=24793.0).evaluate(12000),
                     BEAM_RATE, 1e-6, 3e4)
    defocus = reach(GrowthFit(kind="power", coefficient=1.0e9, exponent=2.959).evaluate(1000),
                    BEAM_RATE, 1e-6, 3e4)
    quad = reach(GrowthFit(kind="power", coefficient=2.2, exponent=2.959).evaluate(15000),
                 BEAM_RATE, 1e-10, 3e6)
    noise = confocal["noise_fraction"]
    g_confocal_1s, g_confocal_t = confocal["g_min_1s"], confocal["g_min_integrated"]
    g_defocus_1s, g_defocus_t = defocus["g_min_1s"], defocus["g_min_integrated"]
    g_quad_t = quad["g_min_integrated"]

    report = scenario_report(
        "quad",
        GrowthFit(kind="power", coefficient=2.2, exponent=2.959),
        15000,
        1e-10,
        3e6,
        BEAM_RATE,
    )

    parts = [
        (
            "noise fraction matches 4.47e-10",
            _rel(noise, 4.47e-10) <= 5e-3,
            f"{noise!r}",
        ),
        (
            "confocal 1 s vs 5.4e-8 (5%)",
            _rel(g_confocal_1s, 5.4e-8) <= 5e-2,
            f"{g_confocal_1s!r}",
        ),
        (
            "confocal 3e4 s vs 4.1e-9 (5%)",
            _rel(g_confocal_t, 4.1e-9) <= 5e-2,
            f"{g_confocal_t!r}",
        ),
        (
            "defocusing pair 1 s vs 5.5e-11 (5%)",
            _rel(g_defocus_1s, 5.5e-11) <= 5e-2,
            f"{g_defocus_1s!r}",
        ),
        (
            "defocusing pair 3e4 s vs 4.1e-12 (5%)",
            _rel(g_defocus_t, 4.1e-12) <= 5e-2,
            f"{g_defocus_t!r}",
        ),
        (
            "long-magnet 3e6 s vs 5.1e-14 (5%)",
            _rel(g_quad_t, 5.1e-14) <= 5e-2,
            f"{g_quad_t!r}",
        ),
        (
            "integrated reaches scale as t^(-1/4)",
            g_confocal_t == g_confocal_1s * (3e4) ** -0.25
            and g_defocus_t == g_defocus_1s * (3e4) ** -0.25
            and g_quad_t == quad["g_min_1s"] * (3e6) ** -0.25,
            f"{g_quad_t!r}",
        ),
        (
            "report reproduces the chain",
            report["g_min_integrated"] == g_quad_t,
            f"{report['g_min_integrated']!r}",
        ),
        ("pinned confocal 1 s", _rel(g_confocal_1s, 5.3916644528722695e-08) <= 1e-12, "ok"),
        ("pinned quad 3e6 s", _rel(g_quad_t, 5.0783640327805577e-14) <= 1e-12, "ok"),
    ]
    _verdict(4, "minimum-coupling chains", parts)


def test_criterion_05_single_pass_estimates():
    """Triangle-area single-pass estimate at the weak-coupling working point,
    plus the strong-coupling
    point where the quoted rate differs from the formula by a documented
    factor of two."""
    weak = single_pass_estimate(2e-14, 14.0, 7.5e-4)
    strong = single_pass_estimate(4e-10, 14.0, 7.5e-4)
    quoted_strong = 9.3e7
    ratio = quoted_strong / strong
    parts = [
        ("pinned weak", _rel(weak, 0.11614814814814815) <= 1e-12, f"{weak!r}"),
        (
            "weak vs 1.16e-1 (0.5%)",
            _rel(weak, 1.16e-1) <= 5e-3,
            f"rel {_rel(weak, 1.16e-1):.2e}",
        ),
        (
            "weak within 5% of 1.18e-1",
            _rel(weak, 1.18e-1) <= 5e-2,
            f"rel {_rel(weak, 1.18e-1):.2e}",
        ),
        (
            # quoted strong-coupling rate sits a factor ~2 above the formula;
            # the offset itself is the documented reference point
            "strong-point quoted/computed ratio is the documented 2x",
            1.9 <= ratio <= 2.1,
            f"ratio {ratio!r}, computed {strong!r}",
        ),
    ]
    _verdict(5, "single-pass estimates", parts)


def test_criterion_06_shot_noise_fractions():
    """The 1 s shot noise 1/sqrt(rate) of two beams, whatever their signal."""
    a = reach(0.0, 5.42e15, 1e-6, 1.0)["noise_fraction"]
    b = reach(0.0, 1.92e14, 1e-6, 1.0)["noise_fraction"]
    parts = [
        ("pinned 1/sqrt(5.42e15)", _rel(a, 1.3583145623104031e-08) <= 1e-12, f"{a!r}"),
        ("within 1% of 1.35e-8", _rel(a, 1.35e-8) <= 1e-2, f"rel {_rel(a, 1.35e-8):.2e}"),
        ("pinned 1/sqrt(1.92e14)", _rel(b, 7.216878364870322e-08) <= 1e-12, f"{b!r}"),
        ("within 1% of 7.2e-8", _rel(b, 7.2e-8) <= 1e-2, f"rel {_rel(b, 7.2e-8):.2e}"),
    ]
    _verdict(6, "shot-noise fractions", parts)


def test_criterion_07_mixing_matrix_entries():
    """Mixing-matrix scales at the 1 eV / 1e-12 GeV^-1 / 1 T working point,
    and exactness of maximal mixing."""
    point = MixingParameters(g_a_gev=1e-12, omega_ev=1.0, b_mixing_t=1.0)
    qm = q_m(point)
    qg = q_gamma(point)
    phi_exact = mixing_angle_from_q(qm, 5e-7, 5e-7)
    phi_massless = mixing_angle(point, 0.0)
    parts = [
        (
            "coupling entry within 2x of 1e-19",
            0.5 <= qm / 1e-19 <= 2.0,
            f"{qm!r}",
        ),
        ("pinned coupling entry", _rel(qm, 1.9500000000000002e-19) <= 1e-12, "ok"),
        (
            "birefringence entry within 2x of 3.19e-23",
            0.5 <= 3.19e-23 / qg <= 2.0,
            f"{qg!r} (ratio {3.19e-23 / qg:.3f})",
        ),
        (
            "equal diagonals give pi/4 exactly",
            phi_exact == math.pi / 4,
            f"{phi_exact!r}",
        ),
        (
            "massless physical point within 1e-4 of pi/4",
            abs(phi_massless - math.pi / 4) <= 1e-4,
            f"{phi_massless!r}",
        ),
    ]
    _verdict(7, "mixing-matrix entries", parts)


def test_criterion_08_lattice_growth_comparison():
    """Square-root versus ballistic spreading on the lattice toy, with the
    exact factor-100 reset spread at distance 10000 and the two-pass spectra."""
    t0 = time.perf_counter()
    cmp = compare_growth(10000)

    bif = initial_ensemble()
    pas = initial_ensemble()
    for _ in range(2):
        bif = step_bifurcation(bif)
        pas = step_pascal(pas)
    elapsed = time.perf_counter() - t0

    parts = [
        (
            "reset spread factor exactly 100 at distance 10000",
            cmp.factor_pascal == 100.0,
            f"{cmp.factor_pascal!r}",
        ),
        (
            "conserving spread factor exactly 10000",
            cmp.factor_bifurcation == 10000.0,
            f"{cmp.factor_bifurcation!r}",
        ),
        (
            "conserving log-log slope 1.0 +- 0.05",
            abs(cmp.slope_bifurcation - 1.0) <= 0.05,
            f"{cmp.slope_bifurcation!r}",
        ),
        (
            "reset log-log slope 0.5 +- 0.05",
            abs(cmp.slope_pascal - 0.5) <= 0.05,
            f"{cmp.slope_pascal!r}",
        ),
        (
            "conserving two-pass spectrum {+2, 0, 0, -2}",
            momentum_spectrum(bif) == [-2, 0, 0, 2],
            f"{momentum_spectrum(bif)}",
        ),
        (
            "reset two-pass spectrum {+1, -1, +1, -1}",
            momentum_spectrum(pas) == [-1, -1, 1, 1],
            f"{momentum_spectrum(pas)}",
        ),
        ("runtime under 10 s", elapsed < 10.0, f"{elapsed:.3f} s"),
    ]
    _verdict(8, "lattice growth comparison", parts)


# ---------------------------------------------------------------------------
# engine-level criteria share one reference run


def _traversals_and_moments(cfg):
    """A run's snapshots as the series builders take them."""
    return list(cfg.snapshot_traversals), run_moments(cfg, PROFILE.waist_m)


@pytest.fixture(scope="module")
def confocal_run():
    """The confocal configuration, and the moment vectors of its snapshots
    with the field on and off."""
    cfg = CavityConfig()  # 15 traversals at theta 4e-10
    return (cfg, run_moments(cfg, PROFILE.waist_m),
            run_moments(replace(cfg, theta_split_rad=0.0), PROFILE.waist_m))


def test_criterion_09_difference_histogram_sign_structure(confocal_run):
    """After 15 traversals the field-off minus field-on histogram shows loss
    (positive) inside the core and gain (negative) in the shoulders, with a
    single crossing within one bin of 0.75 mm."""
    cfg, signal, reference = confocal_run
    counts = profile_difference(reference[-1], signal[-1], PROFILE, EDGES)
    signs = np.sign(counts)
    flips = np.nonzero(np.diff(signs))[0]
    crossing_m = EDGES[flips[0] + 1] if len(flips) == 1 else math.nan
    below = counts[EDGES[1:] <= 0.75e-3 + 1e-12]  # bins fully below 0.75 mm
    above = counts[EDGES[:-1] >= 0.85e-3 - 1e-12]  # bins fully beyond the crossing band
    parts = [
        ("bins below 0.75 mm all positive", bool(np.all(below > 0)), f"{len(below)} bins"),
        ("bins beyond all negative", bool(np.all(above < 0)), f"{len(above)} bins"),
        ("exactly one sign change", len(flips) == 1, f"{len(flips)} changes"),
        (
            "crossing within one bin of 0.75 mm",
            abs(crossing_m - 0.75e-3) <= 1e-4 + 1e-12,
            f"at {crossing_m * 1e3:.2f} mm",
        ),
    ]
    _verdict(9, "difference-histogram sign structure", parts)


def test_criterion_10_central_loss_linearity(confocal_run):
    """Central-pixel loss versus traversal count is linear to R^2 > 0.99
    over the 15 refocusing-cavity traversals."""
    cfg, _, _ = confocal_run
    series = central_loss_series(*_traversals_and_moments(cfg), PROFILE, PIXEL_HALF_WIDTH_M)
    fit = fit_linear(series)
    parts = [
        ("15 points", len(series) == 15, f"{len(series)}"),
        ("R^2 > 0.99", fit.r_squared > 0.99, f"{fit.r_squared!r}"),
        (
            # the fit of the mpmath oracle's series (tests/test_oracle.py)
            "pinned R^2",
            _rel(fit.r_squared, 0.9917529346504957) <= 1e-9,
            "ok",
        ),
    ]
    _verdict(10, "central-loss linearity", parts)


def test_criterion_11_defocusing_pair_superquadratic_growth():
    """The defocusing-mirror cavity spreads photons super-quadratically with
    traversal count; the exponent is measured and recorded, the criterion is
    exponent > 2."""
    cfg = CavityConfig(
        mirror2_focal_m=-5.5, extraction_mirror=MIRROR_1, theta_split_rad=1e-9, n_traversals=20
    )
    series = center_sideband_series(*_traversals_and_moments(cfg), PROFILE)
    fit = fit_power(series)
    parts = [
        ("exponent > 2", fit.exponent > 2.0, f"measured {fit.exponent!r}"),
        (
            # the fit of the mpmath oracle's series on the coalesced
            # snapshots (tests/test_oracle.py)
            "pinned exponent",
            _rel(fit.exponent, 2.934104619375521) <= 1e-9,
            "ok",
        ),
        ("fit quality R^2 > 0.99", fit.r_squared > 0.99, f"{fit.r_squared!r}"),
    ]
    _verdict(11, "defocusing-pair super-quadratic growth", parts)


def test_criterion_12_invariant_suite(confocal_run, monkeypatch):
    """Engine invariants: long-run weight conservation, bitwise null test,
    closed-form detector oracle, the profile curve against a brute-force
    pair, redistribution sum rule, and ensemble symmetry."""
    cfg, signal, reference = confocal_run

    # (a) weight conservation over 1000 traversals with coarse merging
    with monkeypatch.context() as patch:
        patch.setattr(cavity, "COALESCE_TOL_POSITION_M", 1e-8)
        patch.setattr(cavity, "COALESCE_TOL_ANGLE_RAD", 1e-7)
        long_run = run(CavityConfig(n_traversals=1000))
    drift = abs(math.fsum(long_run.final.weights.tolist()) - 1.0)

    # (b) null test: zero split angle leaves no bitwise trace at the detector
    null_cfg = replace(cfg, theta_split_rad=0.0)
    null_run, null_beams = run_with_detector_beams(null_cfg)
    null_zero = True
    for m, ens in zip(reference, null_beams, strict=True):
        d = profile_difference(m, beam_moments(ens, PROFILE.waist_m), PROFILE, EDGES)
        null_zero = null_zero and bool(np.all(d == 0.0))
    null_positions = bool(
        np.all(null_beams[-1].positions == 0.0)
        and null_run.snapshots[-1].ensemble.max_angle == 0.0
    )

    # (c) one-traversal detector snapshot against the closed form
    r0, a0 = 1e-5, 2e-6
    one, (e,) = run_with_detector_beams(
        CavityConfig(n_traversals=1),
        start=BeamEnsemble([r0], [a0], [1.0]),
    )
    centroid = r0 + a0 * (cfg.field_length_m + 2 * cfg.gap_m + cfg.detector_distance_m)
    want_pos = np.sort([centroid - THETA * 18.0, centroid + THETA * 18.0])
    want_ang = np.sort([a0 - 2 * THETA, a0 + 2 * THETA])
    oracle_ok = bool(
        np.all(np.abs(np.sort(e.positions) - want_pos) <= 1e-12 * np.abs(want_pos))
        and np.all(np.abs(np.sort(e.angles) - want_ang) <= 1e-12 * np.abs(want_ang))
        and one.snapshots[0].ensemble.max_angle == float(np.abs(e.angles).max())
    )

    # (d) the shipped deficit curve vs the brute-force displaced pair at
    # alpha = 0.01 waist; the pair's 1/e half-width r is sqrt(2) times the
    # profile's rms width
    alpha = 0.01 * PROFILE.waist_m
    xs = np.linspace(0.0, 3 * PROFILE.waist_m, 601)
    r = math.sqrt(2) * PROFILE.waist_m
    brute = PROFILE.amplitude_photons_per_s * np.exp(-(xs**2) / r**2) - 0.5 * PROFILE.amplitude_photons_per_s * (
        np.exp(-((xs - alpha) ** 2) / r**2) + np.exp(-((xs + alpha) ** 2) / r**2)
    )
    approx = deficit(xs, alpha, 0.0, PROFILE)
    mask = np.abs(brute) > 1e-12 * np.abs(brute).max()
    brute_rel = float(np.max(np.abs(approx[mask] - brute[mask]) / np.abs(brute[mask])))

    # (e) redistribution: over a wide window the difference histogram sums to
    # zero relative to the photons it moves around
    wide = histogram_edges(1e-4, 6e-3)
    diff_wide = profile_difference(reference[-1], signal[-1], PROFILE, wide)
    moved = 2.0 * float(np.sum(np.abs(diff_wide)))  # both detector halves
    leak = abs(math.fsum(diff_wide.tolist())) / moved

    # (f) ensemble symmetry at the detector (a snapshot keeps only its beam
    # count and largest |angle|, so the beams come from the detector leg,
    # run again)
    sym_ok = True
    sym_worst = 0.0
    signal_run, signal_beams = run_with_detector_beams(cfg)
    for k in (0, 7, -1):
        ens = signal_beams[k]
        scale_p = float(np.max(np.abs(ens.positions)))
        scale_a = signal_run.snapshots[k].ensemble.max_angle
        mp = abs(math.fsum((ens.weights * ens.positions).tolist()))
        ma = abs(math.fsum((ens.weights * ens.angles).tolist()))
        sym_worst = max(sym_worst, mp / scale_p, ma / scale_a)
        sym_ok = sym_ok and mp <= 1e-15 * scale_p and ma <= 1e-15 * scale_a

    parts = [
        ("1000-traversal weight drift <= 1e-12", drift <= 1e-12, f"{drift!r}"),
        ("null test bitwise zero", null_zero and null_positions, "all bins 0.0"),
        ("closed-form detector oracle to 1e-12", oracle_ok, "both branches"),
        (
            "profile curve within 1% of brute force",
            brute_rel < 1e-2,
            f"max rel {brute_rel!r}",
        ),
        ("redistribution signed sum -> 0", leak <= 1e-3, f"leak {leak!r}"),
        (
            "mean position/angle symmetric to 1e-15 of scale",
            sym_ok,
            f"worst {sym_worst!r}",
        ),
    ]
    _verdict(12, "invariant suite", parts)
