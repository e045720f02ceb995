import math
import random
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from axicav import scenario
from axicav.axion import (
    DEFAULT_CALIBRATION,
    DegenerateMixingError,
    MixingParameters,
    SplitCalibration,
    mass_scan,
    max_measurable_mass,
    mixing_angle,
    mixing_angle_from_q,
    q_a,
    q_gamma,
    q_m,
    suppression_factor,
    theta_split_from_coupling,
)

# worked point: 1 eV photons, 1e-12 GeV^-1 coupling, 1 T mixing field
POINT = MixingParameters(g_a_gev=1e-12, omega_ev=1.0, b_mixing_t=1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        MixingParameters(omega_ev=0.0)
    with pytest.raises(ValueError):
        MixingParameters(g_a_gev=-1e-12)
    with pytest.raises(ValueError, match="^mass must be >= 0"):
        mixing_angle(POINT, -1e-10)


def test_coupling_unit_conversion():
    assert MixingParameters(g_a_gev=1e-6).g_a_ev == 1e-15


def test_coupling_matrix_entry():
    assert q_m(POINT) == pytest.approx(1.9500000000000002e-19, rel=1e-12)
    assert q_m(MixingParameters(g_a_gev=0.0)) == 0.0


def test_coupling_entry_is_linear_in_each_factor():
    base = q_m(POINT)
    assert q_m(MixingParameters(omega_ev=2.0)) == pytest.approx(2 * base, rel=1e-12)
    assert q_m(MixingParameters(g_a_gev=2e-12)) == pytest.approx(2 * base, rel=1e-12)
    assert q_m(MixingParameters(b_mixing_t=2.0)) == pytest.approx(2 * base, rel=1e-12)


def test_birefringence_entry():
    assert q_gamma(POINT) == pytest.approx(1.857906273816621e-23, rel=1e-12)
    assert q_gamma(MixingParameters(b_mixing_t=0.0)) == 0.0


def test_birefringence_scales_with_squares():
    base = q_gamma(POINT)
    assert q_gamma(MixingParameters(omega_ev=2.0)) == pytest.approx(4 * base, rel=1e-12)
    assert q_gamma(MixingParameters(b_mixing_t=3.0)) == pytest.approx(9 * base, rel=1e-12)


def test_mass_entry_is_negative_mass_squared():
    assert q_a(0.0) == 0.0
    assert q_a(1e-5) == pytest.approx(-1e-10, rel=1e-15)
    with pytest.raises(ValueError):
        q_a(-1e-5)


def test_equal_diagonals_give_exactly_quarter_pi():
    phi = mixing_angle_from_q(q_m(POINT), 5e-7, 5e-7)
    assert phi == math.pi / 4


def test_degenerate_matrix_is_rejected():
    with pytest.raises(DegenerateMixingError):
        mixing_angle_from_q(0.0, 1e-20, 1e-20)


def test_mixing_angle_is_continuous_across_the_diagonal_crossing():
    lo = mixing_angle_from_q(1e-20, -1e-30, 0.0)
    hi = mixing_angle_from_q(1e-20, +1e-30, 0.0)
    assert abs(hi - lo) < 1e-10
    assert lo == pytest.approx(math.pi / 4, rel=1e-9)


def test_massless_point_sits_at_near_maximal_mixing():
    """The tiny birefringence term keeps the physical massless angle a hair
    under pi/4."""
    phi = mixing_angle(POINT, 0.0)
    assert phi == pytest.approx(0.7853743440862635, rel=1e-12)
    assert abs(phi - math.pi / 4) < 1e-4
    assert suppression_factor(POINT, 0.0) == pytest.approx(0.9999999977305616, rel=1e-12)


def test_large_mass_angle_and_suppression_tails():
    phi = mixing_angle(POINT, 1e-5)
    # tail: phi ~ q_m / m^2
    assert phi == pytest.approx(q_m(POINT) / 1e-10, rel=1e-6)
    assert phi == pytest.approx(1.9499999999996378e-09, rel=1e-12)
    assert suppression_factor(POINT, 1e-5) == pytest.approx(1.520999999999435e-17, rel=1e-12)


def _scan_cases():
    rng = random.Random(5)
    for _ in range(40):
        p = MixingParameters(
            omega_ev=10 ** rng.uniform(-1.0, 1.0),
            g_a_gev=10 ** rng.uniform(-14.0, -6.0),
            b_mixing_t=rng.uniform(0.0, 10.0),
        )
        masses = [0.0] + [10 ** rng.uniform(-12.0, -2.0) for _ in range(50)]
        yield p, masses
    # no coupling: phi = 0 for every mass, as long as the field is on
    yield MixingParameters(g_a_gev=0.0), [0.0, 1e-9, 1e-3]
    # the log grid of the benchmark's reach-analysis op, built as mass-scan --log builds it
    exponents = np.linspace(math.log10(1e-9), math.log10(1e-4), 20000)
    yield POINT, [math.pow(10.0, y) for y in exponents.tolist()]


@pytest.mark.parametrize("p, masses", list(_scan_cases()))
def test_mass_scan_matches_the_per_point_functions_bitwise(p, masses):
    expect = [(mixing_angle(p, m), suppression_factor(p, m)) for m in masses]
    phi, sup = mass_scan(p, masses)
    assert phi.dtype == sup.dtype == np.float64
    assert [(a.hex(), s.hex()) for a, s in zip(phi.tolist(), sup.tolist())] == [
        (a.hex(), s.hex()) for a, s in expect
    ]


@pytest.mark.parametrize("p, masses", list(_scan_cases()))
def test_suppression_is_the_unscaled_closed_form_where_no_square_leaves_the_range(p, masses):
    """Scaling t = 2 Qm and d = Qgamma - Qa by a power of two changes no bit
    of t^2 / (t^2 + d^2) where no square overflows or underflows."""
    t = 2.0 * q_m(p)
    expect = [t * t / (t * t + d * d) for d in (q_gamma(p) - q_a(m) for m in masses)]
    assert [s.hex() for s in mass_scan(p, masses)[1].tolist()] == [s.hex() for s in expect]


CONFOCAL = scenario.load_preset("confocal").axion


def _ulp_errors(p, masses, values) -> np.ndarray:
    """|value - exact| in units of the exact value's ulp, the exact value
    being 4 Qm^2 / (4 Qm^2 + (Qgamma + m^2)^2) at 40 digits, of the
    doubles Qm, Qgamma and m."""
    with mp.workdps(40):
        t, qgamma = 2 * mp.mpf(q_m(p)), mp.mpf(q_gamma(p))
        errors = []
        for m, v in zip(masses, values):
            exact = t**2 / (t**2 + (qgamma + mp.mpf(m) ** 2) ** 2)
            errors.append(float(abs(mp.mpf(v) - exact) / math.ulp(float(exact))))
    return np.array(errors)


def test_suppression_is_no_less_accurate_than_the_sine_of_the_angle():
    """On the golden mass-scan grid (tests/test_golden_analysis.py) and on
    seeded random masses, the closed form's largest and mean error against
    mpmath are no larger than those of sin(2 phi)^2 of the computed angle."""
    rng = random.Random(33)
    grid = np.linspace(math.log10(1e-9), math.log10(1e-4), 20000).tolist()
    for masses in ([math.pow(10.0, y) for y in grid],
                   [10 ** rng.uniform(-12.0, -2.0) for _ in range(20000)]):
        closed = _ulp_errors(CONFOCAL, masses, mass_scan(CONFOCAL, masses)[1].tolist())
        sine = _ulp_errors(CONFOCAL, masses, [
            math.sin(2.0 * mixing_angle(CONFOCAL, m)) ** 2 for m in masses
        ])
        assert closed.max() <= sine.max() and closed.mean() <= sine.mean()
        assert closed.max() < 4.5


@pytest.mark.parametrize(
    "p, mass",
    [
        # (2 Qm)^2 underflows to 0 unscaled; the suppression is a normal double
        (replace(POINT, g_a_gev=1e-160), 0.0),
        (replace(POINT, g_a_gev=1e-160), 1e-5),
        # (2 Qm)^2 overflows unscaled (inf / inf)
        (replace(POINT, g_a_gev=1e162), 1e70),
        # (Qgamma + m^2)^2 overflows unscaled
        (replace(POINT, g_a_gev=1e160), 1e80),
        (POINT, 1e100),
        # both squares underflow unscaled (0 / 0)
        (replace(POINT, g_a_gev=1e-120, b_mixing_t=1e-100), 1e-112),
    ],
)
def test_suppression_stays_accurate_where_an_unscaled_square_leaves_the_range(p, mass):
    sup = suppression_factor(p, mass)
    assert 0.0 <= sup <= 1.0
    assert _ulp_errors(p, [mass], [sup])[0] <= 4.5


def test_float_power_is_the_c_librarys_pow():
    """The masses' squares, `mass-scan --log`'s grid and `pascal`'s marks
    take pow from np.float_power: numpy has no SIMD kernel for it, so it is
    the C library's pow on every kernel.  A numpy that dispatches it to one
    fails here, on whichever kernel the tests run."""
    introspect = pytest.importorskip("numpy.lib.introspect")
    assert introspect.opt_func_info(func_name="^float_power$") == {}
    rng = np.random.default_rng(33)
    bases = np.concatenate([  # squares from subnormal to near the largest double
        rng.uniform(0.5, 1.0, 50_000) * np.exp2(rng.integers(-600, 512, 50_000)),
        rng.uniform(0.0, 1e-2, 50_000),
    ])
    exponents = np.concatenate([
        rng.uniform(-320.0, 308.0, 50_000),
        # the golden grid, and grids like the benchmark's (1e-9..1e-8 to 1e-4..1e-3 eV)
        np.linspace(math.log10(1e-9), math.log10(1e-4), 20000),
        *(np.linspace(math.log10(10 ** rng.uniform(-9.0, -8.0)),
                      math.log10(10 ** rng.uniform(-4.0, -3.0)), 20000) for _ in range(5)),
    ])
    squares = [math.pow(b, 2.0) for b in bases.tolist()]
    tens = [math.pow(10.0, y) for y in exponents.tolist()]
    assert np.float_power(bases, 2.0).tobytes() == np.array(squares).tobytes()
    assert np.float_power(10.0, exponents).tobytes() == np.array(tens).tobytes()


OFF = MixingParameters(g_a_gev=0.0, b_mixing_t=0.0)  # degenerate at zero mass


def test_mass_scan_refuses_what_the_per_point_functions_refuse():
    # no field and no coupling: at zero mass all three entries vanish; any
    # mass breaks the tie
    with pytest.raises(DegenerateMixingError):
        mixing_angle(OFF, 0.0)
    with pytest.raises(DegenerateMixingError):
        mass_scan(OFF, [1e-9, 0.0])
    assert [a.tolist() for a in mass_scan(OFF, [1e-9])] == [[0.0], [0.0]]
    with pytest.raises(ValueError, match="mass must be >= 0"):
        mass_scan(POINT, [1e-9, -1e-9])


@pytest.mark.parametrize(
    "masses, error, match",
    [
        ([1e-9, 0.0, -1e-9], DegenerateMixingError, "all Q entries equal"),
        ([1e-9, -1e-9, 0.0], ValueError, "^mass must be >= 0"),
        ([math.nan, 0.0], ValueError, "^mass must be >= 0"),
        ([0.0, 1e200], DegenerateMixingError, "all Q entries equal"),
        ([1e200, 0.0], ValueError, "^mass must square to a finite double, got 1e\\+200 eV"),
        ([-1e-9, 1e200], ValueError, "^mass must be >= 0"),
        ([1e200, -1e-9], ValueError, "^mass must square"),
    ],
)
def test_the_first_mass_refused_decides_the_error(masses, error, match):
    """The scan validates whole arrays, yet raises what the per-point
    functions raise at the first mass they refuse."""
    with pytest.raises(error, match=match):
        mass_scan(OFF, masses)
    with pytest.raises(error, match=match):
        for m in masses:
            mixing_angle_from_q(q_m(OFF), q_gamma(OFF), q_a(m))


def test_an_infinite_coupling_entry_is_refused():
    """A point is refused when it is built, so no function of it meets an
    infinite Qm; a point built by replacing a field is checked too."""
    with pytest.raises(ValueError, match=r"^omega_ev, g_a_gev and b_mixing_t must give a finite Qm, "
                                         r"got 10000000000.0 eV, 1e\+308 GeV\^-1 and 1.0 T$"):
        MixingParameters(g_a_gev=1e308, omega_ev=1e10)
    with pytest.raises(ValueError, match="finite Qm"):
        replace(POINT, g_a_gev=1e308, omega_ev=1e10)


def test_a_coupling_entry_whose_double_overflows_is_refused():
    """Qm = 9.75e307 is finite, but the mixing angle and the suppression
    read 2 Qm, which is not: the point is refused, as it would otherwise
    scan into a NaN suppression and an infinite half-suppression mass."""
    assert q_m(MixingParameters(g_a_gev=1e308, omega_ev=4e6)) * 2.0 < math.inf
    with pytest.raises(ValueError, match=r"^omega_ev, g_a_gev and b_mixing_t must give a finite "
                                         r"2 Qm, got 5000000.0 eV, 1e\+308 GeV\^-1 and 1.0 T$"):
        MixingParameters(g_a_gev=1e308, omega_ev=5e6)


def test_squares_past_a_double_are_refused_by_name():
    with pytest.raises(ValueError, match="^mass must square to a finite double"):
        q_a(1e155)
    assert q_a(1e154) == -(1e154**2)
    with pytest.raises(ValueError, match=r"^omega_ev and b_mixing_t must give a finite Qgamma, "
                                         r"got 1.0 eV and 1e\+300 T$"):
        MixingParameters(b_mixing_t=1e300)
    # no square overflows, but their product does
    with pytest.raises(ValueError, match="finite Qgamma"):
        MixingParameters(omega_ev=1e154, b_mixing_t=1e20)
    with pytest.raises(ValueError, match="finite Qgamma"):
        replace(POINT, b_mixing_t=1e300)


def test_suppression_decreases_monotonically_with_mass():
    masses = [0.0, 1e-10, 3e-10, 1e-9, 1e-8, 1e-7, 1e-5]
    vals = [suppression_factor(POINT, m) for m in masses]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_half_suppression_mass_closed_form():
    """sin^2(2 phi) = 0.5 happens where the diagonal gap equals 2 Q_M, i.e.
    m^2 = 2 Q_M - Q_gamma; max_measurable_mass must land on that root."""
    got = max_measurable_mass(POINT, threshold=0.5)
    expect = math.sqrt(2 * q_m(POINT) - q_gamma(POINT))
    assert got == pytest.approx(expect, rel=1e-9)
    assert got == pytest.approx(6.244849245075993e-10, rel=1e-12)


@pytest.mark.parametrize("threshold", [0.1, 0.5, 0.9])
@pytest.mark.parametrize(
    "point",
    [
        POINT,
        MixingParameters(b_mixing_t=1e-6),
        MixingParameters(g_a_gev=3e-10, omega_ev=2.0, b_mixing_t=5.0),
    ],
    ids=["point", "weak-field", "strong-coupling"],
)
def test_max_mass_brackets_the_threshold_crossing(point, threshold):
    """The suppression just below the returned mass still reaches the
    threshold and just above it no longer does."""
    m = max_measurable_mass(point, threshold)

    assert suppression_factor(point, m * (1 - 1e-9)) >= threshold > suppression_factor(
        point, m * (1 + 1e-9)
    )


def test_half_suppression_mass_with_negligible_birefringence():
    weak_field = MixingParameters(b_mixing_t=1e-6)
    got = max_measurable_mass(weak_field, threshold=0.5)
    assert got == pytest.approx(math.sqrt(2 * q_m(weak_field)), rel=1e-6)


def test_tighter_threshold_means_lighter_reach():
    loose = max_measurable_mass(POINT, threshold=0.5)
    tight = max_measurable_mass(POINT, threshold=0.9)
    assert tight < loose


def test_max_mass_validation():
    with pytest.raises(ValueError):
        max_measurable_mass(POINT, threshold=1.5)
    with pytest.raises(ValueError):
        max_measurable_mass(MixingParameters(g_a_gev=0.0), threshold=0.5)
    with pytest.raises(ValueError):
        # the massless suppression already sits below this threshold
        max_measurable_mass(POINT, threshold=0.99999999999)


# --- split-angle calibration -------------------------------------------------


def test_calibration_anchor_is_exact():
    theta = theta_split_from_coupling(1e-6, 200.0, 10.0)
    assert theta == 4e-10


def test_calibration_is_linear_in_each_argument():
    base = theta_split_from_coupling(1e-6, 200.0, 10.0)
    assert theta_split_from_coupling(5e-7, 200.0, 10.0) == pytest.approx(
        base / 2, rel=1e-15
    )
    assert theta_split_from_coupling(1e-6, 400.0, 10.0) == pytest.approx(
        2 * base, rel=1e-15
    )
    assert theta_split_from_coupling(1e-6, 200.0, 1.0) == pytest.approx(
        base / 10, rel=1e-15
    )


def test_calibration_weak_coupling_short_magnet():
    theta = theta_split_from_coupling(1e-10, 100.0, 1.0)
    assert theta == pytest.approx(2e-15, rel=1e-12)


def test_calibration_validation():
    with pytest.raises(ValueError):
        theta_split_from_coupling(-1e-6, 200.0, 10.0)
    with pytest.raises(ValueError):
        SplitCalibration(theta_ref_rad=0.0)
    assert DEFAULT_CALIBRATION.theta_ref_rad == 4e-10
    assert theta_split_from_coupling(0.0, 200.0, 10.0) == 0.0
