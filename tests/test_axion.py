import math
import random
from dataclasses import replace

import numpy as np
import pytest

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
POINT = MixingParameters(omega_ev=1.0, g_a_gev=1e-12, b_field_t=1.0, mass_ev=0.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        MixingParameters(omega_ev=0.0)
    with pytest.raises(ValueError):
        MixingParameters(g_a_gev=-1e-12)
    with pytest.raises(ValueError):
        MixingParameters(mass_ev=-1e-10)


def test_coupling_unit_conversion():
    assert MixingParameters(g_a_gev=1e-6).g_a_ev == 1e-15


def test_coupling_matrix_entry():
    assert q_m(POINT) == pytest.approx(1.9500000000000002e-19, rel=1e-12)
    assert q_m(MixingParameters(g_a_gev=0.0)) == 0.0


def test_coupling_entry_is_linear_in_each_factor():
    base = q_m(POINT)
    assert q_m(MixingParameters(2.0, 1e-12, 1.0)) == pytest.approx(2 * base, rel=1e-12)
    assert q_m(MixingParameters(1.0, 2e-12, 1.0)) == pytest.approx(2 * base, rel=1e-12)
    assert q_m(MixingParameters(1.0, 1e-12, 2.0)) == pytest.approx(2 * base, rel=1e-12)


def test_birefringence_entry():
    assert q_gamma(POINT) == pytest.approx(1.857906273816621e-23, rel=1e-12)
    assert q_gamma(MixingParameters(b_field_t=0.0)) == 0.0


def test_birefringence_scales_with_squares():
    base = q_gamma(POINT)
    assert q_gamma(MixingParameters(omega_ev=2.0)) == pytest.approx(4 * base, rel=1e-12)
    assert q_gamma(MixingParameters(b_field_t=3.0)) == pytest.approx(9 * base, rel=1e-12)


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
    phi = mixing_angle(POINT)
    assert phi == pytest.approx(0.7853743440862635, rel=1e-12)
    assert abs(phi - math.pi / 4) < 1e-4
    assert suppression_factor(POINT) == pytest.approx(0.9999999977305616, rel=1e-12)


def test_large_mass_angle_and_suppression_tails():
    heavy = MixingParameters(1.0, 1e-12, 1.0, 1e-5)
    phi = mixing_angle(heavy)
    # tail: phi ~ q_m / m^2
    assert phi == pytest.approx(q_m(heavy) / 1e-10, rel=1e-6)
    assert phi == pytest.approx(1.9499999999996378e-09, rel=1e-12)
    assert suppression_factor(heavy) == pytest.approx(1.520999999999435e-17, rel=1e-12)


def _scan_cases():
    rng = random.Random(5)
    for _ in range(40):
        p = MixingParameters(
            omega_ev=10 ** rng.uniform(-1.0, 1.0),
            g_a_gev=10 ** rng.uniform(-14.0, -6.0),
            b_field_t=rng.uniform(0.0, 10.0),
        )
        masses = [0.0] + [10 ** rng.uniform(-12.0, -2.0) for _ in range(50)]
        yield p, masses
    # no coupling: phi = 0 for every mass, as long as the field is on
    yield MixingParameters(1.0, 0.0, 1.0), [0.0, 1e-9, 1e-3]


@pytest.mark.parametrize("p, masses", list(_scan_cases()))
def test_mass_scan_matches_the_per_point_functions_bitwise(p, masses):
    expect = [
        (mixing_angle(replace(p, mass_ev=m)), suppression_factor(replace(p, mass_ev=m)))
        for m in masses
    ]
    phi, sup = mass_scan(p, masses)
    assert phi.dtype == sup.dtype == np.float64
    assert [(a.hex(), s.hex()) for a, s in zip(phi.tolist(), sup.tolist())] == [
        (a.hex(), s.hex()) for a, s in expect
    ]


def test_mass_scan_ignores_the_mass_of_its_parameters():
    heavy, light = mass_scan(replace(POINT, mass_ev=1e-3), [0.0]), mass_scan(POINT, [0.0])
    assert [a.tobytes() for a in heavy] == [a.tobytes() for a in light]


def test_mass_scan_refuses_what_the_per_point_functions_refuse():
    # no field and no coupling: at zero mass all three entries vanish; any
    # mass breaks the tie
    off = MixingParameters(1.0, 0.0, 0.0)
    with pytest.raises(DegenerateMixingError):
        mixing_angle(off)
    with pytest.raises(DegenerateMixingError):
        mass_scan(off, [1e-9, 0.0])
    assert [a.tolist() for a in mass_scan(off, [1e-9])] == [[0.0], [0.0]]
    with pytest.raises(ValueError, match="mass must be >= 0"):
        mass_scan(POINT, [1e-9, -1e-9])


def test_suppression_decreases_monotonically_with_mass():
    masses = [0.0, 1e-10, 3e-10, 1e-9, 1e-8, 1e-7, 1e-5]
    vals = [
        suppression_factor(MixingParameters(1.0, 1e-12, 1.0, m)) for m in masses
    ]
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
        MixingParameters(1.0, 1e-12, 1e-6, 0.0),
        MixingParameters(2.0, 3e-10, 5.0, 0.0),
    ],
    ids=["point", "weak-field", "strong-coupling"],
)
def test_max_mass_brackets_the_threshold_crossing(point, threshold):
    """The suppression just below the returned mass still reaches the
    threshold and just above it no longer does."""
    m = max_measurable_mass(point, threshold)

    def supp(mass):
        return suppression_factor(
            MixingParameters(point.omega_ev, point.g_a_gev, point.b_field_t, mass)
        )

    assert supp(m * (1 - 1e-9)) >= threshold > supp(m * (1 + 1e-9))


def test_half_suppression_mass_with_negligible_birefringence():
    weak_field = MixingParameters(1.0, 1e-12, 1e-6, 0.0)
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
