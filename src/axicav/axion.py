"""Two-state photon-axion mixing and the coupling-to-splitting calibration.

Everything is expressed in eV-based natural units: the coupling enters in
GeV^-1 (the unit sensitivities are quoted in) and is converted to eV^-1
internally, magnetic fields are converted through 195 eV^2 per tesla, and
the three mixing-matrix entries carry eV^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .checks import NonNegative, Positive, check_args, check_fields

FINE_STRUCTURE = 1.0 / 137.036
CRITICAL_FIELD_T = 4.41e9
TESLA_TO_EV2 = 195.0
GEV_INV_TO_EV_INV = 1e-9


class DegenerateMixingError(ValueError):
    """Mixing angle requested where both matrix entries vanish."""


@dataclass(frozen=True)
class MixingParameters:
    """One mixing point, the scenario's `[axion]` section: coupling, photon
    energy and mixing field.  The axion mass is not part of it: the
    functions that need one take it as an argument.  A point whose Qgamma,
    Qm or 2 Qm overflows a double is refused when it is built, so no
    function of a point checks them again."""

    g_a_gev: NonNegative = 1e-12  # axion-photon coupling, GeV^-1
    omega_ev: Positive = 1.0
    b_mixing_t: NonNegative = 1.0

    def __post_init__(self):
        check_fields(self, ValueError)
        if q_gamma(self) == math.inf:
            raise ValueError(
                f"omega_ev and b_mixing_t must give a finite Qgamma, "
                f"got {self.omega_ev!r} eV and {self.b_mixing_t!r} T"
            )
        qm = q_m(self)
        if 2.0 * qm == math.inf:  # the mixing angle and the suppression read 2 Qm
            raise ValueError(
                f"omega_ev, g_a_gev and b_mixing_t must give a finite "
                f"{'Qm' if qm == math.inf else '2 Qm'}, "
                f"got {self.omega_ev!r} eV, {self.g_a_gev!r} GeV^-1 and {self.b_mixing_t!r} T"
            )

    @property
    def g_a_ev(self) -> float:
        return self.g_a_gev * GEV_INV_TO_EV_INV


def q_m(p: MixingParameters) -> float:
    """Off-diagonal coupling entry omega * g * B, in eV^2."""
    return p.omega_ev * p.g_a_ev * p.b_mixing_t * TESLA_TO_EV2


def q_gamma(p: MixingParameters) -> float:
    """Photon diagonal entry from vacuum birefringence,
    omega^2 * (7 alpha / 45 pi) * (B / B_crit)^2, in eV^2; inf where it
    overflows a double."""
    try:
        return (
            p.omega_ev**2
            * (7.0 * FINE_STRUCTURE / (45.0 * math.pi))
            * (p.b_mixing_t / CRITICAL_FIELD_T) ** 2
        )
    except OverflowError:  # a square overflowed
        return math.inf


def q_a(mass_ev: float) -> float:
    """Axion diagonal entry, -mass^2 in eV^2.  A mass that is negative, NaN
    or whose square overflows a double is refused."""
    if not mass_ev >= 0:
        raise ValueError("mass must be >= 0")
    try:
        return -(mass_ev**2)
    except OverflowError:
        raise ValueError(f"mass must square to a finite double, got {mass_ev!r} eV") from None


def mixing_angle_from_q(qm: float, qgamma: float, qa: float) -> float:
    """Half the rotation diagonalizing the 2x2 mixing matrix:
    phi = atan2(2 Qm, Qgamma - Qa) / 2.  Equal diagonal entries with any
    coupling give exactly pi/4 (maximal mixing)."""
    diag = qgamma - qa
    if qm == 0.0 and diag == 0.0:
        raise DegenerateMixingError("mixing angle undefined: all Q entries equal")
    return 0.5 * math.atan2(2.0 * qm, diag)


def mixing_angle(p: MixingParameters, mass_ev: float) -> float:
    return mixing_angle_from_q(q_m(p), q_gamma(p), q_a(mass_ev))


def suppression_factor(p: MixingParameters, mass_ev: float) -> float:
    """Signal reduction for a massive axion relative to maximal mixing:
    sin^2(2 phi), equal to 1 when phi = pi/4 and falling toward 0 as the
    mass term dominates; the value `mass_scan` gives for ``mass_ev``."""
    return mass_scan(p, [mass_ev])[1].item()


def mass_scan(p: MixingParameters, masses) -> tuple[np.ndarray, np.ndarray]:
    """The columns ``(mixing_angle, suppression_factor)`` of ``p`` at each
    of ``masses`` (a 1-D sequence or array) in turn, as float arrays; the
    angles bit for bit `mixing_angle`'s.

    Qm and Qgamma do not depend on the mass, so they are computed once.
    The square m^2 is np.float_power's, numpy's plain loop over the C
    library's pow (it has no SIMD kernel, and numpy's power gives other
    last bits on other kernels), so it is the per-point m**2.  The one
    C-library call made per mass from Python is atan2, through ``map``
    (a memoryview yields an array's values as Python floats, one at a
    time, as fast as a list would and without building one).  The
    suppression is the closed form sin^2(2 phi) = t^2 / (t^2 + d^2),
    t = 2 Qm and d = Qgamma - Qa, in IEEE + - * / only, so its bits do not
    depend on the kernel either; t and d are first scaled by the power of
    two that brings the larger into [0.5, 1), so that no square overflows
    or underflows where the quotient does not (elsewhere the scaling
    changes no bit).  The scan refuses what the per-point functions
    refuse, and the first mass they would refuse decides the error: a
    negative or NaN mass, one whose square overflows, or a degenerate
    matrix."""
    qm, qgamma = q_m(p), q_gamma(p)
    two_qm = 2.0 * qm
    m = np.ascontiguousarray(masses, dtype=float)
    with np.errstate(over="ignore"):  # a square past a double is refused below
        diag = np.float_power(m, 2.0)
        diag += qgamma  # Qgamma - Qa
    if not (np.all(m >= 0) and np.all(diag < math.inf)) or (two_qm == 0.0 and not np.all(diag)):
        for mass in memoryview(m):  # the first mass refused raises, as in mixing_angle
            mixing_angle_from_q(qm, qgamma, q_a(mass))
    phi = 0.5 * np.fromiter(map(math.atan2, repeat(two_qm), memoryview(diag)), float, m.size)
    scale = -np.frexp(np.maximum(diag, two_qm))[1]
    t = np.ldexp(two_qm, scale)
    t *= t
    d = np.ldexp(diag, scale, out=diag)
    d *= d
    d += t
    return phi, np.divide(t, d, out=t)


@dataclass(frozen=True)
class SplitCalibration:
    """Anchor point tying the splitting angle to coupling, field gradient
    and field length; the dependence is linear in each."""

    theta_ref_rad: Positive = 4e-10
    g_ref_gev: Positive = 1e-6
    grad_b_ref_t_per_m: Positive = 200.0
    field_len_ref_m: Positive = 10.0

    def __post_init__(self):
        check_fields(self, ValueError)


DEFAULT_CALIBRATION = SplitCalibration()


@check_args
def theta_split_from_coupling(
    g_a_gev: NonNegative,
    grad_b_t_per_m: NonNegative,
    field_len_m: NonNegative,
    cal: SplitCalibration = DEFAULT_CALIBRATION,
) -> float:
    """Per-passage splitting angle for a coupling, gradient and field
    length, scaled linearly from the calibration anchor."""
    return (
        cal.theta_ref_rad
        * (g_a_gev / cal.g_ref_gev)
        * (grad_b_t_per_m / cal.grad_b_ref_t_per_m)
        * (field_len_m / cal.field_len_ref_m)
    )


def max_measurable_mass(p: MixingParameters, threshold: float = 0.5) -> float:
    """Largest axion mass whose suppression factor still reaches the
    threshold t.  The suppression sin^2(2 phi) = 4 Qm^2 / (4 Qm^2 + (Qgamma
    + m^2)^2) falls monotonically with mass, and equals t where
    m^2 = 2 Qm sqrt((1 - t) / t) - Qgamma."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    qm = q_m(p)
    if qm == 0.0:
        raise ValueError("no coupling: suppression vanishes for every mass")
    m2 = 2.0 * qm * math.sqrt((1.0 - threshold) / threshold) - q_gamma(p)
    if m2 < 0.0:
        raise ValueError("suppression below threshold already at zero mass")
    return math.sqrt(m2)
