"""Two-state photon-axion mixing and the coupling-to-splitting calibration.

Everything is expressed in eV-based natural units: the coupling enters in
GeV^-1 (the unit sensitivities are quoted in) and is converted to eV^-1
internally, magnetic fields are converted through 195 eV^2 per tesla, and
the three mixing-matrix entries carry eV^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Photon energy, coupling, field, and axion mass for one mixing point."""

    omega_ev: Positive = 1.0
    g_a_gev: NonNegative = 0.0  # axion-photon coupling, GeV^-1
    b_field_t: NonNegative = 1.0
    mass_ev: NonNegative = 0.0

    def __post_init__(self):
        check_fields(self, ValueError)

    @property
    def g_a_ev(self) -> float:
        return self.g_a_gev * GEV_INV_TO_EV_INV


def q_m(p: MixingParameters) -> float:
    """Off-diagonal coupling entry omega * g * B, in eV^2."""
    return p.omega_ev * p.g_a_ev * p.b_field_t * TESLA_TO_EV2


def q_gamma(p: MixingParameters) -> float:
    """Photon diagonal entry from vacuum birefringence,
    omega^2 * (7 alpha / 45 pi) * (B / B_crit)^2, in eV^2."""
    return (
        p.omega_ev**2
        * (7.0 * FINE_STRUCTURE / (45.0 * math.pi))
        * (p.b_field_t / CRITICAL_FIELD_T) ** 2
    )


def q_a(mass_ev: float) -> float:
    """Axion diagonal entry, -mass^2 in eV^2."""
    if not mass_ev >= 0:
        raise ValueError("mass must be >= 0")
    return -(mass_ev**2)


def mixing_angle_from_q(qm: float, qgamma: float, qa: float) -> float:
    """Half the rotation diagonalizing the 2x2 mixing matrix:
    phi = atan2(2 Qm, Qgamma - Qa) / 2.  Equal diagonal entries with any
    coupling give exactly pi/4 (maximal mixing)."""
    diag = qgamma - qa
    if qm == 0.0 and diag == 0.0:
        raise DegenerateMixingError("mixing angle undefined: all Q entries equal")
    return 0.5 * math.atan2(2.0 * qm, diag)


def mixing_angle(p: MixingParameters) -> float:
    return mixing_angle_from_q(q_m(p), q_gamma(p), q_a(p.mass_ev))


def suppression_factor(p: MixingParameters) -> float:
    """Signal reduction for a massive axion relative to maximal mixing:
    sin^2(2 phi), equal to 1 when phi = pi/4 and falling toward 0 as the
    mass term dominates."""
    return math.sin(2.0 * mixing_angle(p)) ** 2


def mass_scan(p: MixingParameters, masses) -> tuple[np.ndarray, np.ndarray]:
    """The columns ``(mixing_angle, suppression_factor)`` of ``p`` with its
    mass replaced by each of ``masses`` in turn, as float arrays, bit for
    bit the per-point values: Qm and Qgamma do not depend on the mass, so
    they are computed once, and each mass then takes the same float
    operations as the per-point functions.  Raises like them on a negative
    or NaN mass and on a degenerate matrix."""
    two_qm = 2.0 * q_m(p)
    qgamma = q_gamma(p)
    atan2, sin = math.atan2, math.sin
    phis, suppressions = [], []
    for m in masses:
        if not m >= 0:
            raise ValueError("mass must be >= 0")
        diag = qgamma - -(m**2)
        if two_qm == 0.0 and diag == 0.0:
            raise DegenerateMixingError("mixing angle undefined: all Q entries equal")
        phi = 0.5 * atan2(two_qm, diag)
        phis.append(phi)
        suppressions.append(sin(2.0 * phi) ** 2)
    return np.array(phis), np.array(suppressions)


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
