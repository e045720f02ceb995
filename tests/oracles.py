"""Reference implementations the tests compare the package against.

No verb calls these.  They are the direct forms of what the package
computes another way: the planar lattice stepped pass by pass (against
`lattice.compare_growth`'s closed-form spread laws), the reference beam
profile sampled at a point (against the exact window integrals of
`density`), and a 2x2 matrix acting on one ray (against `rays`' matrix
algebra, which the engine applies to whole arrays).
"""

from __future__ import annotations

import math

import numpy as np

from axicav.density import GaussianProfile
from axicav.rays import RayState, TransferMatrix

# ---------------------------------------------------------------------------
# planar lattice: every beam is an integer transverse momentum m (in units
# of one splitting kick) and a position index p (in units of the pass
# length); ensembles are dicts keyed by (m, p), so degenerate states merge
# exactly in integer arithmetic.

Ensemble = dict[tuple[int, int], float]


def initial_ensemble() -> Ensemble:
    """A single axial beam, at rest on the lattice."""
    return {(0, 0): 1.0}


def step_bifurcation(ensemble: Ensemble) -> Ensemble:
    """One pass with momentum conserved at the mirror: every (m, p) state
    yields (m+1, p+m+1) and (m-1, p+m-1) at half weight, merged exactly."""
    out: Ensemble = {}
    for (m, p), w in ensemble.items():
        hw = 0.5 * w
        for s in (1, -1):
            mm = m + s
            key = (mm, p + mm)
            out[key] = out.get(key, 0.0) + hw
    return out


def step_pascal(ensemble: Ensemble) -> Ensemble:
    """One pass with momentum reset at the mirror: every state re-splits
    from zero momentum, so children are (+1, p+1) and (-1, p-1)."""
    out: Ensemble = {}
    for (_, p), w in ensemble.items():
        hw = 0.5 * w
        out[(1, p + 1)] = out.get((1, p + 1), 0.0) + hw
        out[(-1, p - 1)] = out.get((-1, p - 1), 0.0) + hw
    return out


def total_weight(ensemble: Ensemble) -> float:
    return math.fsum(ensemble.values())


def momentum_spectrum(ensemble: Ensemble) -> list[int]:
    """Sorted momenta of the distinct merged states (with multiplicity:
    one entry per state, not per unit weight)."""
    return sorted(m for (m, _p) in ensemble)


def momentum_marginals(ensemble: Ensemble) -> dict[int, float]:
    out: dict[int, float] = {}
    for (m, _p), w in ensemble.items():
        out[m] = out.get(m, 0.0) + w
    return out


def mean_position(ensemble: Ensemble, pass_length_m: float = 1.0) -> float:
    return math.fsum(w * p for (_m, p), w in ensemble.items()) * pass_length_m


def mean_momentum(ensemble: Ensemble) -> float:
    return math.fsum(w * m for (m, _p), w in ensemble.items())


def rms_spread(ensemble: Ensemble, pass_length_m: float = 1.0) -> float:
    """Weight-weighted root-mean-square position."""
    return math.sqrt(math.fsum(w * p * p for (_m, p), w in ensemble.items())) * pass_length_m


def positive_branch(ensemble_after_first_pass: Ensemble) -> Ensemble:
    """The renormalized sub-ensemble descending from the first upward kick;
    its mean position is the ballistic drift statistic."""
    picked = {k: w for k, w in ensemble_after_first_pass.items() if k[0] > 0}
    norm = math.fsum(picked.values())
    if norm == 0.0:
        raise ValueError("no positive-momentum states to tag")
    return {k: w / norm for k, w in picked.items()}


# ---------------------------------------------------------------------------
# beam profile and single rays


def gaussian_density(x, profile: GaussianProfile):
    """Reference density A*exp(-x^2 / 2 r^2) (rms-width convention)."""
    u = np.asarray(x, dtype=float) / profile.waist_m
    return profile.amplitude * np.exp(-0.5 * u * u)


def det(m: TransferMatrix) -> float:
    return m.a * m.d - m.b * m.c


def apply(m: TransferMatrix, ray: RayState) -> RayState:
    """The matrix acting on one (position, angle) ray."""
    return RayState(
        position=m.a * ray.position + m.b * ray.angle,
        angle=m.c * ray.position + m.d * ray.angle,
    )
