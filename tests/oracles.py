"""Reference implementations the tests compare the package against.

No verb calls these.  They are the direct forms of what the package
computes another way: the planar lattice stepped pass by pass (against
`lattice.compare_growth`'s closed-form spread laws), the reference beam
profile sampled at a point (against the exact window integrals of
`density`), a 2x2 matrix acting on one ray (against `rays`' matrix
algebra, which the engine applies to whole arrays), the beams of the
detector snapshots, which a run does not form, and their moments summed
from the beams (`moments`), against the moments a run takes from the kick
coefficients.
"""

from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np

from axicav import cavity, cli, density
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
    return profile.amplitude_photons_per_s * np.exp(-0.5 * u * u)


def det(m: TransferMatrix) -> float:
    return m.a * m.d - m.b * m.c


def apply(m: TransferMatrix, ray: RayState) -> RayState:
    """The matrix acting on one (position, angle) ray."""
    return RayState(
        position=m.a * ray.position + m.b * ray.angle,
        angle=m.c * ray.position + m.d * ray.angle,
    )


# ---------------------------------------------------------------------------
# detector snapshots


def run_with_detector_beams(config, start=None, leaving=None):
    """``cavity.run(config)`` and each snapshot's beams, in the snapshot's
    beam order, as the `BeamEnsemble` of their positions, angles and
    weights.  A snapshot keeps only its beam count; here the detector leg
    is also carried in full, as `cavity._transport` carries every other
    leg, from the ensemble each snapshot's traversal starts at and with the
    weights `run` hands that traversal's transport, so the arrays are the
    engine's own bits.  No angle is checked, as `run` checks none.  Given a
    list ``leaving``, each traversal's beams as they leave the far mirror,
    before coalescing, are appended to it.

    A ``start`` ensemble takes the place of `cavity.axial_beam`, which
    every run starts from.  The kick coefficients hold for the axial start
    only, so the moments of such a run are those of its beams
    (`beam_moments`)."""
    beams, traversals = [], itertools.count(1)
    transport = cavity._transport
    (matrix, kick), _ = cavity._legs(config)[0]  # the detector leg is the same both ways

    def keep_beams(ensemble, to_matrix, to_kick, weights):  # each traversal's one transport
        if next(traversals) in config.snapshot_traversals:
            beams.append(transport(ensemble, matrix, kick, weights))
        carried = transport(ensemble, to_matrix, to_kick, weights)
        if leaving is not None:
            leaving.append(carried)
        return carried

    axial = cavity.axial_beam if start is None else (lambda: start)
    with mock.patch.object(cavity, "_transport", keep_beams), \
            mock.patch.object(cavity, "axial_beam", axial):
        return cavity.run(config), beams


def run_moments(config, waist_m):
    """The moment vectors of ``config``'s snapshots at the waist
    ``waist_m``, in traversal order, as `simulate` takes them
    (`cli.snapshot_series`)."""
    return cli.snapshot_series(config, GaussianProfile(waist_m=waist_m))[0]


def beam_moments(ensemble, waist_m):
    """The moment vector of ``ensemble``'s beams at the waist ``waist_m``,
    read from the beams (`moments`)."""
    return moments(ensemble.positions, ensemble.weights, waist_m)


def rates(ensemble, profile, edges_m):
    """`density.rates_from_moments` of ``ensemble``'s moments at the
    profile's waist, taken alone: the axial part and the ensemble's one
    deviation row."""
    m = moments(ensemble.positions, ensemble.weights, profile.waist_m)
    axial, deviation = density.rates_from_moments([m], profile, edges_m)
    return axial, deviation[0]


def exact_sum(p: np.ndarray) -> float:
    """sum(p), faithfully rounded: the result is one of the two doubles
    next to the exact sum, whatever the cancellation.

    AccSum of Rump, Ogita and Oishi (SIAM J. Sci. Comput. 31, 189, 2008):
    each pass cuts every term at one power of two, sigma * 2^-53 with
    sigma >= 2^M max|p| and 2^M >= len(p) + 2, so the high parts add up
    exactly in any order and the low parts carry on to the next pass.
    When the high parts cancel to zero the passes start again on the
    remainders.  Holds for len(p) < 2^26, far above the 2^20 beams a run
    may hold.  Works in place on ``p``, which the caller hands over as a
    temporary and must not read again, and on one buffer of high parts."""
    two_m = math.ldexp(1.0, (p.size + 1).bit_length())
    phi = two_m * 2.0**-53
    high = np.empty_like(p)
    while True:
        mu = max(-float(p.min()), float(p.max())) if p.size else 0.0
        if mu == 0.0:
            return 0.0
        sigma = math.ldexp(two_m, math.frexp(mu)[1])
        t = 0.0
        while True:
            np.add(p, sigma, out=high)
            high -= sigma
            tau = float(high.sum())
            p -= high
            t_next = t + tau
            if abs(t_next) >= two_m * phi * sigma or sigma <= 2.0**-1022:
                return t_next + ((tau - (t_next - t)) + float(p.sum()))
            t = t_next
            if t == 0.0:
                break
            sigma *= phi


def two_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products a*b as 2N doubles whose exact sum is the exact sum of
    the products: each rounded product, then its rounding error.

    Dekker's TwoProduct with Veltkamp's split (Ogita, Rump and Oishi, SIAM
    J. Sci. Comput. 26, 1955, 2005): each factor splits into two halves of
    26 bits, whose products are exact, so the error of a*b is found with
    IEEE + - * alone.  Exact unless a product or a factor times 2^27 leaves
    the normal range, far outside the weights and positions of a run.
    Besides the output it holds four arrays of N: b's halves, a's high
    half (then its low half, in the same buffer) and one product."""
    def high(x):  # the upper 26 bits of x; x - high(x) is exact
        c = x * 134217729.0  # 2^27 + 1
        c -= c - x
        return c

    out = np.empty(2 * a.size)
    p, e = out[: a.size], out[a.size :]
    np.multiply(a, b, out=p)
    b_hi = high(b)
    b_lo = b - b_hi
    a_half = high(a)
    np.multiply(a_half, b_hi, out=e)
    e -= p
    product = a_half * b_lo
    e += product
    np.subtract(a, a_half, out=a_half)  # now a's low half
    e += np.multiply(a_half, b_hi, out=product)
    e += np.multiply(a_half, b_lo, out=product)
    return out



def is_mirrored(positions: np.ndarray, weights: np.ndarray) -> bool:
    """Whether the beams are their own mirror image bit for bit, listed
    from one end: x == -x[::-1] and w == w[::-1], with no tolerance."""
    return np.array_equal(positions, -positions[::-1]) and np.array_equal(weights, weights[::-1])


def moments(positions: np.ndarray, weights: np.ndarray, waist_m: float) -> np.ndarray:
    """The scaled raw moments of beams at ``positions`` with ``weights``
    (two float arrays of one length), index 0 holding the weight beyond one
    unit beam: [sum(w) - 1, m_1, ..., m_N] with m_n = sum(w (x/r)^n), r the
    waist, and N from `density._order`.  A NaN or an infinite position
    needs more than MAX_ORDER terms, so it is refused with GuardError.
    This is how a snapshot's moments were read from its beams before they
    came from its kick coefficients (`density.snapshot_moments`).

    Even orders are sums of nonnegative terms.  Odd orders cancel in a
    symmetric ensemble, so they and the weight are summed exactly
    (`exact_sum`), unless the beams are their own mirror image
    (`is_mirrored`).  Then every odd moment is exactly 0.0, the value the
    exact sum returns: negation and multiplication round the same for
    either sign, so the term w (x/r)^n of the beam at -x is the negated
    term of the beam at x, and the terms cancel in pairs (a beam on the
    axis gives a zero term).  An on-axis run that merges nothing stays
    mirrored in that layout (`cavity._row` lays each split out so);
    a merge lists the beams in its cell order, which may break the layout,
    so it is checked, never assumed (bnl-quad at 1.1 times its preset split
    breaks it on 4 of the 20 snapshots of a 40-traversal run).  Off the
    mirrored layout, order 1, which a window near a sign change of the
    deviation cancels against order 2, is the exact sum of the error-free
    products w x (`two_product`) divided once by r: rounding each term
    w (x/r) would leave it 7e-16 off on two unequal beams off the axis, and
    a bin there 7e-13."""
    # the exact sums of the weight and of m_1 first, so that their buffers
    # are gone before y and term exist; max|x|/r is max|y|, as division by
    # r > 0 keeps the order of the positions
    weight = exact_sum(np.append(weights, -1.0))
    mirrored = is_mirrored(positions, weights)
    span = max(-float(positions.min()), float(positions.max())) if positions.size else 0.0
    m = np.zeros(density._order(span / waist_m) + 1)  # a mirrored ensemble's odd moments stay 0.0
    m[0] = weight
    if not mirrored:
        m[1] = exact_sum(two_product(weights, positions)) / waist_m
    y = positions / waist_m
    term = weights.copy()
    for n in range(1, m.size):
        term *= y
        if n % 2 == 0:
            m[n] = float(term.sum())
        elif n > 1 and not mirrored:
            m[n] = exact_sum(term.copy())
    return m
