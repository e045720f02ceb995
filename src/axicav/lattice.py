"""Planar-mirror lattice toy: momentum-conserving vs momentum-reset growth.

A drastically simplified cavity - planar mirrors, the splitting field
filling the whole length - reduces each beam to an integer transverse
momentum (in units of one splitting kick) and a position on a lattice (in
units of the pass length).  Two bookkeeping rules are compared:

* bifurcation: reflections conserve transverse momentum, so kicks
  accumulate and a tagged branch walks away from the axis ballistically;
* reset: reflections zero the transverse momentum before the next split
  (the binomial-triangle picture), which caps every pass's step at one
  lattice unit and leaves only diffusive square-root spreading.

Both rules share one pass structure: reflect (conserve or reset), split
into momentum +-1 children at half weight, advance by the new momentum.
Ensembles are dicts keyed by (momentum, position index) so degenerate
states merge exactly in integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import Count, Positive, check_args

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
# growth comparison via closed-form second moments

# Stepping the ensembles explicitly is exponential for the conserving rule
# (the state count grows cubically and the early passes double), but the
# weight-weighted moments after k passes have closed forms:
#   conserving rule: E[m^2] = k,  E[pm] = L k(k+1)/2,  E[p^2] = L^2 k(k+1)(2k+1)/6;
#   reset rule:      E[p^2] = k L^2  (every pass starts from zero momentum);
#   tagged branch:   drift k L  (the first split pins its mean momentum at
#                    +1, later splits are symmetric around it).
# The closed forms are validated against brute-force ensembles in the tests.


@dataclass(frozen=True)
class SpreadSample:
    n_pass: int
    distance_m: float
    spread_bifurcation_m: float  # ballistic drift of the tagged branch
    spread_pascal_m: float  # rms of the reset ensemble
    rms_bifurcation_m: float  # full conserving-ensemble rms (diagnostic)


@dataclass(frozen=True)
class GrowthComparison:
    samples: list[SpreadSample]
    slope_bifurcation: float | None
    slope_pascal: float | None
    factor_bifurcation: float
    factor_pascal: float
    classification: str


def _classify(slope: float | None) -> str:
    if slope is None:
        return "undetermined"
    if abs(slope - 1.0) <= 0.1:
        return "linear"
    if abs(slope - 0.5) <= 0.1:
        return "square-root"
    return f"power {slope:.3f}"


@check_args
def compare_growth(
    n_passes: Count,
    pass_length_m: Positive = 1.0,
    n_points: Count = 25,
    slope_min_n: Count = 100,
) -> GrowthComparison:
    """Spread-vs-distance table for the two rules, with log-log slopes.

    The conserving rule is summarized by the tagged-branch drift (growing
    as n), the reset rule by its rms (growing as sqrt(n)); the conserving
    ensemble's own rms is carried as a diagnostic column.  Slopes are
    fitted over checkpoints with n >= slope_min_n when enough of the range
    lies there, else over all checkpoints.  A pass length whose square
    overflows a double is refused, and so is a pass count for which the
    table's largest value, the last rms squared, would.
    """
    L = pass_length_m
    if not L * L < math.inf:
        raise ValueError(f"pass_length_m must square to a finite double, got {L!r}")
    try:
        top = n_passes * (n_passes + 1) * (2 * n_passes + 1) // 6 * (L * L)
    except OverflowError:  # the int is past the largest double
        top = math.inf
    if not top < math.inf:
        raise ValueError(
            f"n_passes is too large for pass_length_m: the last rms squared overflows "
            f"a double, got {n_passes!r} and {L!r}"
        )
    # Python ints, not int64: a pass count may lie past 2**63
    marks = {round(v) for v in np.logspace(0.0, math.log10(n_passes), n_points).tolist()}
    wanted = {k for k in marks if 1 <= k <= n_passes} | {1, n_passes}
    # k(k+1)(2k+1)/6 is exact in Python ints and rounds once against L^2
    samples = [
        SpreadSample(k, k * L, k * L, math.sqrt(k * (L * L)),
                     math.sqrt(k * (k + 1) * (2 * k + 1) // 6 * (L * L)))
        for k in sorted(wanted)
    ]
    fit_pts = [s for s in samples if s.n_pass >= slope_min_n]
    if len(fit_pts) < 3:
        fit_pts = samples
    if len(fit_pts) >= 3:
        ln = np.log([float(s.n_pass) for s in fit_pts])
        slope_b = float(np.polyfit(ln, np.log([s.spread_bifurcation_m for s in fit_pts]), 1)[0])
        slope_p = float(np.polyfit(ln, np.log([s.spread_pascal_m for s in fit_pts]), 1)[0])
    else:
        slope_b = slope_p = None
    first, last = samples[0], samples[-1]
    return GrowthComparison(
        samples=samples,
        slope_bifurcation=slope_b,
        slope_pascal=slope_p,
        factor_bifurcation=last.spread_bifurcation_m / first.spread_bifurcation_m,
        factor_pascal=last.spread_pascal_m / first.spread_pascal_m,
        classification=(
            f"momentum-conserving: {_classify(slope_b)}; "
            f"momentum-reset: {_classify(slope_p)}"
        ),
    )
