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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .checks import Count, Positive, check_args
from .sensitivity import fit_line

# Stepping the ensembles explicitly is exponential for the conserving rule
# (the state count grows cubically and the early passes double), but what
# the table reports after k passes has a closed form:
#   reset rule:      E[p^2] = k L^2  (every pass starts from zero momentum);
#   tagged branch:   drift k L  (the first split pins its mean momentum at
#                    +1, later splits are symmetric around it).
# tests/oracles.py steps the ensembles, and the tests compare the two.


@dataclass(frozen=True)
class GrowthComparison:
    """The table `pascal` writes, one column per field, and its summary."""

    n_pass: list[int]  # Python ints: a pass count may lie past 2**63
    distance_m: np.ndarray
    spread_bifurcation_m: np.ndarray  # ballistic drift of the tagged branch
    spread_pascal_m: np.ndarray  # rms of the reset ensemble
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
) -> GrowthComparison:
    """Spread-vs-distance table for the two rules, with log-log slopes.

    The conserving rule is summarized by the tagged-branch drift (growing
    as n), the reset rule by its rms (growing as sqrt(n)), at 1, n_passes
    and the rounded 10^y of n_points evenly spaced y from 0 to
    log10(n_passes), each the C library's pow, as columns.  The spreads
    follow their laws exactly, so the slopes are fitted over every
    checkpoint, and there are none below three checkpoints.  A pass length
    whose square overflows a double, or underflows a normal one (the reset
    rms would read 0), is refused, and so is a pass count for which the
    last distance n L, or the last rms squared n L^2, overflows.
    """
    L = pass_length_m
    if not sys.float_info.min <= L * L < math.inf:
        raise ValueError(f"pass_length_m must square to a finite normal double, got {L!r}")
    try:
        top = n_passes * max(L, L * L)
    except OverflowError:  # the int is past the largest double
        top = math.inf
    if not top < math.inf:
        raise ValueError(
            f"n_passes is too large for pass_length_m: the last distance or rms squared "
            f"overflows a double, got {n_passes!r} and {L!r}"
        )
    # np.float_power is a plain loop over pow (np.logspace takes numpy's
    # SIMD power); the marks are Python ints, not int64: a pass count may
    # lie past 2**63.  Near the largest double the last 10^y may overflow;
    # like any mark past n_passes, it is dropped.
    with np.errstate(over="ignore"):
        tens = np.float_power(10.0, np.linspace(0.0, math.log10(n_passes), n_points))
    marks = {round(v) for v in tens[tens < math.inf].tolist()}
    n_pass = sorted({k for k in marks if 1 <= k <= n_passes} | {1, n_passes})
    distance = [k * L for k in n_pass]
    rms = [math.sqrt(k * (L * L)) for k in n_pass]
    slope_b = slope_p = None
    if len(n_pass) >= 3:
        ln = [math.log(k) for k in n_pass]
        slope_b, slope_p = (fit_line(ln, [math.log(v) for v in spread])[0]
                            for spread in (distance, rms))
    return GrowthComparison(
        n_pass=n_pass,
        distance_m=np.array(distance),
        spread_bifurcation_m=np.array(distance),
        spread_pascal_m=np.array(rms),
        slope_bifurcation=slope_b,
        slope_pascal=slope_p,
        factor_bifurcation=distance[-1] / distance[0],
        factor_pascal=rms[-1] / rms[0],
        classification=(
            f"momentum-conserving: {_classify(slope_b)}; "
            f"momentum-reset: {_classify(slope_p)}"
        ),
    )
