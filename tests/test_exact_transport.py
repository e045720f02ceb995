"""The engine's transport against exact rational transport.

Every float input of a configuration is read as a Fraction, and every sign
sequence of the +-theta kicks is carried exactly through the plain steps of
a traversal: gap, entry kick, field, exit kick (same sign), gap, then the
detector trip (a propagation) or the far mirror's reflection.  Exactly
equal states are merged into one with the summed weight.  Nothing here calls the engine's transfer maps, so the
comparison checks how they were composed and applied.
"""

import math
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

import numpy as np
from oracles import run_with_detector_beams

from axicav import cavity
from axicav.cavity import MIRROR_2
from axicav.scenario import load_preset

CONFOCAL = load_preset("confocal").cavity
BNL_QUAD = load_preset("bnl-quad").cavity


def _exact_run(cfg):
    """The exact detector states (x, a, w) of every snapshot, keyed by
    traversal, and the final states {(x, a): w} after the last reflection.
    Every field passage splits, so ``cfg`` needs theta > 0."""
    q = Fraction
    gap, length, theta = q(cfg.gap_m), q(cfg.field_length_m), q(cfg.theta_split_rad)
    distance = q(cfg.detector_distance_m)
    states = {(q(0), q(0)): q(1)}
    snapshots = {}
    for k in range(1, cfg.n_traversals + 1):
        forward = k % 2 == 1
        at_mirror = []  # the engine splits every beam before it merges any
        for (x, a), w in states.items():
            for sign in (1, -1):
                x1, a1 = x + a * gap, a + sign * theta
                x2, a2 = x1 + a1 * length, a1 + sign * theta
                at_mirror.append((x2 + a2 * gap, a2, w / 2))
        if cfg.extraction_mirror == MIRROR_2 or not forward:
            snapshots[k] = [(x + a * distance, a, w) for x, a, w in at_mirror]
        focal = cfg.mirror2_focal_m if forward else cfg.mirror1_focal_m
        states = defaultdict(Fraction)
        for x, a, w in at_mirror:
            states[(x, a if focal is None else a - x / q(focal))] += w
    return snapshots, states


def _worst_position_ulps(cfg):
    """Over every snapshot: the largest distance between the engine's sorted
    detector positions and the exact ones, in ulp of the largest |x|."""
    res, beams = run_with_detector_beams(cfg)
    exact, _ = _exact_run(cfg)
    assert [s.traversal for s in res.snapshots] == sorted(exact)
    worst = Fraction(0)
    for snap, ens in zip(res.snapshots, beams, strict=True):
        want = sorted(x for x, _, _ in exact[snap.traversal])
        got = np.sort(ens.positions).tolist()
        assert len(got) == len(want)
        ulp = Fraction(math.ulp(float(max(abs(want[0]), abs(want[-1])))))
        worst = max(worst, max(abs(Fraction(g) - x) for g, x in zip(got, want)) / ulp)
    return worst


def test_confocal_positions_are_within_4_ulp_of_exact_transport():
    """Confocal n <= 10: the run at n=10 takes every snapshot of the shorter
    runs.  Measured: 2.3 ulp (2.6 before the transfer maps)."""
    assert _worst_position_ulps(replace(CONFOCAL, n_traversals=10)) <= 4


def test_bnl_quad_second_moments_and_merges_are_exact():
    """bnl-quad n=12: each snapshot's sum of w x^2 is within 2e-15 of the
    exact sum (measured 1.2e-15; 2.3e-16 before the transfer maps), and the
    539 final beams are the 539 distinct exact states: each lies within one
    coalescing cell of exactly one of them and carries its weight exactly,
    so every merge joined beams whose exact states are equal."""
    cfg = replace(BNL_QUAD, n_traversals=12)
    res, beams = run_with_detector_beams(cfg)
    exact, final = _exact_run(cfg)
    for snap, ens in zip(res.snapshots, beams, strict=True):
        got = sum(Fraction(w) * Fraction(x) ** 2
                  for x, w in zip(ens.positions.tolist(), ens.weights.tolist()))
        want = sum(w * x * x for x, _, w in exact[snap.traversal])
        assert abs(got - want) <= Fraction(2e-15) * want, snap.traversal

    keys = list(final)
    assert len(res.final) == len(keys) == 539
    xs = np.array([float(x) for x, _ in keys])
    angles = np.array([float(a) for _, a in keys])
    matched = set()
    for x, a, w in zip(res.final.positions, res.final.angles, res.final.weights.tolist()):
        near = np.flatnonzero((np.abs(xs - x) < cavity.COALESCE_TOL_POSITION_M)
                              & (np.abs(angles - a) < cavity.COALESCE_TOL_ANGLE_RAD))
        assert near.size == 1, (x, a)
        assert Fraction(w) == final[keys[near[0]]]
        matched.add(int(near[0]))
    assert len(matched) == 539
