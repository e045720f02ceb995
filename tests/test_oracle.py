"""The photon rates of `axicav.density` against an mpmath oracle at 40 digits.

Every window series and every difference-histogram bin must match the
oracle to 1e-13 relative, on confocal n=5, bnl-quad n=20 (where the rates
are 1e13-1e15 photons/s and the changes 1e-5-1e1), confocal at
theta = 1e-6 (max|x|/r = 0.14, so the series runs to order 14), and an
off-axis start whose odd moments do not cancel.  The worst bin of the
preset cases is 1.7e-15 and the worst pixel 1.6e-15; random ensembles
reach 7.9e-15.  The off-axis bins are the tightest case: at traversal 1 the
first two orders cancel 680-fold in the bin [1.5, 1.6) mm, which leaves
2.7e-14 from the 1e-16 rounding of m_2, now that m_1 is summed from
error-free products w x (rounding each w x/r would leave 6.6e-13).

The oracle takes each beam's Gaussian integral over a window from
mpmath's erf.  Summed beam by beam (`direct=True`) that costs one 40-digit
erf per beam and edge, so for the larger ensembles mpmath's erf is instead
expanded about each edge, d^k/da^k erf(a) = (-1)^(k-1) (2/sqrt(pi))
H_(k-1)(a) exp(-a^2) with mpmath's own physicists' Hermite polynomials,
and summed against the beams' moments, which are summed exactly in
integers.  The two forms agree to 1e-25 on the small cases
(`test_the_two_oracle_forms_agree`).
"""

import math
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp
from oracles import beam_moments, run_with_detector_beams

from axicav import cli, scenario
from axicav.cavity import MIRROR_1, BeamEnsemble, CavityConfig
from axicav.density import (
    GaussianProfile,
    histogram_edges,
    integrate_window,
    profile_difference,
)
from axicav.sensitivity import (
    center_sideband_series,
    central_loss_series,
    fit_linear,
    fit_power,
    GrowthSeries,
    sideband_gain_series,
)

mp.dps = 40
PROFILE = GaussianProfile(5e18, 7.5e-4)
TOL = 1e-13

H, C, W = 1e-6, 3.3e-3, PROFILE.waist_m  # the presets' pixel and the waist
EDGES = histogram_edges(1e-4, 3e-3)  # the presets' 30 bins
WINDOWS = {  # series -> (lo, hi, coefficient) windows, as in sensitivity
    "central": [(-H, H, 1.0)],
    "sideband": [(C - H, C + H, -2.0)],
    "center_sideband": [(0.0, 0.5 * W, 2.0), (W, 4.0 * W + 1e-3, -2.0)],
}
BUILDERS = {  # series -> builder of it from traversals and moment vectors
    "central": lambda ns, ms: central_loss_series(ns, ms, PROFILE, H),
    "sideband": lambda ns, ms: sideband_gain_series(ns, ms, PROFILE, C, H),
    "center_sideband": lambda ns, ms: center_sideband_series(ns, ms, PROFILE),
}


def _scaled(values):
    """Integers n_i and a shift e with values_i = n_i * 2^-e exactly."""
    values = values.tolist()
    e = max((53 - math.frexp(v)[1] for v in values if v), default=0)
    return [int(math.ldexp(v, e)) for v in values], e


def _oracle_deviation(ensemble, edges, direct=False):
    """The ensemble's photon rate in each window [edges[i], edges[i+1])
    minus that of one unit beam on the axis, as mpmath numbers."""
    s = mp.mpf(PROFILE.waist_m) * mp.sqrt(2)
    at_edges = []
    if direct:
        xs = [mp.mpf(x) / s for x in ensemble.positions.tolist()]
        ws = [mp.mpf(w) for w in ensemble.weights.tolist()]
        for e in edges:
            a = mp.mpf(float(e)) / s
            at_edges.append(mp.fsum(w * mp.erf(a - x) for x, w in zip(xs, ws)) - mp.erf(a))
    else:
        # sum_i w_i (x_i/s)^k, summed exactly in integers
        (xs, ex), (ws, ew) = _scaled(ensemble.positions), _scaled(ensemble.weights)
        rho = max([abs(mp.mpf(x)) for x in ensemble.positions.tolist()] + [mp.mpf(0)]) / s
        moments, powers = [mp.mpf(sum(ws)) * mp.mpf(2) ** -ew - 1], ws
        # term k is below (2 rho)^k / sqrt(k!) (Cramer's bound on H_(k-1))
        while len(moments) < 3 or (2 * rho) ** len(moments) / mp.sqrt(mp.factorial(len(moments))) > 1e-40:
            k = len(moments)
            powers = [p * x for p, x in zip(powers, xs)]
            moments.append(mp.mpf(sum(powers)) * mp.mpf(2) ** -(ew + k * ex) / s**k)
        for e in edges:
            a = mp.mpf(float(e)) / s
            gauss = 2 / mp.sqrt(mp.pi) * mp.exp(-a * a)
            terms = [mp.erf(a) * moments[0]]
            for k in range(1, len(moments)):
                # erf(a - x) = sum_k erf^(k)(a) (-x)^k / k!
                terms.append(-mp.hermite(k - 1, a) * gauss / mp.factorial(k) * moments[k])
            at_edges.append(mp.fsum(terms))
    scale = mp.mpf(PROFILE.amplitude_photons_per_s) * mp.mpf(PROFILE.waist_m) * mp.sqrt(mp.pi / 2)
    return [scale * (hi - lo) for lo, hi in zip(at_edges[:-1], at_edges[1:])]


def _oracle_series(beams, windows):
    """Reference minus snapshot of sum(coefficient * rate in window), for
    each snapshot's beams."""
    return [
        -mp.fsum(c * _oracle_deviation(ens, [lo, hi])[0] for lo, hi, c in windows)
        for ens in beams
    ]


def _assert_close(got, want, what, tol=TOL):
    assert len(got) == len(want), what
    for i, (g, w) in enumerate(zip(got, want)):
        rel = abs(mp.mpf(float(g)) - w) / abs(w)
        assert rel <= tol, f"{what}[{i}]: {float(g)!r} against {mp.nstr(w, 20)} (rel {float(rel):.2e})"


def _read_csv(path: Path, column: int) -> list[float]:
    return [float(line.split(",")[column]) for line in path.read_text().splitlines()[1:]]


PRESET_CASES = {
    "confocal-n5": ("confocal", ["cavity.n_traversals=5"]),
    "bnl-quad-n20": ("bnl-quad", ["cavity.n_traversals=20"]),
    "confocal-theta1e-6": ("confocal", ["cavity.n_traversals=6", "cavity.theta_split_rad=1e-6"]),
}


@pytest.mark.parametrize("case", sorted(PRESET_CASES))
def test_simulate_outputs_match_the_oracle(case, tmp_path):
    preset, overrides = PRESET_CASES[case]
    args = ["--preset", preset, *sum((["--override", o] for o in overrides), [])]
    assert cli.main([*args, "--out", str(tmp_path), "simulate"]) == 0
    result, beams = run_with_detector_beams(scenario.load_preset(preset, overrides).cavity)
    for snap, ens in zip(result.snapshots, beams, strict=True):
        got = _read_csv(tmp_path / f"profile_difference_t{snap.traversal:03d}.csv", 2)
        want = [-v for v in _oracle_deviation(ens, EDGES)]
        _assert_close(got, want, f"{case} t{snap.traversal:03d}")
    series = tmp_path / "growth_series.csv"
    for column, name in enumerate(("central", "sideband", "center_sideband"), 1):
        _assert_close(_read_csv(series, column), _oracle_series(beams, WINDOWS[name]), name)


def _off_axis_run():
    """Two unequal beams off the axis: every moment order counts."""
    start = BeamEnsemble([3e-5, -1e-5], [2e-7, -1e-7], [0.25, 0.75])
    return run_with_detector_beams(CavityConfig(n_traversals=5), start)


def test_off_axis_start_matches_the_oracle():
    result, beams = _off_axis_run()
    reference = beam_moments(BeamEnsemble([0.0], [0.0], [1.0]), W)
    ms = [beam_moments(ens, W) for ens in beams]
    for snap, ens, m in zip(result.snapshots, beams, ms, strict=True):
        diff = profile_difference(reference, m, PROFILE, EDGES)
        want = [-v for v in _oracle_deviation(ens, EDGES)]
        _assert_close(diff, want, f"t{snap.traversal:03d}")
    ns = [s.traversal for s in result.snapshots]
    for name, windows in WINDOWS.items():
        _assert_close(BUILDERS[name](ns, ms).signal, _oracle_series(beams, windows), name)


def test_the_two_oracle_forms_agree():
    edges = [-H, H, 7e-4, 8e-4, C - H, C + H]
    _, beams = run_with_detector_beams(
        scenario.load_preset("confocal", ["cavity.n_traversals=5"]).cavity)
    for ens in [beams[-1], _off_axis_run()[1][-1]]:
        direct = _oracle_deviation(ens, edges, direct=True)
        series = _oracle_deviation(ens, edges)
        for d, s in zip(direct, series):
            assert abs(d - s) <= 1e-25 * abs(d)


@pytest.mark.parametrize("n", [1, 2, 4094, 4095, 4096, 4097, 3 * 4096 + 17])
def test_ensembles_of_any_size_match_the_oracle(n):
    """Random, unnormalised, asymmetric beams.  The sizes straddle
    n + 2 = 4096, where the exact sum of the odd moments moves its split
    point."""
    rng = np.random.default_rng(n)
    ens = BeamEnsemble(rng.normal(scale=1e-6, size=n), np.zeros(n), rng.uniform(0.0, 2.0, n))
    for edges in (EDGES, histogram_edges(1e-3, 3e-3)):  # 30 bins and 3
        reference = beam_moments(BeamEnsemble([0.0], [0.0], [1.0]), W)
        diff = profile_difference(reference, beam_moments(ens, W), PROFILE, edges)
        _assert_close(diff, [-v for v in _oracle_deviation(ens, edges)], f"n={n}")
    s = mp.mpf(PROFILE.waist_m) * mp.sqrt(2)
    axial = PROFILE.amplitude_photons_per_s * s * mp.sqrt(mp.pi) * mp.erf(H / s)  # one unit beam on the axis
    _assert_close([integrate_window(beam_moments(ens, W), PROFILE, -H, H)],
                  [axial + _oracle_deviation(ens, [-H, H])[0]], "window")


def test_acceptance_pins_are_fits_of_the_oracle_series():
    """Criteria 10 and 11 of tests/test_acceptance.py pin the fits of the
    engine's series; the same fits of the oracle's series agree to 1e-12."""
    confocal, beams = run_with_detector_beams(CavityConfig())
    ns = [float(s.traversal) for s in confocal.snapshots]
    oracle = [float(v) for v in _oracle_series(beams, WINDOWS["central"])]
    r_squared = fit_linear(GrowthSeries(np.array(ns), np.array(oracle))).r_squared
    assert math.isclose(r_squared, 0.9917529346504957, rel_tol=1e-12)

    defocusing, beams = run_with_detector_beams(CavityConfig(
        mirror2_focal_m=-5.5, extraction_mirror=MIRROR_1, theta_split_rad=1e-9, n_traversals=20
    ))
    ns = [float(s.traversal) for s in defocusing.snapshots]
    oracle = [float(v) for v in _oracle_series(beams, WINDOWS["center_sideband"])]
    exponent = fit_power(GrowthSeries(np.array(ns), np.array(oracle))).exponent
    assert math.isclose(exponent, 2.934104619375521, rel_tol=1e-12)
