"""Each snapshot's moments, from its kick coefficients, against exact moments.

The exact reference reads every float input of a configuration as a
Fraction and carries one state vector per field passage through the plain
steps of a traversal (gap, field, gap, then the far mirror's reflection),
never through the engine's composed maps.  Snapshot k's detector position
is then exactly X = sum_t s_t c_t over independent signs s_t = +-1, and
its even moments E[(X/r)^n] come from a binomial convolution in Fractions.
On confocal n=18, bnl-quad n=40 and the defocusing geometry of acceptance
criterion 11, every even moment of `density.snapshot_moments` lies within
5e-15 of them (measured 1.23e-15, 4.50e-15 and 4.67e-15; the float sweep
of `cavity.kick_coefficients` sets most of it), and the moments the engine
summed from the detector beams lay up to 2.98e-15, 2.72e-14 and 1.64e-14
from them.
"""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from oracles import moments, run_moments, run_with_detector_beams
from test_exact_transport import _exact_run

from axicav import cavity, cli, density
from axicav.cavity import MIRROR_1, MIRROR_2, BeamBudgetError, CavityConfig
from axicav.density import GaussianProfile, GuardError
from axicav.scenario import load_preset

WAIST = 7.5e-4  # the presets' laser waist
PROFILE = GaussianProfile(waist_m=WAIST)

CONFOCAL = load_preset("confocal").cavity
BNL_QUAD = load_preset("bnl-quad").cavity
DEFOCUSING = CavityConfig(mirror2_focal_m=-5.5, extraction_mirror=MIRROR_1,
                          theta_split_rad=1e-9, n_traversals=20)  # acceptance criterion 11
RUNS = {
    "confocal-18": replace(CONFOCAL, n_traversals=18),
    "bnl-quad-40": replace(BNL_QUAD, n_traversals=40),
    "defocusing-20": DEFOCUSING,
}


def _exact_coefficients(cfg):
    """Per snapshot traversal k, its exact coefficients c_0, ..., c_{k-1},
    c_j from the field passage j traversals before the detector."""
    q = Fraction
    gap, length, theta = q(cfg.gap_m), q(cfg.field_length_m), q(cfg.theta_split_rad)
    span, distance = length + 2 * gap, q(cfg.detector_distance_m)
    passages = []  # (x, a) of each earlier passage at the start of the traversal, newest first
    out = {}
    for k in range(1, cfg.n_traversals + 1):
        forward = k % 2 == 1
        if cfg.extraction_mirror == MIRROR_2 or not forward:
            out[k] = [theta * (span + 2 * distance)] + [x + a * (span + distance)
                                                        for x, a in passages]
        # this passage leaves the field at (theta L, 2 theta) and the far gap at
        # (theta (L + 2 gap), 2 theta); every earlier one crosses the cavity
        passages = [(theta * span, 2 * theta)] + [(x + a * span, a) for x, a in passages]
        focal = cfg.mirror2_focal_m if forward else cfg.mirror1_focal_m
        if focal is not None:
            passages = [(x, a - x / q(focal)) for x, a in passages]
    return out


def _exact_moments(coefficients, order):
    """[M_0, M_2, ..., M_order] of X/r for X = sum_j s_j c_j, exactly."""
    r = Fraction(WAIST)
    big = [Fraction(1)] + [Fraction(0)] * (order // 2)
    for c in coefficients:
        y2 = (c / r) ** 2
        for half in range(order // 2, 0, -1):
            power, moment = Fraction(1), big[half]
            for i in range(1, half + 1):
                power *= y2
                moment += math.comb(2 * half, 2 * i) * power * big[half - i]
            big[half] = moment
    return big


def _worst_even_error(vector, exact):
    return max(float(abs(Fraction(v) - e) / e) for v, e in zip(vector[2::2].tolist(), exact[1:]))


@pytest.mark.parametrize("case", sorted(RUNS))
def test_kick_coefficients_are_the_exact_transport_within_2_5e_16_of_their_sum(case):
    """The float sweep leaves each coefficient within 2.5e-16 of its
    snapshot's sum of |c| (measured 1.44e-16 on defocusing-20)."""
    cfg = RUNS[case]
    coefficients = cavity.kick_coefficients(cfg, cfg.n_traversals)
    for k, exact in _exact_coefficients(cfg).items():
        bound = Fraction(2.5e-16) * sum(abs(c) for c in exact)
        got = coefficients[k % 2][:k]
        assert len(got) == k
        assert all(abs(Fraction(g) - c) <= bound for g, c in zip(got, exact)), k


@pytest.mark.parametrize("case", sorted(RUNS))
def test_snapshot_moments_are_within_5e_15_of_the_exact_moments(case):
    """Every even moment of every snapshot within 5e-15 of the exact one;
    the weight beyond one unit beam and every odd moment exactly 0.0; the
    series order that the beams' own moments take; and no further from
    the exact moments, over the run, than the moments summed from the
    snapshot's beams (`oracles.moments`)."""
    cfg = RUNS[case]
    exact = _exact_coefficients(cfg)
    result, beams = run_with_detector_beams(cfg)
    worst = worst_beams = 0.0
    for snap, ens, m in zip(result.snapshots, beams, run_moments(cfg, WAIST), strict=True):
        assert m[0] == 0.0 and m[1::2].tobytes() == bytes(8 * (m.size // 2))
        from_beams = moments(ens.positions, ens.weights, WAIST)
        assert from_beams.size == m.size, snap.traversal
        want = _exact_moments(exact[snap.traversal], m.size - 1)
        worst = max(worst, _worst_even_error(m, want))
        worst_beams = max(worst_beams, _worst_even_error(from_beams, want))
    assert worst <= 5e-15
    assert worst <= worst_beams


@pytest.mark.parametrize("cfg", [replace(CONFOCAL, n_traversals=10),
                                 replace(BNL_QUAD, n_traversals=12),
                                 replace(DEFOCUSING, n_traversals=10)],
                         ids=["confocal-10", "bnl-quad-12", "defocusing-10"])
def test_the_exact_coefficients_give_the_exact_transport_states(cfg):
    """Where 2^n is small: the exact states of every sign sequence
    (`test_exact_transport._exact_run`) have exactly the moments of the
    exact coefficients, and the snapshot's moments lie within 5e-15 of
    them."""
    states, _ = _exact_run(cfg)
    coefficients = _exact_coefficients(cfg)
    r = Fraction(WAIST)
    for k, m in zip(cfg.snapshot_traversals, run_moments(cfg, WAIST), strict=True):
        exact = _exact_moments(coefficients[k], m.size - 1)
        for n in range(0, m.size, 2):
            assert sum(w * (x / r) ** n for x, _, w in states[k]) == exact[n // 2]
        assert _worst_even_error(m, exact) <= 5e-15


def test_m2_is_a_compensated_sum_at_n_target():
    """m_2 = sum (a_j/r)^2 over the 15000 coefficients of bnl-quad's
    snapshot at N = 15000 lies within 2e-16 of the exact sum of the float
    coefficients (measured 7.9e-17); a plain running sum of the same
    squares lies 2.3e-15 from it."""
    both = cavity.kick_coefficients(BNL_QUAD, 15000)
    coefficients = both[0]
    last, = density.snapshot_moments(both, [15000], PROFILE)
    exact = sum((Fraction(a) / Fraction(WAIST)) ** 2 for a in coefficients)
    plain = 0.0
    for a in coefficients:
        y = a / WAIST
        plain += y * y
    assert abs(Fraction(float(last[2])) - exact) <= Fraction(2e-16) * exact
    assert abs(Fraction(plain) - exact) > Fraction(1e-15) * exact


def test_a_snapshot_past_the_series_is_refused_before_the_engine_runs(tmp_path, capsys,
                                                                       monkeypatch):
    """At theta = 1e-5 confocal snapshot 5 has max|x|/r = 1.35, past the
    series, and snapshot 4 is at 1.0.  The moments of the first four come
    out, and the run's snapshots are refused (GuardError) at snapshot 5,
    in traversal order.  The series depends on the scenario alone, so
    `simulate` refuses it before any beam is carried: no `run` call, and
    ahead of a beam budget that `run` alone would reach first.  The
    refusal names its traversal."""
    cfg = replace(CONFOCAL, n_traversals=8, theta_split_rad=1e-5)
    coefficients = cavity.kick_coefficients(cfg, 8)
    sizes = [m.size for m in density.snapshot_moments(coefficients, range(1, 5), PROFILE)]
    assert sizes == sorted(sizes) and sizes[-1] == 31  # order 30 at max|x|/r = 1.0
    with pytest.raises(GuardError, match=r"^traversal 5: max\|x\|/r = 1.35: "):
        density.snapshot_moments(coefficients, cfg.snapshot_traversals, PROFILE)  # not read

    monkeypatch.setattr(cavity, "MAX_BEAMS", 8)
    with pytest.raises(BeamBudgetError, match="traversal 4 would split 8 beams into 16"):
        cavity.run(cfg)
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args: runs.append(args) or cavity.run(*args))
    args = ["--preset", "confocal", "--override", "cavity.n_traversals=8",
            "--override", "cavity.theta_split_rad=1e-5", "--out", str(tmp_path / "o"), "simulate"]
    assert cli.main(args) == 3
    assert "numerical guard violation: traversal 5: max|x|/r = 1.35: " in capsys.readouterr().err
    assert not runs and not (tmp_path / "o").exists()


def test_a_field_off_run_has_zero_coefficients_and_moments():
    """Without a kick every coefficient is 0.0 and every snapshot's vector
    is [0.0, 0.0, 0.0], as the one beam on the axis gives."""
    cfg = CavityConfig(n_traversals=5, theta_split_rad=0.0)
    assert cavity.kick_coefficients(cfg, 5) == ([0.0] * 4, [0.0] * 5)
    assert [m.tobytes() for m in run_moments(cfg, WAIST)] == [bytes(24)] * 5
    assert [len(snap.ensemble) for snap in cavity.run(cfg).snapshots] == [1] * 5


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_coefficient_that_is_not_finite_is_refused(bad):
    """A coefficient that overflowed, or a NaN, puts max|x|/r past the
    series: its snapshot is refused with GuardError, and the one before it
    is not."""
    coefficients = ([], [1e-9, -2e-9, bad])  # odd snapshots only
    m, = density.snapshot_moments(coefficients, [1], PROFILE)
    assert m[2] == (1e-9 / WAIST) ** 2
    with pytest.raises(GuardError, match=f"^traversal 3: max\\|x\\|/r = {bad!r}: "):
        density.snapshot_moments(coefficients, [1, 3], PROFILE)


def test_the_series_check_names_the_first_snapshot_past_it_in_traversal_order():
    """`snapshot_moments`' call names the first traversal past the series
    in traversal order across both lists, not the widest: snapshot 3 (list
    1, max|x|/r = 3.3) ahead of snapshots 4 (list 0, 2.2) and 5 (list 1,
    4.3), and snapshot 4 where 3 is not asked for.  Lists whose last
    snapshots are within the series pass."""
    r = WAIST
    coefficients = ([0.1 * r, 0.1 * r, 2.0 * r, 0.0], [0.1 * r, 0.2 * r, 3.0 * r, 0.0, r])
    with pytest.raises(GuardError, match=r"^traversal 3: max\|x\|/r = 3.3: "):
        density.snapshot_moments(coefficients, [1, 2, 3, 4, 5], PROFILE)
    with pytest.raises(GuardError, match=r"^traversal 4: max\|x\|/r = 2.2: "):
        density.snapshot_moments(coefficients, [1, 2, 4, 5], PROFILE)
    assert len(list(density.snapshot_moments(coefficients, [1, 2], PROFILE))) == 2


def test_the_series_is_checked_at_the_call_and_summed_as_it_is_read(monkeypatch):
    """The call reads the series order of each list's last snapshot alone
    (two `_order` calls for confocal's 12000 snapshots), and each vector
    is summed, its order read, only as the result is read."""
    orders, order = [], density._order
    monkeypatch.setattr(density, "_order", lambda rho: orders.append(rho) or order(rho))
    cfg = replace(CONFOCAL, n_traversals=12000)
    moments = density.snapshot_moments(cavity.kick_coefficients(cfg, 12000),
                                       cfg.snapshot_traversals, PROFILE)
    assert len(orders) == 2
    first, second = next(moments), next(moments)
    assert len(orders) == 4 and 0.0 < first[2] < second[2]
