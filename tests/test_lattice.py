import math
import sys
import time

import numpy as np
import pytest
from oracles import (
    initial_ensemble,
    mean_momentum,
    mean_position,
    momentum_marginals,
    momentum_spectrum,
    positive_branch,
    rms_spread,
    step_bifurcation,
    step_pascal,
    total_weight,
)

from axicav.lattice import _classify, compare_growth
from axicav.sensitivity import fit_line


def _advance(step, n):
    e = initial_ensemble()
    for _ in range(n):
        e = step(e)
    return e


def test_initial_ensemble_is_a_single_resting_beam():
    e = initial_ensemble()
    assert e == {(0, 0): 1.0}
    assert momentum_spectrum(e) == [0]
    assert rms_spread(e) == 0.0


def test_conserving_rule_after_two_passes():
    e = _advance(step_bifurcation, 2)
    assert e == {(-2, -3): 0.25, (0, -1): 0.25, (0, 1): 0.25, (2, 3): 0.25}
    assert momentum_spectrum(e) == [-2, 0, 0, 2]
    assert momentum_marginals(e) == {2: 0.25, 0: 0.5, -2: 0.25}


def test_reset_rule_after_two_passes():
    e = _advance(step_pascal, 2)
    assert e == {(-1, -2): 0.25, (-1, 0): 0.25, (1, 0): 0.25, (1, 2): 0.25}
    assert momentum_spectrum(e) == [-1, -1, 1, 1]


def test_reset_rule_momentum_support_is_plus_minus_one():
    for n in (1, 3, 7):
        e = _advance(step_pascal, n)
        assert set(m for (m, _p) in e) == {-1, 1}


def test_conserving_state_count_follows_the_cubic_law():
    e = initial_ensemble()
    for n in range(1, 13):
        e = step_bifurcation(e)
        assert len(e) == (n**3 + 5 * n + 6) // 6


def test_reset_state_count_grows_linearly():
    e = initial_ensemble()
    for n in range(1, 13):
        e = step_pascal(e)
        assert len(e) == 2 * n


def test_weight_is_conserved_exactly():
    assert total_weight(_advance(step_bifurcation, 12)) == 1.0
    assert total_weight(_advance(step_pascal, 12)) == 1.0


def test_both_rules_stay_centered():
    for step in (step_bifurcation, step_pascal):
        e = _advance(step, 9)
        assert mean_momentum(e) == 0.0
        assert mean_position(e) == 0.0


def test_conserving_momentum_marginals_are_binomial():
    n = 6
    e = _advance(step_bifurcation, n)
    marg = momentum_marginals(e)
    for k in range(n + 1):
        m = n - 2 * k
        assert marg[m] == math.comb(n, k) / 2**n


def test_reset_rms_is_exactly_sqrt_n():
    e = _advance(step_pascal, 300)
    assert rms_spread(e) == pytest.approx(math.sqrt(300.0), rel=1e-12)
    assert len(e) == 600


def test_tagged_branch_drifts_ballistically():
    """Conditioning on the first upward kick, the conserving rule keeps the
    branch mean momentum at +1, so its mean position is exactly n passes."""
    n = 9
    e = positive_branch(step_bifurcation(initial_ensemble()))
    assert e == {(1, 1): 1.0}
    for _ in range(n - 1):
        e = step_bifurcation(e)
    assert mean_position(e) == float(n)
    assert mean_momentum(e) == 1.0


def test_positive_branch_requires_positive_states():
    with pytest.raises(ValueError):
        positive_branch({(0, 0): 1.0})


@pytest.mark.parametrize("pass_length", [1.0, 0.3])
def test_closed_forms_match_brute_force(pass_length):
    """compare_growth evaluates closed-form moments; check every column
    against explicitly stepped ensembles at a size where that is cheap."""
    n = 12
    cmp = compare_growth(n, pass_length_m=pass_length, n_points=200)
    assert cmp.n_pass == list(range(1, n + 1))
    assert cmp.spread_bifurcation_m.tolist() == cmp.distance_m.tolist()

    e_b = initial_ensemble()
    e_p = initial_ensemble()
    tagged = None
    for k in range(1, n + 1):
        e_b = step_bifurcation(e_b)
        e_p = step_pascal(e_p)
        tagged = positive_branch(e_b) if k == 1 else step_bifurcation(tagged)
        assert cmp.spread_bifurcation_m[k - 1] == pytest.approx(
            mean_position(tagged, pass_length), rel=1e-12
        )
        assert cmp.spread_pascal_m[k - 1] == pytest.approx(rms_spread(e_p, pass_length), rel=1e-12)


def test_growth_comparison_costs_nothing_per_pass():
    start = time.perf_counter()
    cmp = compare_growth(10**15)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    assert cmp.classification == "momentum-conserving: linear; momentum-reset: square-root"
    assert cmp.n_pass[-1] == 10**15
    assert cmp.factor_bifurcation == 1e15
    assert cmp.factor_pascal == pytest.approx(math.sqrt(1e15), rel=1e-15)


def test_growth_comparison_reference_run():
    cmp = compare_growth(10000)
    assert cmp.factor_bifurcation == 10000.0
    assert cmp.factor_pascal == 100.0
    assert abs(cmp.slope_bifurcation - 1.0) <= 0.05
    assert abs(cmp.slope_pascal - 0.5) <= 0.05
    assert "linear" in cmp.classification
    assert "square-root" in cmp.classification
    # the spreads follow exact laws, so only a direct call reaches the last label
    assert [_classify(s) for s in (None, 1.05, 0.45, 2.0)] == [
        "undetermined", "linear", "square-root", "power 2.000"]
    assert cmp.n_pass[0] == 1
    assert cmp.n_pass[-1] == 10000
    assert cmp.distance_m[-1] == 10000.0
    # the spreads follow their laws exactly: the slopes are fitted over every checkpoint
    ln = [math.log(k) for k in cmp.n_pass]
    for slope, spread in [(cmp.slope_bifurcation, cmp.spread_bifurcation_m),
                          (cmp.slope_pascal, cmp.spread_pascal_m)]:
        assert slope == fit_line(ln, [math.log(v) for v in spread.tolist()])[0]


@pytest.mark.parametrize(
    "n_passes, n_points",
    [(2_000_000, 25), (5000, 25), (2999, 3), (10**12, 100), (10**15, 25),
     (int(sys.float_info.max), 25)],  # the last 10^y overflows a double
    ids=["2e6", "5000", "2999-3-points", "1e12-100-points", "1e15", "largest-double"],
)
def test_marks_are_the_c_librarys_powers_of_ten(n_passes, n_points):
    """The sample passes are 10^y from math.pow, rounded, over np.linspace's
    n_points from 0 to log10(n_passes), with 1 and n_passes."""
    marks = {1, n_passes}
    for y in np.linspace(0.0, math.log10(n_passes), n_points).tolist():
        try:
            marks.add(round(math.pow(10.0, y)))
        except OverflowError:  # past the largest double, so past n_passes
            pass
    expect = sorted(k for k in marks if 1 <= k <= n_passes)
    got = compare_growth(n_passes, 1.0, n_points).n_pass
    assert got == expect and all(type(k) is int for k in got)  # past 2**63 too


def test_growth_comparison_single_pass():
    cmp = compare_growth(1)
    assert cmp.n_pass == [1] and cmp.slope_bifurcation is cmp.slope_pascal is None
    assert cmp.factor_bifurcation == 1.0
    assert cmp.factor_pascal == 1.0


def test_growth_comparison_scales_with_pass_length():
    a = compare_growth(100, pass_length_m=1.0)
    b = compare_growth(100, pass_length_m=2.0)
    assert b.spread_bifurcation_m[-1] == pytest.approx(2 * a.spread_bifurcation_m[-1], rel=1e-12)
    assert b.spread_pascal_m[-1] == pytest.approx(2 * a.spread_pascal_m[-1], rel=1e-12)


def test_growth_comparison_validation():
    with pytest.raises(ValueError):
        compare_growth(0)
    with pytest.raises(ValueError):
        compare_growth(100, pass_length_m=0.0)
