# the checks read annotations as written, so this module postpones them as
# every config module does
from __future__ import annotations

import math
from dataclasses import dataclass

import pytest

from axicav import lattice
from axicav.axion import MixingParameters, mass_scan, q_a, theta_split_from_coupling
from axicav.checks import Count, NonNegative, NonZero, Positive, check_args, check_fields
from axicav.density import histogram_edges, single_pass_estimate
from axicav.sensitivity import GrowthFit, reach, scenario_report

NAN = math.nan


@dataclass(frozen=True)
class _Numbers:
    positive: Positive = 1.0
    non_negative: NonNegative = 0.0
    non_zero: NonZero | None = None
    count: Count = 1
    label: str = "any"

    def __post_init__(self):
        check_fields(self, ValueError)


@pytest.mark.parametrize(
    "given",
    [
        {"positive": 2},
        {"positive": 5e-324},
        {"non_negative": 0},
        {"non_zero": -1e300},
        {"count": 10**20},
        {"label": "nan"},
    ],
)
def test_values_inside_their_domain_pass(given):
    _Numbers(**given)


@pytest.mark.parametrize(
    "given",
    [
        {"positive": 0.0},
        {"positive": -0.0},
        {"positive": math.inf},
        {"non_negative": -5e-324},
        {"non_negative": NAN},
        {"non_zero": 0.0},
        {"non_zero": -math.inf},
        {"count": 0},
        {"count": 1.0},
        {"count": False},
    ],
)
def test_values_outside_their_domain_are_refused_by_name(given):
    (name, value), = given.items()
    with pytest.raises(ValueError, match=rf"^{name} must be .*, got {value!r}$"):
        _Numbers(**given)


def test_checked_function_keeps_its_name_and_checks_only_given_arguments():
    @check_args
    def scaled(x: Positive, factor: NonNegative = -1.0, note=None):
        """doc"""
        return x * factor

    assert (scaled.__name__, scaled.__doc__) == ("scaled", "doc")
    assert scaled(2.0) == -2.0  # a default is not checked
    assert scaled(2.0, factor=3.0, note=NAN) == 6.0  # nor an unannotated argument
    with pytest.raises(ValueError, match="^factor must be finite and >= 0, got nan$"):
        scaled(2.0, NAN)


_FIT = GrowthFit(kind="linear", slope=1.0, intercept=0.0)

# Each call once ran to a NaN result (or a table of them) without complaint.
NAN_ARGUMENTS = {
    "theta_split_from_coupling": (lambda: theta_split_from_coupling(NAN, 1, 1), "g_a_gev"),
    "single_pass_estimate": (lambda: single_pass_estimate(NAN, 14.0, 1e-3), "theta_split_rad"),
    "compare_growth": (lambda: lattice.compare_growth(10, NAN), "pass_length_m"),
    # the minimum coupling and the extrapolation, steps of the reach chain
    "min_coupling": (lambda: reach(1.0, 5e18, NAN, 1.0), "g_ref"),
    "extrapolate": (lambda: scenario_report("x", _FIT, NAN, 1e-6, 1.0, 5e18), "n_target"),
    "scenario_report": (lambda: scenario_report("x", _FIT, 100, NAN, 1.0, 5e18), "g_ref"),
    "histogram_edges": (lambda: histogram_edges(NAN, 3e-3), "bin_width_m"),
    "mass_scan": (lambda: mass_scan(MixingParameters(g_a_gev=1e-12), [0.0, NAN]), "mass"),
    "q_a": (lambda: q_a(NAN), "mass"),
}


@pytest.mark.parametrize("call, name", NAN_ARGUMENTS.values(), ids=list(NAN_ARGUMENTS))
def test_functions_refuse_a_nan_config_number_by_name(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call()
