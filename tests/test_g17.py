"""Byte identity of the vectorized ``%.17g`` writer (`axicav.g17`) and of
both paths of the CSV writer `cli._csv`.

Every case compares against Python's own ``"%.17g" % v``: seeded random
bit patterns (every sign, exponent and NaN payload), every decade edge and
its neighbouring doubles, exact rounding ties, subnormals and the special
values.  The column path decides digits with IEEE-exact +, - and × only
(np.log10 merely guesses the exponent), so these tests must pass on any of
numpy's SIMD kernels, and without a RuntimeWarning.
"""

import math
import warnings
from decimal import Decimal

import numpy as np
import pytest

from axicav import axion, cli, g17, scenario

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SEED = 1917


def _reference(values) -> str:
    return "v\n" + "".join(["%.17g\n" % v for v in values.tolist()])


@pytest.fixture(params=["row", "column"])
def csv_path(request, monkeypatch):
    """Run a test once on each path of `cli._csv`."""
    monkeypatch.setattr(cli, "COLUMN_PATH_MIN_ROWS", 10**9 if request.param == "row" else 0)
    return request.param


def _csv_text(values) -> str:
    return "".join(cli._csv("v", [np.asarray(values, dtype=np.float64)]))


def _decade_edges() -> np.ndarray:
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    return np.concatenate([edges, -edges])


def _ties() -> np.ndarray:
    """Doubles q / 2^m whose decimal expansion has exactly 18 significant
    digits, the last a 5: halfway between two 17-digit numbers."""
    rng = np.random.default_rng(SEED)
    ties = []
    for m in range(3, 26):
        lo, hi = -(-(10**17) // 5**m), min(10**18 // 5**m, 2**53)
        for _ in range(40):
            q = int(rng.integers(lo, hi)) | 1
            ties.append(q / 2**m)
    return np.array(ties + [-t for t in ties])


SPECIALS = np.array(
    [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
     2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1e-280, 1e280, 0.1, 1 / 3, 0.5, 2.0**63 + 4096]
)


def test_ties_are_exact_ties():
    for t in _ties()[:200].tolist():
        digits = Decimal(t).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5


def test_random_bit_patterns_match_percent_formatting(csv_path):
    rng = np.random.default_rng(SEED)
    for _ in range(4):
        x = rng.integers(0, 2**64, 250_000, dtype=np.uint64, endpoint=False).view(np.float64)
        assert _csv_text(x) == _reference(x)


@pytest.mark.parametrize(
    "values",
    [
        _decade_edges(),
        _ties(),
        SPECIALS,
        # every subnormal exponent, and the normals around the fast range's ends
        np.random.default_rng(SEED).integers(1, 2**52, 20_000).view(np.float64),
        np.concatenate([np.geomspace(1e-282, 1e-278, 5000), np.geomspace(1e278, 1e282, 5000)]),
    ],
    ids=["decade-edges", "ties", "specials", "subnormals", "fast-range-ends"],
)
def test_edge_cases_match_percent_formatting(values, csv_path):
    assert _csv_text(values) == _reference(values)


def test_decimal17_certifies_only_what_it_rounds():
    """Where `decimal17` says ok, its digits and exponent are %.17e's."""
    rng = np.random.default_rng(SEED + 1)
    x = np.concatenate([
        rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False).view(np.float64),
        _decade_edges(), _ties(), SPECIALS,
    ])
    ok, digits, exponent = g17.decimal17(x)
    for v, d, e in zip(x[ok].tolist(), digits[ok].tolist(), exponent[ok].tolist()):
        mantissa, exp = ("%.16e" % abs(v)).split("e")
        assert (str(d), e) == (mantissa.replace(".", ""), int(exp))
    # ties and decade edges fall back; a certified value is far from both
    assert not g17.decimal17(_ties())[0].any()
    assert not g17.decimal17(np.array([1e-5, 1.0, 1e100, -1e17]))[0].any()


def test_the_golden_mass_scan_grid_falls_back_a_handful_of_times():
    """The 20000-row confocal mass scan that tests/test_golden_analysis.py
    pins: only its two decade endpoints (1e-9 and 1e-4 eV) need %."""
    sc = scenario.load_preset("confocal")
    exponents = np.linspace(math.log10(1e-9), math.log10(1e-4), 20000)
    masses = [math.pow(10.0, y) for y in exponents.tolist()]
    p = axion.MixingParameters(sc.axion.omega_ev, sc.axion.g_a_gev, sc.axion.b_mixing_t, 0.0)
    phi, sup = axion.mass_scan(p, masses)
    fallbacks = sum(int((~g17.decimal17(c)[0]).sum()) for c in (np.array(masses), phi, sup))
    assert fallbacks <= 4


def test_no_runtime_warning_on_zero_inf_and_nan():
    values = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.0])
    out = np.empty((g17.WIDTH, values.size), dtype=np.uint8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g17.fields(values, out)
    texts = [bytes(col[col != 0]).decode() for col in out.T]
    assert texts == ["0", "-0", "inf", "-inf", "nan", "4.9406564584124654e-324", "1"]


def test_fields_takes_a_strided_column_and_leaves_its_input_alone():
    table = np.array([[0.1, -2.5e-300], [1e22, 1e-5], [123.456, -0.0]])
    before = table.copy()
    out = np.zeros((g17.WIDTH, 3), dtype=np.uint8)
    g17.fields(table[:, 1], out)
    texts = [bytes(c[c != 0]).decode() for c in out.T]
    assert texts == ["-2.5e-300", "1.0000000000000001e-05", "-0"]
    assert np.array_equal(table, before, equal_nan=True)
