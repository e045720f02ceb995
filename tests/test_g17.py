"""Byte identity of the CSV writer `axicav.g17.csv` on both its paths, and
of its vectorized ``%.17g`` block step `g17.fields`.

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

from axicav import axion, g17, scenario

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SEED = 1917


def _reference(values) -> str:
    return "v\n" + "".join(["%.17g\n" % v for v in values.tolist()])


@pytest.fixture(params=["row", "column"])
def csv_path(request, monkeypatch):
    """Run a test once on each path of `g17.csv`."""
    monkeypatch.setattr(g17, "COLUMN_PATH_MIN_ROWS", 10**9 if request.param == "row" else 0)
    return request.param


def _csv_text(values) -> str:
    return "".join(g17.csv("v", [np.asarray(values, dtype=np.float64)]))


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
        # fallbacks and no value showing three digits, with nothing to spell
        np.zeros(200),
        np.repeat([0.0, 0.5], 100),
    ],
    ids=["decade-edges", "ties", "specials", "subnormals", "fast-range-ends", "zeros",
         "zeros-and-halves"],
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
    # a tie is certified where its product is exact, 10^k a double (0 <=
    # k = 16 - E <= 22), and falls back elsewhere; decade edges fall back
    ties = _ties()
    ok, _, exponent = g17.decimal17(ties)
    exact = (16 - exponent >= 0) & (16 - exponent <= 22)
    assert exact.any() and not exact.all()
    assert np.array_equal(ok, exact)
    assert not g17.decimal17(np.array([1e-5, 1.0, 1e100, -1e17]))[0].any()


def test_the_golden_mass_scan_grid_falls_back_a_handful_of_times():
    """The 20000-row confocal mass scan that tests/test_golden_analysis.py
    pins: only its two decade endpoints (1e-9 and 1e-4 eV) need %."""
    exponents = np.linspace(math.log10(1e-9), math.log10(1e-4), 20000)
    masses = [math.pow(10.0, y) for y in exponents.tolist()]
    phi, sup = axion.mass_scan(scenario.load_preset("confocal").axion, masses)
    fallbacks = sum(int((~g17.decimal17(c)[0]).sum()) for c in (np.array(masses), phi, sup))
    assert fallbacks <= 4


def test_no_runtime_warning_on_zero_inf_and_nan():
    values = np.array([[0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.0]])
    out = np.empty((g17.WIDTH, *values.shape), dtype=np.uint8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g17.fields(values, out)
    texts = [bytes(col[col != 0]).decode() for col in out[:, 0].T]
    assert texts == ["0", "-0", "inf", "-inf", "nan", "4.9406564584124654e-324", "1"]


def test_fields_takes_a_strided_column_and_leaves_its_input_alone():
    table = np.array([[0.1, -2.5e-300], [1e22, 1e-5], [123.456, -0.0]])
    before = table.copy()
    out = np.zeros((g17.WIDTH, 1, 3), dtype=np.uint8)
    g17.fields(table.T[1:], out)  # one column, 16 bytes between its values
    texts = [bytes(c[c != 0]).decode() for c in out[:, 0].T]
    assert texts == ["-2.5e-300", "1.0000000000000001e-05", "-0"]
    assert np.array_equal(table, before, equal_nan=True)


# --- tables of several columns --------------------------------------------------


def _table_text(columns) -> str:
    header = ",".join(f"c{i}" for i in range(len(columns)))
    return "".join(g17.csv(header, columns))


def _table_reference(columns) -> str:
    """The table written one value at a time: %.17g for a float array,
    str() for anything else."""
    header = ",".join(f"c{i}" for i in range(len(columns)))
    cells = [
        ["%.17g" % v for v in c.tolist()] if isinstance(c, np.ndarray) and c.dtype.kind == "f"
        else [str(v) for v in (c.tolist() if isinstance(c, np.ndarray) else c)]
        for c in columns
    ]
    return header + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells))


def _bit_patterns(rng, n) -> np.ndarray:
    return rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)


def test_three_float_columns_and_an_int_column_match_percent_formatting(csv_path):
    rng = np.random.default_rng(SEED + 2)
    n = 3 * g17.BLOCK_ROWS + 101
    ints = rng.integers(-(2**63), 2**63 - 1, n)
    columns = [_bit_patterns(rng, n), ints, _bit_patterns(rng, n), _bit_patterns(rng, n)]
    assert _table_text(columns) == _table_reference(columns)


def test_fallbacks_in_one_column_leave_the_others_alone(csv_path):
    """Ties, signed zeros, NaN, infinities and subnormals, all written by
    the fallback, share their blocks with columns that need none."""
    rng = np.random.default_rng(SEED + 3)
    odd = np.concatenate([
        _ties(), SPECIALS, [0.0, -0.0] * 50,
        rng.integers(1, 2**52, 500).view(np.float64),
    ])
    odd = odd[rng.permutation(odd.size)]
    n = odd.size
    columns = [
        np.geomspace(1e-9, 1e-4, n),  # scientific notation only
        odd,
        rng.uniform(-1.0, 1.0, n),  # fixed notation, both signs
        np.round(10.0 ** rng.uniform(0.0, 16.0, n)) / 8,  # the point after any of 16 digits
    ]
    assert _table_text(columns) == _table_reference(columns)


@pytest.mark.parametrize(
    "n",
    [g17.BLOCK_ROWS - 1, g17.BLOCK_ROWS, g17.BLOCK_ROWS + 1,
     g17.COLUMN_PATH_MIN_ROWS - 1, g17.COLUMN_PATH_MIN_ROWS, g17.COLUMN_PATH_MIN_ROWS + 1],
    ids=["block-1", "block", "block+1", "min-1", "min", "min+1"],
)
def test_row_counts_at_the_block_and_path_edges_match_percent_formatting(n, csv_path):
    rng = np.random.default_rng(SEED + n)
    columns = [list(range(n)), _bit_patterns(rng, n), rng.normal(size=n), _bit_patterns(rng, n)]
    assert _table_text(columns) == _table_reference(columns)


def test_strided_float_columns_match_percent_formatting(csv_path):
    rng = np.random.default_rng(SEED + 4)
    n = g17.BLOCK_ROWS + 7
    pairs = _bit_patterns(rng, 2 * n).reshape(n, 2)
    columns = [pairs[:, 1], rng.normal(size=n), pairs[::-1, 0]]
    before = pairs.copy()
    assert _table_text(columns) == _table_reference(columns)
    assert np.array_equal(pairs, before, equal_nan=True)


def test_csv_matches_the_per_value_formatter(csv_path):
    ints = [0, 1, 10**17, 2**63 + 5, -7, 123456789012345678]
    floats = np.array([0.0, 1e-300, 1e17, float("inf"), 0.1, float("nan")])
    more = np.array([-0.0, -5e-324, 2.0 / 3.0, float("-inf"), 1.7976931348623157e308, 3.0])
    text = _table_text([ints, floats, more])
    assert text == _table_reference([ints, floats, more])
    # integers keep every digit; floats take 17 significant digits
    assert text.splitlines()[1] == "0,0,-0"
    assert text.splitlines()[3] == "100000000000000000,1e+17,0.66666666666666663"
    assert text.splitlines()[4] == "9223372036854775813,inf,-inf"
    assert text.splitlines()[6] == "123456789012345678,nan,3"


def test_csv_formats_each_column_by_its_kind(csv_path):
    """A float array is written as FLOAT_FMT whatever scalars built it;
    any other column, a list or an integer array, with str()."""
    listed = [1, np.float64(-2.5e-300), np.int64(7), True, 2.0]
    floats = np.array([0.1, np.float64(-2.5e-300), np.float32(0.1), 2.0, np.float64("nan")])
    ints = np.array([7, -1, 0, 2**40, 3])
    text = _table_text([listed, floats, ints])
    assert text == _table_reference([listed, floats, ints])
    assert text.splitlines()[1] == "1,0.10000000000000001,7"
    assert text.splitlines()[3] == "7,0.10000000149011612,0"
    assert text.splitlines()[4] == "True,2,1099511627776"


def test_csv_takes_the_column_path_from_its_row_count(monkeypatch):
    """Short tables keep the % path; from COLUMN_PATH_MIN_ROWS rows on,
    `fields` writes the float columns, BLOCK_ROWS rows at a time."""
    calls = []

    def fields(table, out):
        calls.append(table.shape[1])
        return real(table, out)

    real = g17.fields
    monkeypatch.setattr(g17, "fields", fields)
    monkeypatch.setattr(g17, "BLOCK_ROWS", 100)
    n = g17.COLUMN_PATH_MIN_ROWS
    xs = np.linspace(0.0, 1.0, n)
    short = _table_text([list(range(n - 1)), xs[:-1]])
    assert calls == []
    full = _table_text([list(range(n)), xs])
    assert calls == [100] * (n // 100) + ([n % 100] if n % 100 else [])
    assert full == _table_reference([list(range(n)), xs])
    assert full.startswith(short)


def test_fields_of_a_block_says_which_rows_each_column_uses():
    """A (columns, rows) block: every column's text is %.17g's, a row the
    call reports unused in a column is NUL there, and a used row is not."""
    rng = np.random.default_rng(SEED + 5)
    block = np.stack([
        np.geomspace(1e-9, 1e-4, 300), rng.uniform(0.001, 0.01, 300),
        _bit_patterns(rng, 300), np.full(300, 7.0),
    ])
    out = np.empty((g17.WIDTH, *block.shape), dtype=np.uint8)
    used = g17.fields(block, out)
    assert used.shape == (len(block), g17.WIDTH)
    for column, rows, values in zip(out.transpose(1, 0, 2), used, block):
        texts = [bytes(c[c != 0]).decode() for c in column.T]
        assert texts == ["%.17g" % v for v in values.tolist()]
        assert not column[~rows].any()
        assert column[rows].any(axis=1).all()
    # "7" needs one digit row and nothing else
    assert np.flatnonzero(used[3]).tolist() == [6]


def test_the_affix_table_covers_every_exponent_decimal17_certifies():
    """`decimal17` certifies values with 1e-280 < |x| < 1e280, so E in
    [-280, 279]; the fallback gives any finite nonzero double's E, in
    [-324, 308].  Each E's lead and exponent in `AFFIXES` are %.17g's."""
    certified = np.array([5.0 * 10.0**e for e in range(-280, 280)])
    ok, _, exponent = g17.decimal17(certified)
    assert ok.all()
    assert exponent.tolist() == list(range(-280, 280))
    assert (g17.E_MIN, g17.E_MAX) == (-324, 308)
    assert len(g17.AFFIXES) == g17.E_MAX - g17.E_MIN + 1
    for e in range(g17.E_MIN, g17.E_MAX + 1):
        text = "%.17g" % (float(f"1.5e{e}") if e > g17.E_MIN else 5e-324)
        assert int(("%.16e" % float(text)).split("e")[1]) == e
        lead = text[: 1 - e] if -4 <= e < 0 else ""
        exponent_text = text[text.index("e"):] if "e" in text else ""
        row = g17.AFFIXES[e - g17.E_MIN]
        assert row[:5].tobytes() == lead.encode().ljust(5, b"\0"), e
        assert row[8:13].tobytes() == exponent_text.encode().ljust(5, b"\0"), e
        assert not row[5:8].any() and not row[13:].any()
