"""The CSV writer: ``"%.17g" % v`` for whole float64 arrays, byte for byte.

`csv` writes a table from a header and whole columns.  On its column path
`fields` writes each value's text into one column of a NUL-padded uint8
matrix with one row per byte position, all the float columns of a table
block in one call, and says which rows each column uses; `csv` keeps
those rows, transposes them into lines and drops the NULs once.

Digits.  For each value with 1e-280 < |x| < 1e280 the 17 significant
digits D (an integer, 10^16 <= D < 10^17) and the decimal exponent E come
from the double-double product |x|·10^k, k = 16 - E: Dekker's exact
TwoProduct of |x| and the double nearest 10^k, plus |x| times the double
nearest the remainder 10^k - that double.  This is the idea of Grisu
(Loitsch, PLDI 2010).  The product is within 1e-14 (in units of D's last
digit) of the exact |x|·10^k, so D is its rounding to the nearest integer
wherever the product lies more than `TIE_BOUND` from a rounding tie, and
wherever 10^k is itself a double (0 <= k <= 22): the product is then
exact, and a tie rounds half to even as in %.  E is guessed with np.log10
and certified by the product's range: the product must lie a relative
`TIE_BOUND` inside [10^16, 10^17].  Only IEEE-exact +, - and × decide a
digit, so the bytes do not depend on numpy's log10 kernel.  Each power of
ten is built once, when a block first needs it, from exact Python integers
(int-to-float conversion and int/int division round correctly).  One
int64 division splits D into its top 8 and bottom 9 digits, both uint32,
and the digits are peeled off the two halves together by uint32 division
by 10, which numpy vectorises with SIMD.

Fallback.  ``"%.16e" % v`` gives D and E of every other finite nonzero
value: one within the bound of a tie it cannot settle or of a decade
edge, a subnormal, or one outside (1e-280, 1e280).  ``%.17g`` lays out the
same digits.  A zero is D = 0, E = 0; inf and NaN are laid out as three
digits with no point, which are then spelled over.

Layout.  Python's ``g`` rules with precision 17: fixed notation for
-4 <= E < 17, otherwise ``d.ddde±XX``, trailing zeros and a bare point
stripped.  A field holds a sign byte, the ``0.000`` lead of E < 0, the 17
digits each followed by a slot for the point, and ``e±XXX``; every byte a
value does not use is NUL.  The lead and the exponent of each E come from
one table built at import, `AFFIXES`.  The rows a value uses follow from
its sign, its E, how many digits it shows and where its point goes, so the
rows no value of a block uses are set to NUL without being computed.
"""

from __future__ import annotations

import numpy as np

FLOAT_FMT = "%.17g"
TIE_BOUND = 1e-9
WIDTH = 45  # sign, "0.000", 17 digits with a point slot each, "e+XXX"
# `csv`'s path switch and block size: see its docstring
COLUMN_PATH_MIN_ROWS = 128
BLOCK_ROWS = 4096

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# |x| in (1e-280, 1e280) has E in [-280, 279], so k = 16 - E in [-263, 296]
_K_MIN, _K_MAX = -263, 296
_SPLITTER = 134217729.0  # 2^27 + 1: Dekker's split into two 26-bit halves

# per k: the double nearest 10^k (as Dekker's two 26-bit halves) and the
# double nearest the remainder, filled when a value first needs that k
_pow10 = np.zeros((3, _K_MAX - _K_MIN + 1))
_pow10_known = np.zeros(_K_MAX - _K_MIN + 1, dtype=bool)

# the decimal exponents of the nonzero finite doubles
E_MIN, E_MAX = -324, 308
_E_RANGE = range(E_MIN, E_MAX + 1)

# per E (row E - E_MIN): the "0.000" lead of fixed notation in bytes 0-4
# and the exponent of scientific notation in bytes 8-12, NUL-padded (16
# bytes, so that taking a row per value is one fast copy)
AFFIXES = np.array(
    [(b"0.000"[: 1 - e] if -4 <= e < 0 else b"").ljust(8, b"\0")
     + (b"" if -4 <= e < 17 else b"e%+03d" % e) for e in _E_RANGE],
    dtype="S16",
).view(np.uint8).reshape(-1, 16)
# per E: the digits fixed notation shows whatever the trailing zeros, and
# one more than the number of digits before the point (0: the lead holds it)
_MIN_SHOWN = np.array([e + 1 if 0 <= e < 17 else 0 for e in _E_RANGE], dtype=np.uint8)
_SLOT = np.array([e + 1 if 0 <= e < 17 else 0 if -4 <= e < 0 else 1 for e in _E_RANGE],
                 dtype=np.uint8)

# The field rows a value's lead and exponent use (per E) and its point uses
# (per slot), as bits of a uint64
_ROW_BITS = np.uint64(1) << np.arange(WIDTH, dtype=np.uint64)
_AFFIX_ROWS = (AFFIXES[:, :5] != 0) @ _ROW_BITS[1:6] | (AFFIXES[:, 8:13] != 0) @ _ROW_BITS[40:]
_POINT_ROWS = np.append(np.uint64(0), _ROW_BITS[7:41:2])

_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None, None]


def _fill_pow10(ks) -> None:
    for k in ks.tolist():
        if k >= 0:
            exact = 10**k
            high = float(exact)
            low = float(exact - int(high))
        else:
            scale = 10**-k
            high = 1 / scale
            num, den = high.as_integer_ratio()
            low = (den - num * scale) / (den * scale)
        c = _SPLITTER * high
        high_hi = c - (c - high)
        _pow10[:, k - _K_MIN] = high_hi, high - high_hi, low
        _pow10_known[k - _K_MIN] = True


def decimal17(x: np.ndarray):
    """``(ok, digits, exponent)`` for a float64 array: where ``ok``, |x|
    rounds to ``digits`` · 10^(exponent - 16) at 17 significant digits
    (``digits`` an int64 in [10^16, 10^17)); elsewhere the two are
    meaningless and the value needs ``FLOAT_FMT``."""
    a = np.abs(x)
    ok = (a > _FAST_MIN) & (a < _FAST_MAX)  # False for 0, subnormals, inf and NaN
    a[~ok] = 1.0
    exponent = np.floor(np.log10(a)).astype(np.intp)
    k = np.clip(16 - _K_MIN - exponent, 0, _K_MAX - _K_MIN)
    lo, hi = int(k.min()), int(k.max())
    if not _pow10_known[lo : hi + 1].all():
        _fill_pow10(np.flatnonzero(~_pow10_known[lo : hi + 1]) + lo + _K_MIN)
    p_hi, p_lo, rest = _pow10.take(k, axis=1)
    exact = rest == 0.0  # 10^k is a double (0 <= k <= 22): high + err is |x|·10^k
    high = p_hi + p_lo
    high *= a
    a_hi = _SPLITTER * a  # Dekker's split: a_hi = c - (c - a), c = _SPLITTER a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    # high + err is exactly a times the double nearest 10^k, with
    # err = ((a_hi p_hi - high) + a_hi p_lo + a_lo p_hi) + a_lo p_lo summed in
    # that order; the steps work in place, as fewer temporaries are faster
    err = a_hi * p_hi
    err -= high
    term = a_hi * p_lo
    err += term
    err += np.multiply(a_lo, p_hi, out=term)
    err += np.multiply(a_lo, p_lo, out=term)
    low = np.multiply(a, rest, out=rest)
    low += err
    rounded = np.rint(low)
    # an exact product may lie on a tie: high is even (an integer past
    # 2^53), so rint's half to even on low is %'s half to even on D
    ok &= (np.abs(low - rounded, out=err) < 0.5 - TIE_BOUND) | exact
    ok &= (high > 1e16 * (1 + TIE_BOUND)) & (high < 1e17 * (1 - TIE_BOUND))
    # high is an integer (10^16 > 2^53 where ok) and far from int64's limits
    digits = high.astype(np.int64)
    digits += rounded.astype(np.int64)
    return ok, digits, exponent


def _settle(x, ok, d, e, sign):
    """Give each value of ``x`` that `decimal17` did not certify its D and E
    in ``d`` and ``e``: 0 and 0 for a zero, ``%.16e``'s for any other
    finite value, and 10^16 and 2 for inf and NaN (three digits, no point),
    whose digits are to be spelled over.  A NaN loses its sign, as in ``%``.
    Returns the indices of inf and NaN and their letters, uint8 (3, count),
    or None and None where no value is inf or NaN."""
    slow = np.nonzero(~ok)
    values = x[slow]
    finite = np.isfinite(values)
    ds = np.where(finite, 0, 10**16)
    es = np.where(finite, 0, 2)
    rest = np.flatnonzero(finite & (values != 0.0))
    texts = ["%.16e" % v for v in np.abs(values[rest]).tolist()]  # d.dddddddddddddddde±XX
    ds[rest] = [int(t[0] + t[2:18]) for t in texts]
    es[rest] = [int(t[19:]) for t in texts]
    d[slow], e[slow] = ds, es
    if finite.all():  # nothing to spell, and fewer than three digit rows may be written
        return None, None
    spelled = tuple(axis[~finite] for axis in slow)
    nan = np.isnan(x[spelled])
    sign[spelled] &= ~nan
    return spelled, np.where(nan, b"nan", b"inf").view(np.uint8).reshape(-1, 3).T


def fields(table, out: np.ndarray) -> np.ndarray:
    """Write ``FLOAT_FMT % v`` of each value of a table block ``table``
    (columns, rows) into ``out`` (WIDTH, columns, rows): one column per
    value, one row per byte position, NUL where a value leaves a byte
    unused.  The layout is column-major so that every step works on whole
    rows; the block is best C-contiguous.

    Returns which rows each column uses, bool (columns, WIDTH): a row no
    value of a column uses holds NUL for all of them."""
    x = np.asarray(table, dtype=np.float64)
    ok, d, e = decimal17(x)
    sign = np.signbit(x)
    spelled = None
    if not ok.all():
        spelled, letters = _settle(x, ok, d, e, sign)

    # D as two uint32 halves of 9 digits (the top one's first is 0), peeled
    # together: a digit is h - 10 (h // 10), taken mod 256 in uint8
    top = d // 10**9
    halves = np.empty((2, *x.shape), dtype=np.uint32)
    halves[0] = top
    np.subtract(d, top * 10**9, out=halves[1], casting="unsafe")
    digits = np.empty((2, 9, *x.shape), dtype=np.uint8)
    low = halves.astype(np.uint8)
    for place in range(8, 0, -1):
        halves //= 10
        tens = halves.astype(np.uint8)
        np.subtract(low, tens * np.uint8(10), out=digits[:, place])
        low = tens
    digits[:, 0] = low
    digits = digits.reshape(18, *x.shape)[1:]  # D's 17 digits
    # the digits left once trailing zeros go
    keep = np.max((digits != 0).view(np.uint8) * _PLACES, axis=0)

    index = e - E_MIN
    shown = np.maximum(keep, _MIN_SHOWN.take(index))  # digits written
    slot = _SLOT.take(index)  # the point follows digit slot - 1; 0: no point here
    slot[keep <= slot] = 0  # no digit after it: no point

    # the rows each column uses: its values' sign, lead, exponent and point
    # rows, and as many digit rows as its longest value shows
    uses = _AFFIX_ROWS.take(index)
    uses |= _POINT_ROWS.take(slot)
    used = np.bitwise_or.reduce(uses, axis=1)[:, None] & _ROW_BITS != 0
    used[:, 0] = sign.any(axis=1)
    used[:, 6:40:2] = _PLACES[:, 0, 0] <= shown.max(axis=1)[:, None]
    needed = used.any(axis=0)

    out[~needed] = 0
    if needed[0]:
        np.multiply(sign.view(np.uint8), np.uint8(ord("-")), out=out[0])
    leads, exponents = np.count_nonzero(needed[1:6]), np.count_nonzero(needed[40:])
    if leads or exponents:
        affixes = np.moveaxis(AFFIXES.take(index, axis=0), -1, 0)
        out[1 : 1 + leads] = affixes[:leads]
        out[40 : 40 + exponents] = affixes[8 : 8 + exponents]
    count = np.count_nonzero(needed[6:40:2])
    digits = digits[:count]
    digits += ord("0")
    if spelled is not None:
        digits[(slice(0, 3), *spelled)] = letters
    written = (_PLACES[:count] <= shown).view(np.uint8)
    np.multiply(written, digits, out=out[6 : 6 + 2 * count : 2])
    points = np.flatnonzero(needed[7:41:2])
    if points.size:  # the slots from the first to the last any value uses
        first, last = points[0], points[-1] + 1
        at = (_PLACES[first:last] == slot).view(np.uint8)
        np.multiply(at, np.uint8(ord(".")), out=out[7 + 2 * first : 7 + 2 * last : 2])
    return used


def csv(header: str, columns):
    """A CSV table from a header and whole columns, as text pieces: a float
    ndarray is written as FLOAT_FMT, any other column (an integer array or
    a list) with str().

    Two paths give the same bytes.  A table of fewer than
    COLUMN_PATH_MIN_ROWS rows is one piece, formatted row by row with one %
    per row and a format string built once per table.  A longer one takes
    the column path and yields the header, then one piece per BLOCK_ROWS
    rows: one `fields` call writes all the block's float columns from their
    17 digits, computed in numpy and certified to lie more than TIE_BOUND
    (1e-9 of the last digit) from a rounding tie and from a decade edge (a
    value it cannot certify, and any zero, subnormal, inf or NaN, takes its
    digits from % instead).  The fields and the other columns' bytes sit in
    one byte matrix; the rows no value of a column uses are left out as the
    matrix is transposed into lines, and the remaining NULs go in one pass.

    The column path costs over a hundred numpy calls per block whatever
    its row count, so short tables (the 30-bin histograms, the growth
    series, `pascal`'s 25 rows, `profile`'s default 121) are cheaper by %.
    On a 2-core VM, three float columns of the mass-scan table took 0.063
    ms by % and 0.185 ms by column at 30 rows, 0.194 and 0.206 ms at 96,
    0.256 and 0.215 ms at 128, and 8.1 and 1.7 ms at 4096;
    COLUMN_PATH_MIN_ROWS sits just past that crossover.
    """
    floats = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
    n = len(columns[0])
    if n < COLUMN_PATH_MIN_ROWS:
        row = ",".join([FLOAT_FMT if f else "%s" for f in floats])
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        yield "\n".join([header, *(row % r for r in zip(*values))]) + "\n"
        return
    yield header + "\n"
    count = sum(floats)
    for start in range(0, n, BLOCK_ROWS):
        part = [c[start : start + BLOCK_ROWS] for c in columns]
        texts = [None if f else np.array([str(v) for v in c], dtype="S")
                 for c, f in zip(part, floats)]
        # one row per byte position, one column per table row: byte r of
        # float column i in row r * count + i, then the text columns'
        # bytes, a comma and a newline
        top = WIDTH * count
        block = np.empty((top + sum(t.itemsize for t in texts if t is not None) + 2,
                          len(part[0])), dtype=np.uint8)
        block[-2] = ord(",")
        block[-1] = ord("\n")
        if count:
            table = np.array([c for c, f in zip(part, floats) if f])
            used = fields(table, block[:top].reshape(WIDTH, count, -1))
        # the rows of each line in order, leaving out rows no value uses
        order = []
        i = 0
        for text in texts:
            if text is None:
                order += (np.flatnonzero(used[i]) * count + i).tolist()
                i += 1
            else:
                width = text.itemsize
                block[top : top + width] = text.view(np.uint8).reshape(-1, width).T
                order += range(top, top + width)
                top += width
            order.append(-2)
        order[-1] = -1
        yield block[order].T.tobytes().translate(None, b"\0").decode("ascii")
