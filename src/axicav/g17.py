"""``"%.17g" % v`` for whole float64 arrays, byte for byte.

`fields` writes each value's text into one column of a NUL-padded uint8
matrix with one row per byte position; a CSV writer stacks such matrices,
one per CSV column, transposes them into lines and drops the NULs once.

Digits.  For each value with 1e-280 < |x| < 1e280 the 17 significant
digits D (an integer, 10^16 <= D < 10^17) and the decimal exponent E come
from the double-double product |x|·10^k, k = 16 - E: Dekker's exact
TwoProduct of |x| and the double nearest 10^k, plus |x| times the double
nearest the remainder 10^k - that double.  This is the idea of Grisu
(Loitsch, PLDI 2010).  The product is within 1e-14 (in units of D's last
digit) of the exact |x|·10^k, so D is its rounding to the nearest integer
wherever the product lies more than `TIE_BOUND` from a rounding tie.  E is
guessed with np.log10 and certified by the product's range: the product
must lie a relative `TIE_BOUND` inside [10^16, 10^17].  Only IEEE-exact
+, - and × decide a digit, so the bytes do not depend on numpy's log10
kernel.  Each power of ten is built once, when a value first needs it,
from exact Python integers (int-to-float conversion and int/int division
round correctly).

Fallback.  ``"%.17g" % v`` writes every value that is not certified (a
product within the bound of a tie or of a decade edge) and every zero,
subnormal, inf, NaN and value outside (1e-280, 1e280).

Layout.  Python's ``g`` rules with precision 17: fixed notation for
-4 <= E < 17, otherwise ``d.ddde±XX``, trailing zeros and a bare point
stripped.  A field holds a sign byte, the ``0.000`` lead of E < 0, the 17
digits each followed by a slot for the point, and ``e±XXX``; every byte a
value does not use is NUL.
"""

from __future__ import annotations

import numpy as np

FLOAT_FMT = "%.17g"
TIE_BOUND = 1e-9
WIDTH = 45  # sign, "0.000", 17 digits with a point slot each, "e+XXX"
FALLBACK_WIDTH = 24  # the longest "%.17g" text, e.g. "-2.2250738585072014e-308"

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# |x| in (1e-280, 1e280) has E in [-280, 279], so k = 16 - E in [-263, 296]
_K_MIN, _K_MAX = -263, 296
_SPLITTER = 134217729.0  # 2^27 + 1: Dekker's split into two 26-bit halves

# per k: the double nearest 10^k (as Dekker's two 26-bit halves) and the
# double nearest the remainder, filled when a value first needs that k
_pow10 = np.zeros((3, _K_MAX - _K_MIN + 1))
_pow10_known = np.zeros(_K_MAX - _K_MIN + 1, dtype=bool)

_ROWS = np.arange(17)[:, None]
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]
_LEAD = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]


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
    k = np.clip(16 - exponent, _K_MIN, _K_MAX) - _K_MIN
    missing = ~_pow10_known[k]
    if missing.any():
        _fill_pow10(np.unique(k[missing]) + _K_MIN)
    p_hi, p_lo, rest = (row.take(k) for row in _pow10)
    high = a * (p_hi + p_lo)
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    # high + err is exactly a times the double nearest 10^k
    err = ((a_hi * p_hi - high) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    low = err + a * rest
    rounded = np.rint(low)
    ok &= np.abs(np.abs(low - rounded) - 0.5) > TIE_BOUND
    ok &= (high > 1e16 * (1 + TIE_BOUND)) & (high < 1e17 * (1 - TIE_BOUND))
    high[~ok] = 1e16
    rounded[~ok] = 0.0
    # high >= 10^16 > 2^53 is an integer
    digits = high.astype(np.int64) + rounded.astype(np.int64)
    return ok, digits, exponent


def fields(values, out: np.ndarray) -> None:
    """Write ``FLOAT_FMT % v`` of each of ``values`` into ``out``, a
    (WIDTH, len(values)) uint8 array: one column per value, one row per
    byte position, NUL where a value leaves a byte unused.  The layout is
    column-major so that every step works on whole rows."""
    x = np.asarray(values, dtype=np.float64)
    ok, d, e = decimal17(x)

    # D in five groups of (up to) four digits, then digit by digit
    high, low = np.divmod(d, 10**8)
    groups = np.empty((5, x.size), dtype=np.int64)
    groups[3], groups[4] = np.divmod(low, 10**4)
    high, groups[2] = np.divmod(high, 10**4)
    groups[0], groups[1] = np.divmod(high, 10**4)
    digits = np.empty((5, 4, x.size), dtype=np.uint8)
    for place in (3, 2, 1):
        tens = groups // 10
        digits[:, place] = groups - tens * 10
        groups = tens
    digits[:, 0] = groups
    digits = digits.reshape(20, x.size)[3:]
    keep = np.max((digits != 0) * _PLACES, axis=0)  # digits left once trailing zeros go

    fixed = (e >= -4) & (e < 17)
    whole = fixed & (e >= 0)
    shown = np.where(whole, np.maximum(keep, e + 1), keep)  # digits written
    point = np.where(whole, e, np.where(fixed, -1, 0))  # the digit the point follows
    point[keep <= point + 1] = -1  # no digit after it: no point

    np.multiply(x < 0, np.uint8(ord("-")), out=out[0])
    lead = np.where(fixed & (e < 0), 1 - e, 0)  # "0." and -E-1 zeros
    np.multiply(_ROWS[:5] < lead, _LEAD, out=out[1:6])
    digits += ord("0")
    np.multiply(_ROWS < shown, digits, out=out[6:40:2])
    np.multiply(_ROWS == point, np.uint8(ord(".")), out=out[7:41:2])
    sci = ~fixed
    mag = np.abs(e)
    np.multiply(sci, np.uint8(ord("e")), out=out[40])
    out[41] = np.where(sci, np.where(e < 0, ord("-"), ord("+")), 0)
    out[42] = np.where(sci & (mag >= 100), ord("0") + mag // 100, 0)
    out[43] = np.where(sci, ord("0") + mag // 10 % 10, 0)
    out[44] = np.where(sci, ord("0") + mag % 10, 0)

    slow = np.flatnonzero(~ok)
    if slow.size:
        text = np.array([FLOAT_FMT % v for v in x[slow].tolist()], dtype=f"S{FALLBACK_WIDTH}")
        out[:, slow] = 0
        out[:FALLBACK_WIDTH, slow] = text.view(np.uint8).reshape(-1, FALLBACK_WIDTH).T
