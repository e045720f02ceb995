"""Signal growth fitting and coupling reach.

The chain is always the same: a simulated (or quoted) signal-vs-traversal
series is fitted and extrapolated to the planned number of extractions,
and `reach` divides that signal by the full beam rate and sets the
fraction against the fractional shot noise.  Since the signal scales with
the coupling squared, the smallest measurable coupling follows by square
root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import density
from .checks import Count, Positive, check_args


@dataclass(frozen=True)
class GrowthSeries:
    """Signal vs traversal count, n finite and strictly increasing, the
    signal finite."""

    n: np.ndarray
    signal: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float)
        s = np.asarray(self.signal, dtype=float)
        if n.ndim != 1 or n.shape != s.shape:
            raise ValueError("n and signal must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(n)) and np.all(np.diff(n) > 0)):
            raise ValueError("traversal counts must be finite and strictly increasing")
        if not np.all(np.isfinite(s)):
            raise ValueError("signal must be finite")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "signal", s)

    def __len__(self) -> int:
        return self.n.size


# the kinds of fit: kind k is fitted by `fit_k`, and `GrowthFit.kind` names it
FIT_KINDS = ("linear", "power")


@dataclass(frozen=True)
class GrowthFit:
    """Either signal = slope*n + intercept or signal = coefficient * n**exponent."""

    kind: str  # one of FIT_KINDS
    slope: float | None = None
    intercept: float | None = None
    coefficient: float | None = None
    exponent: float | None = None
    r_squared: float = 1.0

    def evaluate(self, n: float) -> float:
        """The fitted signal at n, in Python floats: the C library's pow,
        not numpy's SIMD one, which differs from it in some last bits.
        OverflowError where it lies past the largest double: a float
        product that overflows gives +-inf, not the error."""
        if self.kind == "linear":
            value = self.slope * float(n) + self.intercept
        elif self.kind == "power":
            value = self.coefficient * float(n) ** self.exponent
        else:
            raise ValueError(f"unknown fit kind {self.kind!r}")
        if not math.isfinite(value):
            raise OverflowError(f"the {self.kind} fit at n = {n!r} is {value!r}")
        return value

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "r_squared": self.r_squared}
        if self.kind == "linear":
            out["slope"] = self.slope
            out["intercept"] = self.intercept
        else:
            out["coefficient"] = self.coefficient
            out["exponent"] = self.exponent
        return out


# fewest points either fit takes: a line through two points has no residual
MIN_FIT_POINTS = 3


def _integers(values) -> tuple[list[int], int]:
    """Integers v and a shift k with values[i] == v[i] / 2**k exactly."""
    ratios = [float(x).as_integer_ratio() for x in values]
    k = max(q.bit_length() for _, q in ratios) - 1  # every q is a power of two
    return [p << (k - q.bit_length() + 1) for p, q in ratios], k


def fit_line(x, y) -> tuple[float, float, float]:
    """The least-squares line y = slope * x + intercept through the points
    (two sequences of floats, the x not all equal) and its r^2, each the
    exact value for these points rounded once: the centred sums
    n sum(x y) - sum(x) sum(y) are taken in Python integers (a float is an
    integer over a power of two), so no BLAS, LAPACK or SIMD kernel orders a
    sum or sets a digit.  OverflowError for a line past the largest double."""
    (u, kx), (v, ky) = _integers(x), _integers(y)
    n, sx, sy = len(u), sum(u), sum(v)
    sxx = n * sum(a * a for a in u) - sx * sx
    sxy = n * sum(a * b for a, b in zip(u, v)) - sx * sy
    syy = n * sum(b * b for b in v) - sy * sy
    # an int over an int is the exact quotient rounded once
    slope = (sxy << kx) / (sxx << ky)
    intercept = (sy * sxx - sxy * sx) / ((n * sxx) << ky)
    r_squared = sxy * sxy / (sxx * syy) if syy else 1.0  # a level line fits exactly
    return slope, intercept, r_squared


def fit_linear(series: GrowthSeries) -> GrowthFit:
    """Unweighted least-squares line through the series (its n strictly
    increase, so they are not all equal)."""
    if len(series) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points to fit")
    slope, intercept, r_squared = fit_line(series.n.tolist(), series.signal.tolist())
    return GrowthFit(kind="linear", slope=slope, intercept=intercept, r_squared=r_squared)


def fit_power(series: GrowthSeries) -> GrowthFit:
    """Least squares in log-log space; signal = coefficient * n**exponent.
    The logarithms and the coefficient come from the C library, one value at
    a time."""
    if len(series) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points to fit")
    if np.any(series.signal <= 0) or np.any(series.n <= 0):
        raise ValueError("power-law fit requires positive n and signal")
    exponent, log_coef, r_squared = fit_line([math.log(v) for v in series.n.tolist()],
                                             [math.log(v) for v in series.signal.tolist()])
    return GrowthFit(kind="power", coefficient=math.exp(log_coef), exponent=exponent,
                     r_squared=r_squared)


class FractionError(ValueError):
    """A signal fraction that is not finite: a signal that is no number, or
    a rate too small for a finite signal."""


@check_args
def reach(signal_photons: float, total_rate: Positive, g_ref: Positive,
          integration_time_s: Positive) -> dict:
    """The coupling reach of a signal of ``signal_photons`` per second,
    measured at coupling g_ref, against the shot noise of the whole beam.

    The signal fraction is signal / total_rate and the noise floor is the
    1-second shot noise 1/sqrt(total_rate).  The fraction scales as
    (g/g_ref)^2, so it meets the floor at
    g_min_1s = g_ref * sqrt(noise_fraction / signal_fraction), and
    integrating longer scales that by t^(-1/4) (noise drops as sqrt(t),
    coupling as the fourth root).  Where the fraction is not positive no
    coupling reaches the floor: both couplings are None (JSON null, as JSON
    has no infinity).  A fraction that is NaN or +-inf raises FractionError,
    and a reach past the largest double ValueError.
    """
    noise = 1.0 / math.sqrt(total_rate)
    fraction = signal_photons / total_rate
    if not math.isfinite(fraction):
        raise FractionError(f"signal_fraction must be finite, got {fraction!r}")
    g1 = g_t = None
    if fraction > 0:
        g1 = g_ref * math.sqrt(noise / fraction)
        g_t = g1 * integration_time_s ** (-0.25)
        if g_t == math.inf:
            raise ValueError(
                f"the coupling reach at g_ref {g_ref!r} over integration_time_s "
                f"{integration_time_s!r} lies past the largest double"
            )
    return {"signal_fraction": fraction, "noise_fraction": noise,
            "g_min_1s": g1, "g_min_integrated": g_t}


@check_args
def scenario_report(scenario_name: str, fit: GrowthFit, n_target: Count, g_ref: Positive,
                    integration_time_s: Positive, total_rate: Positive) -> dict:
    """The JSON-ready report of `reach` for ``fit``'s signal at n_target,
    with a note where no coupling is reached.  OverflowError where that
    signal lies past the largest double."""
    extrapolated = fit.evaluate(n_target)
    report = {
        "scenario": scenario_name,
        "fit": fit.as_dict(),
        "extrapolated_photons": extrapolated,
        **reach(extrapolated, total_rate, g_ref, integration_time_s),
        "integration_time_s": integration_time_s,
    }
    if report["g_min_1s"] is None:
        report["note"] = "no sensitivity: signal fraction is not positive"
    return report


# ---------------------------------------------------------------------------
# series builders on detector snapshots: each takes a run's snapshots as
# their traversals and moment vectors (`density.snapshot_moments` at the
# profile's waist)


def _window_series(
    traversals,
    moments,
    profile: density.GaussianProfile,
    windows: list[tuple[float, float, float]],
) -> GrowthSeries:
    """S(reference) - S(snapshot) at every detector snapshot, where
    S(snapshot) is the sum of coefficient * (exact rate in [lo, hi)) over
    the ``(lo, hi, coefficient)`` windows and the reference is the unsplit
    axial beam.  Each window contributes minus its coefficient times the
    snapshots' deviations from that beam, all of them from one call of
    `density.rates_from_moments`, so no two large totals are subtracted."""
    # 0.0 - x: a snapshot that never left the axis gives +0, not -0
    change = 0.0 - sum(c * density.rates_from_moments(moments, profile, (lo, hi))[1][:, 0]
                       for lo, hi, c in windows)
    return GrowthSeries(np.array(traversals, dtype=float), change)


def central_loss_series(
    traversals,
    moments,
    profile: density.GaussianProfile,
    pixel_half_width_m: float,
) -> GrowthSeries:
    """Photon rate lost from the central pixel (a two-sided window of
    +-pixel_half_width around the axis) at each detector snapshot, relative
    to the unsplit reference beam."""
    return _window_series(traversals, moments, profile,
                          [(-pixel_half_width_m, pixel_half_width_m, 1.0)])


def sideband_gain_series(
    traversals,
    moments,
    profile: density.GaussianProfile,
    pixel_center_m: float,
    pixel_half_width_m: float,
) -> GrowthSeries:
    """Photon rate gained in a narrow sideband pixel (both detector halves,
    via the symmetric doubling rule) relative to the unsplit reference."""
    lo, hi = pixel_center_m - pixel_half_width_m, pixel_center_m + pixel_half_width_m
    return _window_series(traversals, moments, profile, [(lo, hi, -2.0)])


def center_sideband_series(traversals, moments, profile: density.GaussianProfile) -> GrowthSeries:
    """Change of the (center minus sidebands) observable per snapshot.

    With w the profile's waist, center is [0, w/2] and the sidebands run
    from w out to 4*w + 1 mm, each doubled for the two detector halves; windows are
    integrated exactly rather than through binned counts.  The change is
    reference minus run, so photons migrating outward give a growing
    positive signal (each moved photon counts twice: once missing from the
    center, once arriving in the sidebands).
    """
    w = profile.waist_m
    return _window_series(traversals, moments, profile,
                          [(0.0, 0.5 * w, 2.0), (w, 4.0 * w + 1.0e-3, -2.0)])
