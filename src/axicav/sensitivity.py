"""Signal growth fitting, shot-noise floors, and coupling reach.

The chain is always the same: a simulated (or quoted) signal-vs-traversal
series is fitted, extrapolated to the planned number of extractions,
divided by the full beam rate to get a fractional signal, and compared to
the fractional shot noise.  Since the signal scales with the coupling
squared, the smallest measurable coupling follows by square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import density
from .checks import Count, Positive, check_args, check_fields
from .cavity import RunResult

DEFAULT_BEAM_RATE = 5e18  # photons/s carried by the full beam

DEFAULT_PIXEL_HALF_WIDTH_M = 1.0e-6
DEFAULT_SIDEBAND_PIXEL_CENTER_M = 3.3e-3


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


@dataclass(frozen=True)
class GrowthFit:
    """Either signal = slope*n + intercept or signal = coefficient * n**exponent."""

    kind: str  # "linear" or "power"
    slope: float | None = None
    intercept: float | None = None
    coefficient: float | None = None
    exponent: float | None = None
    r_squared: float = 1.0

    def evaluate(self, n):
        if self.kind == "linear":
            return self.slope * np.asarray(n, dtype=float) + self.intercept
        if self.kind == "power":
            return self.coefficient * np.asarray(n, dtype=float) ** self.exponent
        raise ValueError(f"unknown fit kind {self.kind!r}")

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "r_squared": self.r_squared}
        if self.kind == "linear":
            out["slope"] = self.slope
            out["intercept"] = self.intercept
        else:
            out["coefficient"] = self.coefficient
            out["exponent"] = self.exponent
        return out


@dataclass(frozen=True)
class NoiseBudget:
    """Photon rate in the counted region and how long it is counted."""

    photon_rate: Positive  # photons/s
    integration_time_s: Positive = 1.0

    def __post_init__(self):
        check_fields(self, ValueError)


def _r_squared(y, fitted) -> float:
    res = float(np.sum((y - fitted) ** 2))
    tot = float(np.sum((y - np.mean(y)) ** 2))
    if tot == 0.0:
        return 1.0 if res == 0.0 else 0.0
    return 1.0 - res / tot


def fit_linear(series: GrowthSeries) -> GrowthFit:
    """Unweighted least-squares line through the series."""
    if len(series) < 3:
        raise ValueError("need at least 3 points to fit")
    if np.all(series.n == series.n[0]):
        raise ValueError("degenerate series: all n equal")
    slope, intercept = np.polyfit(series.n, series.signal, 1)
    fitted = slope * series.n + intercept
    return GrowthFit(
        kind="linear",
        slope=float(slope),
        intercept=float(intercept),
        r_squared=_r_squared(series.signal, fitted),
    )


def fit_power(series: GrowthSeries) -> GrowthFit:
    """Least squares in log-log space; signal = coefficient * n**exponent."""
    if len(series) < 3:
        raise ValueError("need at least 3 points to fit")
    if np.any(series.signal <= 0) or np.any(series.n <= 0):
        raise ValueError("power-law fit requires positive n and signal")
    ln, ls = np.log(series.n), np.log(series.signal)
    exponent, log_coef = np.polyfit(ln, ls, 1)
    fitted = exponent * ln + log_coef
    return GrowthFit(
        kind="power",
        coefficient=float(np.exp(log_coef)),
        exponent=float(exponent),
        r_squared=_r_squared(ls, fitted),
    )


@check_args
def extrapolate(fit: GrowthFit, n: Count) -> float:
    """Evaluate the fitted growth law at traversal count n."""
    return float(fit.evaluate(n))


def shot_noise_fraction(budget: NoiseBudget) -> float:
    """Fractional 1/sqrt(N) fluctuation of the counted photons."""
    return 1.0 / math.sqrt(budget.photon_rate * budget.integration_time_s)


@check_args
def min_coupling(g_ref: Positive, signal_fraction_at_ref: float, noise_fraction: Positive) -> float:
    """Smallest coupling whose signal still clears the noise floor.

    The fractional signal scales as (g/g_ref)^2 times the fraction measured
    at g_ref, so the threshold crossing is at
    g_min = g_ref * sqrt(noise_fraction / signal_fraction_at_ref).
    A fraction <= 0 has no crossing and gives inf; NaN and +inf are refused.
    """
    if not signal_fraction_at_ref < math.inf:
        raise ValueError(
            f"signal_fraction_at_ref must be a number below inf, got {signal_fraction_at_ref!r}"
        )
    if signal_fraction_at_ref <= 0:
        return math.inf
    return g_ref * math.sqrt(noise_fraction / signal_fraction_at_ref)


@check_args
def scenario_report(
    scenario_name: str,
    fit: GrowthFit,
    n_target: Count,
    g_ref: Positive,
    integration_time_s: Positive,
    total_rate: Positive = DEFAULT_BEAM_RATE,
) -> dict:
    """Bundle the full extrapolation chain into a JSON-ready report.

    The noise floor is the 1-second shot noise of the full beam,
    1/sqrt(total_rate); integrating longer scales the reach by t^(-1/4)
    (noise drops as sqrt(t), coupling as the fourth root).
    """
    noise_fraction_1s = shot_noise_fraction(NoiseBudget(total_rate, 1.0))
    extrapolated = extrapolate(fit, n_target)
    fraction = extrapolated / total_rate
    g1 = min_coupling(g_ref, fraction, noise_fraction_1s)
    g_t = g1 * integration_time_s ** (-0.25)
    report = {
        "scenario": scenario_name,
        "fit": fit.as_dict(),
        "extrapolated_photons": extrapolated,
        "signal_fraction": fraction,
        "noise_fraction": noise_fraction_1s,
        "g_min_1s": g1,
        "g_min_integrated": g_t,
        "integration_time_s": integration_time_s,
    }
    if not math.isfinite(g1):
        report["note"] = "no sensitivity: signal fraction is zero"
    return report


# ---------------------------------------------------------------------------
# series builders on cavity runs


def _window_series(
    result: RunResult,
    profile: density.GaussianProfile,
    windows: list[tuple[float, float, float]],
) -> GrowthSeries:
    """S(reference) - S(snapshot) at every detector snapshot, where
    S(ensemble) is the sum of coefficient * (exact rate in [lo, hi)) over
    the ``(lo, hi, coefficient)`` windows and the reference is the unsplit
    axial beam.  Each window contributes minus its coefficient times the
    snapshot's deviation from that beam (`density.rates`), so no two large
    totals are subtracted."""

    def change(ens):
        # 0.0 - x: a snapshot that never left the axis gives +0, not -0
        return 0.0 - sum(c * density.rates(ens, profile, (lo, hi))[1][0] for lo, hi, c in windows)

    ns = [snap.traversal for snap in result.snapshots]
    vals = [change(snap.ensemble) for snap in result.snapshots]
    return GrowthSeries(np.array(ns, dtype=float), np.array(vals, dtype=float))


def central_loss_series(
    result: RunResult,
    profile: density.GaussianProfile,
    pixel_half_width_m: float = DEFAULT_PIXEL_HALF_WIDTH_M,
) -> GrowthSeries:
    """Photon rate lost from the central pixel (a two-sided window of
    +-pixel_half_width around the axis) at each detector snapshot, relative
    to the unsplit reference beam."""
    return _window_series(result, profile, [(-pixel_half_width_m, pixel_half_width_m, 1.0)])


def sideband_gain_series(
    result: RunResult,
    profile: density.GaussianProfile,
    pixel_center_m: float = DEFAULT_SIDEBAND_PIXEL_CENTER_M,
    pixel_half_width_m: float = DEFAULT_PIXEL_HALF_WIDTH_M,
) -> GrowthSeries:
    """Photon rate gained in a narrow sideband pixel (both detector halves,
    via the symmetric doubling rule) relative to the unsplit reference."""
    lo, hi = pixel_center_m - pixel_half_width_m, pixel_center_m + pixel_half_width_m
    return _window_series(result, profile, [(lo, hi, -2.0)])


def center_sideband_series(result: RunResult, profile: density.GaussianProfile) -> GrowthSeries:
    """Change of the (center minus sidebands) observable per snapshot.

    With w the profile's waist, center is [0, w/2] and the sidebands run
    from w out to 4*w + 1 mm, each doubled for the two detector halves; windows are
    integrated exactly rather than through binned counts.  The change is
    reference minus run, so photons migrating outward give a growing
    positive signal (each moved photon counts twice: once missing from the
    center, once arriving in the sidebands).
    """
    w = profile.waist_m
    return _window_series(result, profile, [(0.0, 0.5 * w, 2.0), (w, 4.0 * w + 1.0e-3, -2.0)])
