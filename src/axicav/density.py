"""Transverse photon-density profiles and detector histograms.

Two sides live here.  The numerical side (`rates_from_moments`, with
`integrate_window` and `profile_difference` on top) gives the exact photon
rate of a detector snapshot in detector windows, from its moment vector,
with the beam profile A*exp(-x^2 / 2 r^2) so r is the rms width.  The
analytic side is one model, a beam split into a displaced, broadened
half-beam pair: `deficit` gives its exact density change and reduces to
the paper's second-order form for a small split.  Both sides read `GaussianProfile.waist_m` as the rms
width; `deficit` works inside with the paper's 1/e half-width, sqrt(2)
times it, so the `profile` curve and `simulate`'s histograms describe one
beam.

The beams of a cavity run stay far inside one waist of the axis (max|x|/r
is 1.5e-4 on the confocal preset), so the rate is expanded about the axis
in the scaled raw moments m_n = sum_i w_i (x_i/r)^n of a detector's beams,
and `rates_from_moments` turns them into the rate in any window as the rate
of one unit beam on the axis plus the deviation from it.
A change against the unsplit beam is the deviation alone, never the
difference of two totals of 1e13-1e15 photons/s.  The edges need only the
error function of the math module, so no verb loads scipy.

A detector snapshot is its moment vector, and no beam position is read for
it.  A run starts on the axis and its transport is linear, so snapshot k's
beams are the 2^k sums sum_j s_j a_j of its kick coefficients over the
signs s_j = +-1 (`cavity.kick_coefficients`), at equal weight.
`snapshot_moments` takes the vectors of a run's snapshots from their
coefficients, at the profile's waist: it refuses a snapshot past the
series when it is called, from the coefficients' prefix sums alone, and
sums each vector as it is read.  The odd moments are exactly 0.0 (X and
-X are equally likely), and the even ones come from a binomial
convolution of nonnegative terms.  One call of `rates_from_moments` reads
every snapshot of a run: it builds the Hermite table of its windows once
for each series order among them and sums each snapshot's series over it
one order at a time, so no rate goes through BLAS, whose kernels each sum
in an order of their own.  `bin_ensemble` is its name for the rendering
of a run's histograms.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .checks import NonNegative, Positive, check_args, check_fields

# The moment series: the dropped terms of `rates_from_moments` stay below
# TAIL of A*r*m_2, and an ensemble that needs more than MAX_ORDER terms for that
# (max|x|/r past about 1.1) is refused with GuardError.
TAIL = 1e-17
MAX_ORDER = 32
CRAMER = 1.0865  # |He_k(u)| exp(-u^2/4) <= CRAMER sqrt(k!) for every k and u

# effective peak rate of the triangle-shaped deficit estimate, photons/s
TRIANGLE_SCALE_PHOTONS_PER_S = (5.0 / 6.0) * 1e18


class GuardError(ValueError):
    """An ensemble sits too far off the axis for the moment series."""


@dataclass(frozen=True)
class GaussianProfile:
    """The reference beam on the axis, the scenario's `[laser]` section:
    A*exp(-x^2 / 2 r^2), so r = ``waist_m`` is its rms transverse width.

    A = ``amplitude_photons_per_s`` is read two ways, and which one is
    right is open (ROADMAP.md, item 12).  `simulate` and `profile` render
    it as the peak A of that curve, so the beam they integrate carries
    A*r*sqrt(2 pi) photons/s.  `analyze` divides the signal by it as the
    rate of the whole beam.

    A profile whose whole-beam rate A*r*sqrt(2 pi) overflows a double is
    refused: that rate bounds the axial part of every window, so each
    verb refuses the laser as its scenario loads, naming both fields."""

    amplitude_photons_per_s: Positive = 5e18
    waist_m: Positive = 7.5e-4

    def __post_init__(self):
        check_fields(self, ValueError)
        if not self.amplitude_photons_per_s * self.waist_m * math.sqrt(2.0 * math.pi) < math.inf:
            raise ValueError(f"amplitude_photons_per_s and waist_m must give a finite whole-beam "
                             f"rate A*r*sqrt(2 pi), got {self.amplitude_photons_per_s!r} "
                             f"photons/s and {self.waist_m!r} m")


@check_args
def deficit(x, alpha_m: NonNegative, epsilon_m: NonNegative, profile: GaussianProfile):
    """Density change, reference minus split pair, of a beam split into two
    half-weight beams at +-alpha, each widened from r to w = sqrt(r (r + eps))
    with its peak scaled by r^2/w^2 (the pair carries r/w of its integrated
    rate).  As in the paper, r is the 1/e half-width: the reference is
    A e^{-x^2/r^2}.  The profile gives the rms width sigma that `simulate`
    uses, so r = sqrt(2) sigma, and eps broadens r.  Exact for any
    alpha, eps >= 0:

        D = -A e^{-x^2/r^2} expm1(L),
        L = x^2 eps/(r w^2) - log1p(eps/r) - alpha^2/w^2 + ln cosh(2 alpha x/w^2),

    so nothing cancels however small alpha and eps are.  Positive near the
    axis (photons lost from the center), negative past the crossover, near
    x = r/sqrt(2) = sigma for a small split, where `simulate`'s difference
    histograms change sign too.  To second order in alpha/r and first
    in eps/r, D is the paper's

        A e^{-x^2/r^2} [1 - ((r-eps)/r) e^{x^2 eps/r^3}
                          (1 - alpha^2/r^2) cosh(2 alpha x/r^2)].

    Where the pair outweighs the reference by e or more (L >= 1) the
    difference is taken directly, the pair's exponent written as
    -(|x| - alpha)^2/w^2 so that no factor overflows far from the axis.
    Past |x| = alpha + 40 w both Gaussians are below the smallest double,
    so D is +0 there; |x| is capped at that point, which keeps the squares
    finite for any x.  A waist for which r w^2 underflows a double is refused,
    and so is a split so wide for its waist that alpha^2/w^2 overflows one,
    or a broadening for which eps/(r w^2) does.

    Each point takes exp, expm1, log1p and sinh from the C library, one
    value at a time: numpy's give other last bits on other SIMD kernels."""
    r, amplitude = math.sqrt(2.0) * profile.waist_m, profile.amplitude_photons_per_s
    w2 = r * (r + epsilon_m)
    if not r * w2 >= sys.float_info.min:
        raise ValueError(f"waist_m is too small: r w^2 underflows, got {profile.waist_m!r}")
    log_peak = -math.log1p(epsilon_m / r)  # ln(r^2/w^2)
    cap = alpha_m + 40.0 * math.sqrt(w2)
    try:
        offset = alpha_m**2 / w2
    except OverflowError:  # alpha^2
        offset = math.inf
    if offset == math.inf:  # then slope = alpha/w^2 is finite too
        raise ValueError(
            f"alpha_m is too large for waist_m: alpha^2/w^2 overflows a double, "
            f"got {alpha_m!r} and {profile.waist_m!r}"
        )
    spread, slope = epsilon_m / (r * w2), alpha_m / w2
    if spread == math.inf:  # x^2 eps/(r w^2) would be inf * 0 = nan on the axis
        raise ValueError(
            f"epsilon_m is too large for waist_m: eps/(r w^2) overflows a double, "
            f"got {epsilon_m!r} and {profile.waist_m!r}"
        )
    exp, expm1, log1p, sinh, ln2 = math.exp, math.expm1, math.log1p, math.sinh, math.log(2.0)

    def at(x):
        x = min(abs(x), cap)
        y = slope * x
        # ln(1 + e^{-4y}) - ln 2: the pair's cosh over its larger exponential
        tail = log1p(exp(-4.0 * y)) - ln2
        if y < 1.0:
            s = sinh(y)
            log_cosh = log1p(2.0 * s * s)
        else:
            log_cosh = 2.0 * y + tail
        log_ratio = spread * x * x + log_peak - offset + log_cosh
        u, v = x / r, x - alpha_m
        ref = exp(-(u * u))
        if log_ratio < 1.0:
            return amplitude * (0.0 - ref * expm1(log_ratio))  # +0 for an unsplit beam
        return amplitude * (ref - exp(log_peak - v * v / w2 + tail))

    x = np.asarray(x, dtype=float)
    return np.array([at(v) for v in x.ravel().tolist()]).reshape(x.shape)


@check_args
def single_pass_estimate(
    theta_split_rad: NonNegative, cavity_length_m: Positive, waist_m: Positive
) -> float:
    """Triangle-area estimate of the photon rate moved out of the beam core
    by a single cavity pass: TRIANGLE_SCALE_PHOTONS_PER_S * (theta_split * d / r)^2.

    The displacement after one pass is alpha = theta_split * d, the relative
    center deficit is (alpha/r)^2, and the affected region is modeled as a
    triangle of that fractional height against an effective peak rate.
    """
    return TRIANGLE_SCALE_PHOTONS_PER_S * (theta_split_rad * cavity_length_m / waist_m) ** 2


# ---------------------------------------------------------------------------
# detector binning


def bin_count(bin_width_m: float, x_max_m: float) -> int:
    """How many bins of bin_width_m make x_max_m; ValueError unless a whole
    number of them does, to 1e-9 of a bin."""
    n = x_max_m / bin_width_m
    if not (n < math.inf and abs(round(n) * bin_width_m - x_max_m) <= 1e-9 * bin_width_m):
        raise ValueError("x_max must be an integer number of bins")
    return round(n)


@check_args
def histogram_edges(bin_width_m: Positive, x_max_m: Positive) -> np.ndarray:
    return np.arange(bin_count(bin_width_m, x_max_m) + 1, dtype=float) * bin_width_m


def _order(rho: float) -> int:
    """The highest moment order `rates_from_moments` needs when
    max|x|/r = rho.

    Term n of the series is A*r*d_n*m_n/n!.  Cramer's inequality bounds
    |d_n| by 2*CRAMER*sqrt((n-1)!), and |m_n| <= rho^(n-2) m_2, so the
    term is at most 2*CRAMER*rho^(n-2)/(n*sqrt((n-1)!)) of A*r*m_2.  The
    series stops at the first order N whose next term is below TAIL/2 of
    that; below the cap each later term is under half the one before, so
    everything dropped stays below TAIL.  Past rho = 2 no order up to the
    cap will do, so the bound is taken at 2, where its powers cannot
    overflow (a NaN stays NaN)."""
    bounded = min(rho, 2.0)
    n = 2
    while not 4.0 * CRAMER * bounded ** (n - 1) / ((n + 1) * math.sqrt(math.factorial(n))) < TAIL:
        n += 1
        if n > MAX_ORDER:
            raise GuardError(
                f"max|x|/r = {rho:.3g}: the moment series needs more than {MAX_ORDER} "
                f"terms to reach {TAIL:g}"
            )
    return n


def _midpoint_order(n_max: int, delta: float) -> int:
    """The highest odd power of delta <= 1/4 that the midpoint series of
    `rates_from_moments` needs for the orders n <= n_max.  Cramer's
    inequality bounds term k by 2*CRAMER*sqrt((n+k-1)!) delta^k/k!; the
    series stops at the first odd K whose next term is below TAIL/2 of the
    first term's bound, and each later term is under half the one before."""
    k = 1
    while not (math.sqrt(math.factorial(n_max + k + 1) / math.factorial(n_max))
               * delta ** (k + 1) / math.factorial(k + 2) < TAIL / 2):
        k += 2
    return k


def _hermite_functions(u: np.ndarray, count: int) -> np.ndarray:
    """Rows E_1(u), ..., E_count(u), E_n(u) = He_{n-1}(u) exp(-u^2/2), by
    the recurrence of He started from the envelope, so that far from the
    axis they underflow to zero rather than overflow.  The envelope comes
    from the C library's exp, one value at a time: numpy's exp gives other
    last bits on other SIMD kernels, and the table holds a few dozen values."""
    e = np.empty((count, u.size))
    prev, cur = np.zeros_like(u), np.array([math.exp(-0.5 * v * v) for v in u.tolist()])
    for k in range(count):
        e[k] = cur
        prev, cur = cur, u * cur - k * prev
    return e


def snapshot_moments(coefficients, traversals, profile: GaussianProfile) -> Iterator[np.ndarray]:
    """The scaled raw moments, at the waist r of ``profile``, of the
    snapshots at ``traversals`` (increasing) of a run whose kick
    coefficients are ``coefficients`` (`cavity.kick_coefficients`: snapshot
    k reads the first k of list ``k % 2``), one vector per traversal in
    their order: [0.0, m_1, ..., m_N] with m_n = E[(X/r)^n] for
    X = sum_j s_j a_j over independent signs s_j = +-1, and N from `_order`
    of sum_j |a_j|/r, the largest |X|/r.  Index 0, the weight beyond one
    unit beam, is 0.0: the 2^k sign sequences weigh 2^-k each.  Every odd
    moment is 0.0: X and -X are equally likely.

    The call itself raises GuardError, from the prefix sums of |a| alone,
    before any moment is summed: it checks each list's last (and widest)
    snapshot, and only where one is past the series scans the snapshots in
    traversal order, so the first past it is named.  The vectors are summed
    as the returned iterator is read, so a caller may check a run's series
    first and pay for its moments later, or never.

    Each even moment is a binomial convolution over the coefficients, one
    at a time, with y = a/r:

        M_n <- sum_{i even} C(n, i) y^i M_{n-i},

    each snapshot adding its two coefficients to the moments of the one
    before it.  Every term is >= 0, so nothing cancels.  m_2 = sum y^2 is
    a compensated running sum (Knuth's TwoSum), so its rounding does not
    grow with the number of coefficients.  The moments of each parity are
    kept to the order of its last snapshot, as no moment reads a higher
    one.  Everything is + - * / on Python floats, so no SIMD kernel can
    move a bit."""
    waist_m = profile.waist_m
    spans = [[0.0, *itertools.accumulate(abs(a) for a in c)] for c in coefficients]  # over the first k
    lasts = {k % 2: k for k in traversals}  # each list's last snapshot
    try:
        tops = {p: _order(spans[p][k] / waist_m) for p, k in lasts.items()}
    except GuardError:
        for k in traversals:
            try:
                _order(spans[k % 2][k] / waist_m)
            except GuardError as exc:
                raise GuardError(f"traversal {k}: {exc}") from None

    def parity(p):  # the snapshots that read list p, as asked for
        wanted = set(traversals)
        ys = [a / waist_m for a in coefficients[p]]
        top = tops[p]
        binomials = [[float(math.comb(n, i)) for i in range(2, n + 1, 2)]
                     for n in range(2, top + 1, 2)]
        big = [1.0] + [0.0] * (top // 2)  # M_0, M_2, M_4, ... of the coefficients so far
        m2, m2_error = 0.0, 0.0
        for k in range(2 - p, lasts[p] + 1, 2):
            for y in ys[max(k - 2, 0):k]:
                y2 = y * y
                powers = [y2]
                while len(powers) < top // 2:
                    powers.append(powers[-1] * y2)
                for half in range(top // 2, 1, -1):  # from the top, so M_{n-i} is the old one
                    moment, row = big[half], binomials[half - 1]
                    for i in range(1, half + 1):
                        moment += row[i - 1] * powers[i - 1] * big[half - i]
                    big[half] = moment
                total = m2 + y2
                rounded = total - m2
                m2_error += (m2 - (total - rounded)) + (y2 - rounded)
                m2 = total
                big[1] = m2 + m2_error
            if k in wanted:
                order = _order(spans[p][k] / waist_m)
                m = np.zeros(order + 1)
                m[2::2] = big[1:order // 2 + 1]
                yield m

    series = {p: parity(p) for p in lasts}
    return (next(series[k % 2]) for k in traversals)


def _axial_mass(lo: float, hi: float) -> float:
    """erf(hi/sqrt 2) - erf(lo/sqrt 2), through erfc where both edges lie
    on one side of the axis, so that a window in the tail keeps its digits."""
    s = math.sqrt(0.5)
    if lo >= 0.0:
        return math.erfc(lo * s) - math.erfc(hi * s)
    if hi <= 0.0:
        return math.erfc(-hi * s) - math.erfc(-lo * s)
    return math.erf(hi * s) - math.erf(lo * s)


def _changes(edges: np.ndarray, r: float, n_max: int) -> np.ndarray:
    """The part of `rates_from_moments` that depends only on the windows,
    the waist and the highest order: the changes E_n(l) - E_n(h), row n-1
    for orders 1 to n_max, one column per window.  A narrow window's
    midpoint series runs to more terms at a higher order, so its rows at
    one order are not the first rows of the table at another."""
    u = edges / r
    e = _hermite_functions(u, n_max)
    change = e[:, :-1] - e[:, 1:]
    # from the edges in metres: the sideband pixel is 2 um wide at 3.3 mm,
    # so a width taken from u = edges/r would lose three digits
    half = 0.5 * (edges[1:] - edges[:-1]) / r
    narrow = half <= 0.25
    if narrow.any():
        delta = half[narrow]
        k_max = _midpoint_order(n_max, float(delta.max()))
        mid = _hermite_functions((0.5 * (edges[:-1] + edges[1:]) / r)[narrow], n_max + k_max)
        series = np.zeros((n_max, delta.size))
        for k in range(k_max, 0, -2):  # smallest first; libm pow: numpy power varies by SIMD kernel
            series += mid[k : k + n_max] * (2.0 * np.float_power(delta, k) / math.factorial(k))
        change[:, narrow] = series
    return change


def rates_from_moments(
    moments, profile: GaussianProfile, edges_m
) -> tuple[np.ndarray, np.ndarray]:
    """Photon rate in each window [edges[i], edges[i+1]) of each set of
    beams whose `moments` at the profile's waist are a vector of
    ``moments``, as (axial, deviation): the rate of one unit beam on the
    axis, G(0), one value per window, and each set's deviation from it,
    one row per moment vector, in their order,

        G(0) (sum(w) - 1) + sum_{n>=1} A r [E_n(l) - E_n(h)] m_n / n!,

    with l = lo/r, h = hi/r and E_n(u) = He_{n-1}(u) exp(-u^2/2), He the
    probabilists' Hermite polynomials.  This is the Taylor series of each
    beam's exact Gaussian integral about the axis, summed over the beams
    from order 1 up, one order at a time.

    A narrow window, delta = (h - l)/2 <= 1/4, takes its change from the
    midpoint c = (l + h)/2 instead (E_n' = -E_{n+1}):

        E_n(l) - E_n(h) = 2 sum_{k odd} E_{n+k}(c) delta^k / k!,

    which keeps its digits where the window straddles a maximum of E_n
    (on the default bin [0.7, 0.8] mm, around x = r, E_2(l) - E_2(h) is
    1/5000 of either edge value).  The changes depend on the beams only
    through their order, so the vectors of one order share one table
    (`_changes`): a run's snapshots take a few orders, and each vector reads
    the table of its own order, as it would alone.

    Raises ValueError unless the edges are finite and strictly ascending,
    and unless every rate is finite."""
    edges = np.asarray(edges_m, dtype=float)  # one bin or window or more
    if not (edges.ndim == 1 and edges.size > 1 and np.all(np.isfinite(edges))
            and np.all(np.diff(edges) > 0)):
        raise ValueError(f"edges must be finite and strictly ascending, got {edges_m!r}")
    r, scale = profile.waist_m, profile.amplitude_photons_per_s * profile.waist_m
    u = edges / r
    norm = scale * math.sqrt(0.5 * math.pi)  # one unit beam over the whole line
    # finite: `GaussianProfile` refuses a whole-beam rate past a double
    axial = norm * np.array([_axial_mass(lo, hi) for lo, hi in zip(u[:-1], u[1:])])
    deviation = np.empty((len(moments), axial.size))
    for size in sorted({v.size for v in moments}):
        rows = [i for i, v in enumerate(moments) if v.size == size]
        m = np.array([moments[i] for i in rows])
        # float factorials: past 20! an integer list would make an object array
        coef = m[:, 1:] / np.array([float(math.factorial(n)) for n in range(1, size)])
        series = np.zeros((len(rows), axial.size))
        for n, change in enumerate(_changes(edges, r, size - 1)):
            series += coef[:, n, None] * change
        deviation[rows] = scale * series + axial * m[:, :1]
    if not np.all(np.isfinite(deviation)):
        raise ValueError("deviation must be finite")
    return axial, deviation


# the histogram render of `simulate`, under the name its benchmark span reads
bin_ensemble = rates_from_moments


def integrate_window(moments, profile: GaussianProfile, lo_m: float, hi_m: float) -> float:
    """Exact photon rate over [lo, hi) of a detector snapshot whose moment
    vector at the profile's waist is ``moments``.  The window is signed (lo
    may be negative for a two-sided center pixel)."""
    axial, deviation = rates_from_moments([moments], profile, [lo_m, hi_m])
    return float(axial[0] + deviation[0, 0])


def profile_difference(off, on, profile: GaussianProfile, edges_m) -> np.ndarray:
    """Field-off minus field-on photon rate per bin of two detector
    snapshots, given as their moment vectors at the profile's waist;
    central losses come out positive, sideband gains negative.  Both share
    the axial part, so this is the difference of deviations."""
    deviation = rates_from_moments([off, on], profile, edges_m)[1]
    return deviation[0] - deviation[1]
