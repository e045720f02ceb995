"""Transverse photon-density profiles and detector histograms.

Two families of functions live here.  The numerical side (`bin_ensemble`,
`integrate_window`, `profile_difference`) renders a weighted beam ensemble
onto a detector using exact Gaussian integrals, with the beam profile
A*exp(-x^2 / 2 r^2) so r is the rms width.  The analytic deficit family
(`density_deficit`, `deficit_with_broadening`) carries the second-order
closed forms in the width convention they are usually written in,
A*exp(-x^2 / r^2) with r the 1/e half-width; the two conventions are kept
separate on purpose and each function documents which one it uses.

Only the rendering needs scipy (for erf), so ``bin_ensemble`` and
``_window_integrals`` import it when they run, on the calling thread before
any block goes to the render pool; importing this module, and every verb
that renders nothing, never loads ``scipy.special``.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .checks import NonNegative, Positive, check_args, check_fields

EXPANSION_GUARD = 0.1  # max alpha/r or epsilon/r the closed forms accept

DEFAULT_BIN_WIDTH_M = 1.0e-4
DEFAULT_HISTOGRAM_MAX_M = 3.0e-3
RENDER_BLOCK_BEAMS = 4096  # beams per block in bin_ensemble
# beams per block in _window_integrals: a beam costs 2 erf there against one
# per edge (31 at the defaults) in bin_ensemble, so a block holds 16 times the
# beams for about the same work per hand-off to a render thread
WINDOW_BLOCK_BEAMS = 16 * RENDER_BLOCK_BEAMS

# One render thread per CPU the process may run on, so taskset and cpusets
# are followed.  The pool starts its threads on first use, not at import.
_RENDER_THREADS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _start_render_pool() -> None:
    global _RENDER_POOL
    _RENDER_POOL = ThreadPoolExecutor(_RENDER_THREADS, thread_name_prefix="axicav-render")


_start_render_pool()
if hasattr(os, "register_at_fork"):
    # A forked child has none of the parent's threads, and a pool copied from
    # the parent would queue blocks that no thread ever runs.
    os.register_at_fork(after_in_child=_start_render_pool)

# effective peak rate of the triangle-shaped deficit estimate, photons/s
TRIANGLE_SCALE_PHOTONS_PER_S = (5.0 / 6.0) * 1e18


class GuardError(ValueError):
    """A closed-form expansion was evaluated outside its validity window."""


@dataclass(frozen=True)
class GaussianProfile:
    """Reference beam profile on the axis: peak rate density and transverse
    width."""

    amplitude: Positive  # photons/s at the peak
    waist_m: Positive

    def __post_init__(self):
        check_fields(self, ValueError)


@dataclass(frozen=True)
class SplitProfileParams:
    """Displacement and broadening of the two half-beams."""

    alpha_m: NonNegative  # each half-beam center moves to +-alpha
    epsilon_m: NonNegative = 0.0  # width increase

    def __post_init__(self):
        check_fields(self, ValueError)

    def check_small(self, waist_m: float) -> None:
        if self.alpha_m >= EXPANSION_GUARD * waist_m:
            raise GuardError(
                f"alpha/waist = {self.alpha_m / waist_m:.3g} outside expansion "
                f"window (< {EXPANSION_GUARD})"
            )
        if self.epsilon_m >= EXPANSION_GUARD * waist_m:
            raise GuardError(
                f"epsilon/waist = {self.epsilon_m / waist_m:.3g} outside expansion "
                f"window (< {EXPANSION_GUARD})"
            )


def gaussian_density(x, profile: GaussianProfile):
    """Reference density A*exp(-x^2 / 2 r^2) (rms-width convention)."""
    u = np.asarray(x, dtype=float) / profile.waist_m
    return profile.amplitude * np.exp(-0.5 * u * u)


def split_pair_density(x, profile: GaussianProfile, params: SplitProfileParams):
    """The two displaced, broadened half-beams (exact, same convention as
    gaussian_density).  Each carries half the amplitude, widened to r+eps
    with the peak scaled by r/(r+eps) so the integrated power is conserved
    per branch.  Returns (plus branch, minus branch)."""
    r = profile.waist_m
    w = r + params.epsilon_m
    x = np.asarray(x, dtype=float)
    pref = 0.5 * profile.amplitude * (r / w)
    up = (x - params.alpha_m) / w
    um = (x + params.alpha_m) / w
    return pref * np.exp(-0.5 * up * up), pref * np.exp(-0.5 * um * um)


def density_deficit(x, alpha_m: float, profile: GaussianProfile):
    """Closed-form density change (reference minus split pair) for a pure
    displacement, to second order in alpha/r:

        A e^{-x^2/r^2} [1 - (1 - alpha^2/r^2) cosh(2 alpha x / r^2)]

    1/e-half-width convention.  Positive near the axis (photons lost from
    the center), negative past the crossover at x = r/sqrt(2).  At x = 0 the
    value is exactly A alpha^2 / r^2.
    """
    return deficit_with_broadening(x, alpha_m, 0.0, profile)


def deficit_with_broadening(x, alpha_m: float, epsilon_m: float, profile: GaussianProfile):
    """Closed-form density change with both displacement and broadening,
    second order in alpha/r and first order in epsilon/r (same width
    convention as density_deficit):

        A e^{-x^2/r^2} [1 - ((r-eps)/r) e^{+x^2 eps/r^3}
                          (1 - alpha^2/r^2) cosh(2 alpha x / r^2)]
    """
    params = SplitProfileParams(alpha_m, epsilon_m)
    r = profile.waist_m
    params.check_small(r)
    x = np.asarray(x, dtype=float)
    x2 = x * x
    a2 = (alpha_m / r) ** 2
    envelope = np.exp(-x2 / (r * r))
    inner = (
        ((r - epsilon_m) / r)
        * np.exp(x2 * epsilon_m / r**3)
        * (1.0 - a2)
        * np.cosh(2.0 * alpha_m * x / (r * r))
    )
    return profile.amplitude * envelope * (1.0 - inner)


@check_args
def single_pass_estimate(
    theta_split_rad: NonNegative,
    cavity_length_m: Positive,
    waist_m: Positive,
    amplitude_scale: float = TRIANGLE_SCALE_PHOTONS_PER_S,
) -> float:
    """Triangle-area estimate of the photon rate moved out of the beam core
    by a single cavity pass: amplitude_scale * (theta_split * d / r)^2.

    The displacement after one pass is alpha = theta_split * d, the relative
    center deficit is (alpha/r)^2, and the affected region is modeled as a
    triangle of that fractional height against an effective peak rate.
    """
    return amplitude_scale * (theta_split_rad * cavity_length_m / waist_m) ** 2


# ---------------------------------------------------------------------------
# detector binning


@dataclass(frozen=True)
class DetectorHistogram:
    """One-sided (x >= 0) binned photon rates.

    Totals that stand for both detector halves use the doubling rule: the
    profile is symmetric, so a one-sided sum is doubled rather than binning
    negative x explicitly.
    """

    edges_m: np.ndarray  # nbins+1 edges, ascending, starting at 0
    counts: np.ndarray  # photons/s per bin

    def __post_init__(self):
        edges = np.asarray(self.edges_m, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be ascending with at least one bin")
        if counts.shape != (edges.size - 1,):
            raise ValueError("counts length must be len(edges) - 1")
        object.__setattr__(self, "edges_m", edges)
        object.__setattr__(self, "counts", counts)

    def doubled_absolute_total(self) -> float:
        """Sum of |counts| over both detector halves."""
        return 2.0 * float(np.sum(np.abs(self.counts)))

    def signed_sum(self) -> float:
        return float(math.fsum(self.counts.tolist()))

    def to_csv_rows(self):
        for lo, hi, c in zip(self.edges_m[:-1], self.edges_m[1:], self.counts):
            yield float(lo), float(hi), float(c)


@check_args
def histogram_edges(
    bin_width_m: Positive = DEFAULT_BIN_WIDTH_M,
    x_max_m: Positive = DEFAULT_HISTOGRAM_MAX_M,
) -> np.ndarray:
    n = int(round(x_max_m / bin_width_m))
    if abs(n * bin_width_m - x_max_m) > 1e-9 * bin_width_m:
        raise ValueError("x_max must be an integer number of bins")
    return np.arange(n + 1, dtype=float) * bin_width_m


def _erf_frame(positions, profile: GaussianProfile):
    """Beam centers, the erf argument scale r*sqrt(2) and the integral of
    one unit-weight beam over the whole line."""
    r = profile.waist_m
    centers = np.asarray(positions, dtype=float)
    return centers, r * math.sqrt(2.0), profile.amplitude * r * math.sqrt(math.pi / 2.0)


def _render_blocks(terms, n_beams, block_beams, shapes):
    """Run ``terms(block, *buffers)`` for each block of ``block_beams``
    beams and yield ``(block, buffers)`` in beam order once the block's
    terms are written: one float array per entry of ``shapes``, each with a
    row per beam of the block.

    A single block runs on the calling thread: there is nothing to overlap
    it with.  More blocks run on the render pool, writing into a ring of
    buffers allocated here, on the calling thread, with a slot per render
    thread plus one for the block the caller is working on.  At most that
    many blocks are in flight, and a slot is handed to a new block only
    after the caller has moved on from the one before."""
    if n_beams <= block_beams:
        block = slice(0, n_beams)
        buffers = [np.empty((n_beams, *shape)) for shape in shapes]
        terms(block, *buffers)
        yield block, buffers
        return
    n_slots = min(-(-n_beams // block_beams), _RENDER_THREADS + 1)
    ring = [[np.empty((block_beams, *shape)) for shape in shapes] for _ in range(n_slots)]
    pending = deque()

    def oldest():
        block, buffers, done = pending.popleft()
        done.result()
        return block, buffers

    try:
        for i, start in enumerate(range(0, n_beams, block_beams)):
            block = slice(start, min(start + block_beams, n_beams))
            buffers = [buf[: block.stop - start] for buf in ring[i % n_slots]]
            pending.append((block, buffers, _RENDER_POOL.submit(terms, block, *buffers)))
            if len(pending) == n_slots:
                yield oldest()
        while pending:
            yield oldest()
    finally:
        for *_, left in pending:
            left.cancel()


def _window_integrals(positions, weights, lo: float, hi: float, profile: GaussianProfile):
    """Exact integral of each beam's Gaussian over [lo, hi), summed with
    weights.

    The per-beam terms are computed block by block (on the render pool
    when there are several) into one column in beam order, which is then
    summed by a single ``sum()``:
    the same terms, summed the same way, as the one-shot
    ``weights * (norm * (erf(hi') - erf(lo')))`` over all beams."""
    from scipy.special import erf

    centers, s, norm = _erf_frame(positions, profile)
    contrib = np.empty(centers.size)

    def terms(block, low):
        out = contrib[block]
        np.subtract(hi, centers[block], out=out)
        out /= s
        erf(out, out=out)
        np.subtract(lo, centers[block], out=low)
        low /= s
        erf(low, out=low)
        out -= low
        out *= norm
        out *= weights[block]

    for _ in _render_blocks(terms, centers.size, WINDOW_BLOCK_BEAMS, [()]):
        pass
    return contrib.sum()


def bin_ensemble(ensemble, profile: GaussianProfile, edges_m=None) -> DetectorHistogram:
    """Render a beam ensemble into a histogram: every beam contributes its
    weight times the exact integral of a Gaussian of the profile's waist
    centered at the beam position.  Bins this narrow (0.13 sigma at the
    defaults) make midpoint sampling visibly biased, hence erf differences.

    With two or more bins the counts are bit for bit the one-shot sum over
    all beams of ``weights * (norm * (erf(hi') - erf(lo')))`` per bin,
    computed more cheaply: erf is evaluated once per beam and edge (a bin
    shares each edge with its neighbour) and the beams go through in blocks
    of ``RENDER_BLOCK_BEAMS``, so the temporaries stay small.  Each term is
    formed in the same operation order, and the running column sum is added
    into the first row of the next block before that block is summed; the
    rows are therefore still added one after another in beam order, which is
    how numpy sums a C-ordered array of two or more columns along axis 0.
    A single column is contiguous, so numpy sums each block of it pairwise
    instead: one bin is not the row-by-row sum and may differ from it in the
    last bits.

    When there is more than one block, their terms are computed on the
    render pool, one thread per CPU the process may use, while the fold
    above stays on the calling thread and takes the blocks strictly in beam
    order; the counts, one bin included, are the same bits for any number
    of threads.  The workers write into a ring of buffers that the calling
    thread allocates (``_render_blocks``), one slot per block in flight
    (threads + 1), and a slot is reused only after its block has been folded.
    """
    from scipy.special import erf

    if edges_m is None:
        edges_m = histogram_edges()
    edges_m = np.asarray(edges_m, dtype=float)
    centers, s, norm = _erf_frame(ensemble.positions, profile)
    weights = ensemble.weights

    def terms(block, e, contrib):
        np.subtract(edges_m, centers[block, None], out=e)
        e /= s
        erf(e, out=e)
        np.subtract(e[:, 1:], e[:, :-1], out=contrib)
        contrib *= norm
        contrib *= weights[block, None]

    counts = None
    shapes = [(edges_m.size,), (edges_m.size - 1,)]
    for _, (_, contrib) in _render_blocks(terms, centers.size, RENDER_BLOCK_BEAMS, shapes):
        if counts is not None:
            contrib[0] += counts
        counts = contrib.sum(axis=0)
    return DetectorHistogram(edges_m, counts)


def integrate_window(ensemble, profile: GaussianProfile, lo_m: float, hi_m: float) -> float:
    """Exact windowed photon rate of the rendered ensemble over [lo, hi).
    The window is signed (lo may be negative for a two-sided center pixel)."""
    if hi_m <= lo_m:
        raise ValueError("window must have hi > lo")
    return float(_window_integrals(ensemble.positions, ensemble.weights, lo_m, hi_m, profile))


def profile_difference(off: DetectorHistogram, on: DetectorHistogram) -> DetectorHistogram:
    """Field-off minus field-on histogram; central losses come out positive,
    sideband gains negative."""
    if off.edges_m.shape != on.edges_m.shape or not np.array_equal(off.edges_m, on.edges_m):
        raise ValueError("histograms must share identical binning")
    return DetectorHistogram(off.edges_m.copy(), off.counts - on.counts)
