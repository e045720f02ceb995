"""Two-mirror cavity engine.

A beam bounces between mirror 1 (entrance) and mirror 2, crossing a field
region of length `field_length_m` centred between two symmetric gaps.  Each
field passage splits every beam in two (angle +- theta_split at entry, the
same-signed kick again at exit, weight halved) so the ensemble doubles per
traversal; coalescing merges beams that have become indistinguishable.

The ensemble is stored as flat numpy arrays: a traversal is a handful of
vectorised affine operations plus one grid-based merge.  The merge sorts the
beams, so for N beams a traversal costs O(N log N), not O(N).  Each grid
pass sorts one int64 cell key per beam, and that one sort tells which beams
share a cell, groups them and orders them.  An ensemble in which no two
beams share a grid cell costs two such sorts (one per grid) plus the final
ordering by position; a bnl-quad traversal, which merges, costs three.
How long a run can be is set by how many beams survive coalescing.
Cavities whose branches reconverge (bnl-quad) stay at thousands of beams;
the confocal cavity never merges a branch, so its ensemble doubles on every
traversal.  A run is refused with BeamBudgetError before a split would take
the ensemble past MAX_BEAMS, rather than left to run out of memory.

Memory: a run keeps every detector snapshot until it is rendered, 24 B per
snapshot beam (a snapshot shares its weights array with the ensemble it was
taken from).  Each stage allocates only the arrays it returns, so the
traced peak of a whole `axicav simulate` is 48-55 B per snapshot beam,
reached while the last traversal coalesces, with the snapshots, the
reflected ensemble and the cell keys live.  A run at the budget (confocal
n=20: 2^20 final beams, 2^21 - 2 snapshot beams) holds 50 MB of snapshots
and peaks at 101 MB under tracemalloc and 128 MB resident (Linux x86-64,
numpy 2.4.6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checks import Count, NonNegative, NonZero, Positive, check_fields
from .rays import PARAXIAL_LIMIT, ParaxialError

MIRROR_1 = "mirror1"
MIRROR_2 = "mirror2"

MAX_BEAMS = 2**20  # largest ensemble a split leg may produce


class ConfigError(ValueError):
    """Raised for geometrically or physically inconsistent configurations."""


class BeamBudgetError(RuntimeError):
    """A split leg would take the ensemble past MAX_BEAMS."""


@dataclass(frozen=True)
class CavityConfig:
    """Geometry, mirrors and split strength for one cavity run.

    The mirrors are ``field_length_m + 2 * gap_m`` apart.  ``mirror*_focal_m``
    of ``None`` means a planar mirror (identity reflection).  ``lens_focal_m``
    of ``None`` models the external detector lens as an ideal relay, so the
    trip from the exit mirror to the detector is pure propagation over
    ``detector_distance_m``.
    """

    field_length_m: Positive = 10.0
    gap_m: NonNegative = 2.0
    mirror1_focal_m: NonZero | None = 12.5
    mirror2_focal_m: NonZero | None = 12.5
    theta_split_rad: NonNegative = 4e-10
    n_traversals: Count = 15
    extraction_mirror: str = MIRROR_2
    detector_distance_m: NonNegative = 2.0
    lens_offset_m: NonNegative = 0.5
    lens_focal_m: NonZero | None = None
    split_on_backward: bool = True
    coalesce_tol_position_m: Positive = 1e-12
    coalesce_tol_angle_rad: Positive = 1e-16

    def __post_init__(self):
        check_fields(self, ConfigError)
        if self.extraction_mirror not in (MIRROR_1, MIRROR_2):
            raise ConfigError(f"extraction_mirror must be {MIRROR_1!r} or {MIRROR_2!r}")
        if self.lens_focal_m is not None and self.lens_offset_m > self.detector_distance_m:
            raise ConfigError("lens_offset_m exceeds detector_distance_m")


class BeamEnsemble:
    """Weighted beams stored as three parallel arrays, plus a memo of
    quantities derived from them (`density.moments` keeps its moments
    there, per waist).

    A stage passes on the arrays it leaves unchanged instead of copying
    them, so ensembles share arrays (a snapshot, the reflected ensemble and
    ``initial`` may hold one weights array).  The rule that makes this
    safe: no stage writes into an array another ensemble may share."""

    __slots__ = ("positions", "angles", "weights", "moment_memo")

    def __init__(self, positions, angles, weights):
        positions = np.atleast_1d(np.asarray(positions, dtype=float))
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if not (positions.shape == angles.shape == weights.shape):
            raise ValueError("positions, angles and weights must have equal length")
        # min and max only, no temporary arrays; a NaN fails both tests
        lo, hi = (float(weights.min()), float(weights.max())) if weights.size else (0.0, 0.0)
        if not (lo >= 0 and hi < math.inf):
            raise ValueError(f"weights must be finite and >= 0, got {hi if lo >= 0 else lo!r}")
        amax = max(-float(angles.min()), float(angles.max())) if angles.size else 0.0
        if not (amax < PARAXIAL_LIMIT):
            raise ParaxialError(
                f"ensemble angle {amax!r} outside paraxial window (< {PARAXIAL_LIMIT})"
            )
        self.positions = positions
        self.angles = angles
        self.weights = weights
        self.moment_memo = {}

    def __len__(self) -> int:
        return self.positions.size

    @property
    def total_weight(self) -> float:
        # fsum, not np.sum: the conservation checks care about the last digit
        return math.fsum(self.weights.tolist())


def axial_beam() -> BeamEnsemble:
    """The unsplit beam: one unit-weight ray on the axis.  It is where every
    run starts by default, and it is what a field-off run stays at, so it is
    also the reference every difference is taken against."""
    return BeamEnsemble([0.0], [0.0], [1.0])


def coalesce(
    ensemble: BeamEnsemble,
    tol_position_m: float,
    tol_angle_rad: float,
) -> BeamEnsemble:
    """Merge indistinguishable beams.

    Beams are binned on a (position, angle) grid with cell sizes equal to the
    tolerances; each occupied cell collapses to its weight-weighted mean with
    the summed weight.  The pass is repeated on a half-cell-shifted grid and
    iterated to a fixed point (at most 64 iterations).  Each pass merges
    exactly the beams that share one of its cells, so at the fixed point no
    two beams share a cell of either grid.  That bounds no distance: two
    beams closer than half a tolerance in both coordinates stay apart when
    one grid splits their positions and the other their angles, and merges
    chain (a merged beam sits at its members' weighted mean, where it may
    share a cell with a third beam), so beams more than a full tolerance
    apart can end up in one beam.  Output is sorted by (position, angle),
    which makes the result order deterministic.  No two output beams share
    a (position, angle), so a symmetric ensemble (each beam at (x, theta)
    matched by one of the same weight at (-x, -theta)) comes out in the
    layout x == -x[::-1], w == w[::-1]; `density.moments` reads its odd
    moments as exact zeros from that layout.

    Each pass sorts its beams' cell keys once (`_grid_pass`).  A pass that
    merges nothing leaves the beams where they are and keeps only its order:
    its cells are distinct, so they alone fix that order, and a later pass
    that merges sums each shared cell in that order, as if the beams had
    moved.  A merging pass leaves the merged beams in its grid's order, so
    the next pass on that grid first checks in O(N) whether their
    recomputed cells still strictly increase; when they do, no two beams
    share a cell and no sort runs.  A merged mean can cross a cell edge, so
    the check is made, not assumed.  Two passes in a row that merge nothing
    end the iteration: neither changed the beams, and each grid found no
    shared cell in them.  An ensemble that merges nothing costs two sorts
    plus the final ordering.

    Both tolerances must be > 0 (a NaN is refused too): a grid needs a
    cell size.
    """
    if not (tol_position_m > 0 and tol_angle_rad > 0):
        raise ValueError("coalescing tolerances must be > 0")
    pos, ang, w = ensemble.positions, ensemble.angles, ensemble.weights
    kept = None  # the order of the last pass, if it merged nothing
    in_order_of = None  # the grid of the last merge, whose order the beams are in
    quiet = 0  # passes in a row that merged nothing
    for shift in (0.0, 0.5) * 64:
        if shift == in_order_of and _cells_rise(pos, ang, tol_position_m, tol_angle_rad, shift):
            kept, merged = None, False
        else:
            pos, ang, w, kept, merged = _grid_pass(
                pos, ang, w, tol_position_m, tol_angle_rad, shift, kept
            )
        if merged:
            in_order_of, quiet = shift, 0
        else:
            quiet += 1
            if quiet == 2:
                break
    # At the fixed point no two beams tie in (position, angle), so the kept
    # order does not change the final one.
    kept = None
    order = _final_order(pos, ang)
    return BeamEnsemble(pos[order], ang[order], w[order])


def _lexorder(major, minor):
    """Indices that sort by ``major``, then ``minor``, ties kept in input
    order (the permutation numpy's lexsort gives for the keys (minor, major)),
    from one stable sort of a complex key: numpy orders complex numbers by
    real part, then imaginary part."""
    key = np.empty(major.size, dtype=np.complex128)
    key.real = major
    key.imag = minor
    return np.argsort(key, kind="stable")


def _final_order(pos, ang):
    """The permutation ``_lexorder(pos, ang)`` returns.  A plain argsort
    already puts every beam whose position ties with no other in its final
    slot; only the slots of tied beams (equal neighbours in sorted order,
    ±0.0 included) are re-sorted, by position, then angle, then input index.
    With a tie and a NaN in either key, the whole ensemble goes through
    ``_lexorder``: its complex key sorts a NaN angle past every number,
    which moves that beam out of position order even where it ties with no
    other."""
    order = np.argsort(pos)
    sorted_pos = pos[order]
    rises = sorted_pos[1:] > sorted_pos[:-1]
    if rises.all():
        return order
    if np.isnan(sorted_pos[-1]) or np.isnan(ang).any():
        return _lexorder(pos, ang)
    # Without NaN, a neighbour that does not rise is equal.
    tied = np.zeros(pos.size, dtype=bool)
    tied[1:] = ~rises
    tied[:-1] |= ~rises
    sub = np.sort(order[tied])
    order[tied] = sub[_lexorder(pos[sub], ang[sub])]
    return order


def _cells(pos, ang, tol_p, tol_a, shift):
    cells = pos / tol_p, ang / tol_a
    for cell in cells:
        cell += shift
        # Refuse cell indices of 2^62 and beyond: the grid is too fine for
        # the ensemble's scale (far past 2^53, where the half-cell shift is
        # lost).  A NaN fails both tests; `_pack_cells` then declines it.
        if cell.min(initial=0.0) <= -(2.0**62) or cell.max(initial=0.0) >= 2.0**62:
            raise ValueError("coalescing tolerance too small for the ensemble scale")
        np.floor(cell, out=cell)
    # The floored floats are exact integers, so they key the cells directly.
    return cells


def _pack_cells(cell_p, cell_a, low_bits):
    """One int64 per beam that orders like (cell_p, cell_a), and the number
    of zero bits left free at the bottom: ``low_bits`` when they fit beside
    the cells, else none.  None when the cells alone do not fit.

    Each coordinate is offset by its minimum in place, so a packed call
    leaves ``cell_p`` and ``cell_a`` shifted by a constant each.  A span
    below 2^53 keeps that difference exact in floats (a NaN cell fails
    this test), and the two fields plus the free bits must fit the 63 bits
    of a non-negative int64.
    """
    if cell_p.size == 0:
        return np.zeros(0, dtype=np.int64), low_bits
    lo_p, lo_a = cell_p.min(), cell_a.min()
    span_p, span_a = cell_p.max() - lo_p, cell_a.max() - lo_a
    if not (span_p < 2.0**53 and span_a < 2.0**53):
        return None
    bits_a = int(span_a).bit_length()
    cell_bits = int(span_p).bit_length() + bits_a
    if cell_bits > 63:
        return None
    if cell_bits + low_bits > 63:
        low_bits = 0
    cell_p -= lo_p
    cell_a -= lo_a
    key = cell_p.astype(np.int64)
    key <<= bits_a + low_bits
    field_a = cell_a.astype(np.int64)
    field_a <<= low_bits
    key |= field_a
    return key, low_bits


def _cells_rise(pos, ang, tol_p, tol_a, shift):
    """True when the beams' cells at ``shift`` strictly increase in their
    present order, by position cell, then angle cell: no two beams share a
    cell of that grid, and its order is the present one.  A NaN cell rises
    past nothing."""
    cell_p, cell_a = _cells(pos, ang, tol_p, tol_a, shift)
    tied = cell_p[1:] == cell_p[:-1]
    rises = (cell_p[1:] > cell_p[:-1]) | (tied & (cell_a[1:] > cell_a[:-1]))
    return bool(rises.all())


def _grid_pass(pos, ang, w, tol_p, tol_a, shift, kept):
    """Merge the beams that share a cell of the grid at ``shift``, from one
    sort.

    Each beam's packed cell key carries its index in the low bits, so the
    keys are unique and any sort kernel orders them the same way.  In the
    sorted keys a cell is shared where neighbouring ``key >> bits`` are
    equal, the same comparison marks where each cell's run starts, and the
    low bits are the order; no cell array is gathered.

    ``kept`` is the order of an earlier pass that merged nothing and left
    the beams where they were, or None.  A shared cell sums its beams in
    that order, as if that pass had moved them: the summation order of the
    stable sorts of ``_lexorder``.

    Returns ``pos, ang, w, kept, merged``.  A pass that merges nothing
    leaves the beams where they are and returns its order as ``kept``.  A
    merging pass returns the merged beams in the order of the cells they
    came from, and None.  When the index does not fit beside the cells,
    sharing is read from the sorted plain keys, and a pass that merges
    nothing returns its shift instead of an order it did not read.  A pass
    that must merge then, or whose cells do not pack (a NaN, a span of
    2^53 or more, or more than 63 bits), orders them with ``_lexorder`` and
    moves the beams, merged or not.
    """
    n = pos.size
    bits = max(n - 1, 0).bit_length()
    cell_p, cell_a = _cells(pos, ang, tol_p, tol_a, shift)
    packed = _pack_cells(cell_p, cell_a, bits)
    if packed is not None and packed[1] < bits:
        key = packed[0]
        del cell_p, cell_a, packed
        key.sort()
        if (key[1:] != key[:-1]).all():
            return pos, ang, w, shift, False
        del key
        cell_p, cell_a = _cells(pos, ang, tol_p, tol_a, shift)
        packed = None
    if packed is None:
        order = _lexorder(cell_p, cell_a)
        cell_p, cell_a = cell_p[order], cell_a[order]
        starts = np.empty(n, dtype=bool)
        starts[:1] = True
        starts[1:] = (cell_p[1:] != cell_p[:-1]) | (cell_a[1:] != cell_a[:-1])
        del cell_p, cell_a
        if starts.all():
            return pos[order], ang[order], w[order], None, False
    else:
        key = packed[0]
        del cell_p, cell_a, packed
        key |= np.arange(n)
        key.sort()
        cell = key >> bits
        starts = np.empty(n, dtype=bool)
        starts[:1] = True
        np.not_equal(cell[1:], cell[:-1], out=starts[1:])
        del cell
        key &= (1 << bits) - 1
        order = key
        if starts.all():
            return pos, ang, w, order, False
    if kept is not None:
        if isinstance(kept, float):  # the shift of a pass whose order was not read
            kept = _lexorder(*_cells(pos, ang, tol_p, tol_a, kept))
        _order_shared_cells_by(order, starts, kept)
    idx = np.flatnonzero(starts)
    del starts
    w = w[order]
    wsum = np.add.reduceat(w, idx)
    pos = np.add.reduceat(w * pos[order], idx) / wsum
    ang = np.add.reduceat(w * ang[order], idx) / wsum
    return pos, ang, wsum, None, True


def _order_shared_cells_by(order, starts, kept):
    """Reorder, in place, the beams of each shared cell (the runs of
    ``order`` that ``starts`` marks) by their place in ``kept``; the order
    of the cells stays."""
    rank = np.empty(order.size, dtype=np.int64)
    rank[kept] = np.arange(order.size)
    shared = ~starts
    shared[:-1] |= ~starts[1:]
    slots = np.flatnonzero(shared)
    beams = order[slots]
    order[slots] = beams[np.lexsort((rank[beams], np.cumsum(starts)[slots]))]


def _transport_to_far_mirror(
    ensemble: BeamEnsemble, config: CavityConfig, split: bool
) -> BeamEnsemble:
    """Carry every beam gap -> field -> gap, ending at the far mirror just
    before reflection.

    The geometry is symmetric, so both directions use the same sequence.
    With ``split`` each beam enters the field as two half-weight branches
    kicked by +-theta_split and takes the same-signed kick again at the
    exit; otherwise the field region is plain propagation.

    A split leg fills three 2N arrays in place (the ``+`` branch first) with
    the float operations of the plain formulas, in their order.
    """
    ths, gap, length = config.theta_split_rad, config.gap_m, config.field_length_m
    a = ensemble.angles
    if not split:
        pos = ensemble.positions + a * gap
        pos += a * length
        pos += a * gap
        return BeamEnsemble(pos, a, ensemble.weights)
    n = a.size
    pos, ang, w = np.empty(2 * n), np.empty(2 * n), np.empty(2 * n)
    np.multiply(a, gap, out=pos[:n])
    pos[:n] += ensemble.positions
    pos[n:] = pos[:n]
    np.add(a, ths, out=ang[:n])
    np.subtract(a, ths, out=ang[n:])
    pos += np.multiply(ang, length, out=w)  # w is scratch until the weights go in
    ang[:n] += ths
    ang[n:] -= ths
    pos += np.multiply(ang, gap, out=w)
    np.multiply(ensemble.weights, 0.5, out=w[:n])
    w[n:] = w[:n]
    return BeamEnsemble(pos, ang, w)


def _far_mirror_focal(config: CavityConfig, direction: str) -> float | None:
    return config.mirror2_focal_m if direction == "forward" else config.mirror1_focal_m


def _reflect_all(ensemble: BeamEnsemble, focal: float | None) -> BeamEnsemble:
    """Mirror reflection in unfolded coordinates: positions unchanged, the
    accumulated angles kept, plus a curved mirror's focusing kick
    -position/f."""
    if focal is None:
        return ensemble
    ang = ensemble.positions / focal
    np.subtract(ensemble.angles, ang, out=ang)
    return BeamEnsemble(ensemble.positions, ang, ensemble.weights)


@dataclass(frozen=True)
class DetectorSnapshot:
    """Ensemble transported to the detector plane after a given traversal."""

    traversal: int
    ensemble: BeamEnsemble


@dataclass
class RunResult:
    snapshots: list[DetectorSnapshot] = field(default_factory=list)
    final: BeamEnsemble | None = None


def _to_detector(ensemble: BeamEnsemble, config: CavityConfig) -> BeamEnsemble:
    """Transmit through the exit mirror (unit transmission, no focusing) and
    carry the beams to the detector plane.

    With no external lens focal length configured the lens is an ideal relay
    and the whole trip is one propagation over detector_distance_m; otherwise
    the beams propagate lens_offset_m, get the thin-lens kick, and propagate
    the remaining distance.
    """
    pos, ang = ensemble.positions, ensemble.angles
    if config.lens_focal_m is None:
        pos = pos + ang * config.detector_distance_m
    else:
        pos = pos + ang * config.lens_offset_m
        ang = ang - pos / config.lens_focal_m
        pos = pos + ang * (config.detector_distance_m - config.lens_offset_m)
    return BeamEnsemble(pos, ang, ensemble.weights)


def run(config: CavityConfig, initial: BeamEnsemble | None = None) -> RunResult:
    """Run n_traversals of the cavity from ``initial`` (default: the axial
    beam), alternating direction each traversal: transport across the
    cavity (splitting in the field region), reflect off the far mirror,
    coalesce.  Detector snapshots are recorded at every extraction
    opportunity.

    With extraction through mirror 2 a snapshot is taken each traversal at
    whichever mirror the beams just reached (the symmetric-cavity detector
    picture); with extraction through mirror 1 only traversals that end on
    mirror 1 (the even ones) are sampled.  Snapshots are taken before the
    reflection, since the transmitted light never feels the mirror curvature.

    Raises BeamBudgetError before a split leg would produce more than
    MAX_BEAMS beams.
    """
    ens = axial_beam() if initial is None else initial
    result = RunResult()
    for k in range(1, config.n_traversals + 1):
        direction = "forward" if k % 2 == 1 else "backward"
        split = config.theta_split_rad > 0 and (direction == "forward" or config.split_on_backward)
        if split and 2 * len(ens) > MAX_BEAMS:
            raise BeamBudgetError(
                f"traversal {k} would split {len(ens)} beams into {2 * len(ens)}, "
                f"past the budget of {MAX_BEAMS}"
            )
        at_mirror = _transport_to_far_mirror(ens, config, split)
        if config.extraction_mirror == MIRROR_2 or direction == "backward":
            result.snapshots.append(
                DetectorSnapshot(traversal=k, ensemble=_to_detector(at_mirror, config))
            )
        # neither the previous ensemble nor the at-mirror one outlives this
        # traversal, and only the reflected one is held while coalescing
        ens = _reflect_all(at_mirror, _far_mirror_focal(config, direction))
        at_mirror = None
        ens = coalesce(ens, config.coalesce_tol_position_m, config.coalesce_tol_angle_rad)
    result.final = ens
    return result

