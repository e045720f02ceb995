"""Two-mirror cavity engine.

A beam bounces between mirror 1 (entrance) and mirror 2, crossing a field
region of length `field_length_m` centred between two symmetric gaps.  Each
field passage splits every beam in two (angle +- theta_split at entry, the
same-signed kick again at exit, weight halved) so the ensemble doubles per
traversal; coalescing merges beams that have become indistinguishable.
Every run starts from one beam on the axis (`axial_beam`), and the
coalescing grid's cell sizes are the engine's constants
COALESCE_TOL_POSITION_M and COALESCE_TOL_ANGLE_RAD, not scenario keys.

The ensemble is stored as flat numpy arrays.  A traversal carries them
through the affine map past the far mirror, composed once per run from
`rays` transfer matrices (`_legs`), then merges them on a grid.  The merge
sorts the beams, so for N beams a traversal costs O(N log N), not O(N).
Each grid pass sorts one int64 cell key per beam, and that one sort tells
which beams share a cell, groups them and orders them.  A bnl-quad traversal, which merges, costs
three such sorts.  An ensemble in which no two beams share a grid cell
comes back as it went in, after two such sorts, one per grid, or, where
its angles are sparse in cells (the confocal one), after one sort of its
angle cells (`_apart`).
How long a run can be is set by how many beams survive coalescing.
Cavities whose branches reconverge (bnl-quad) stay at thousands of beams;
the confocal cavity never merges a branch, so its ensemble doubles on every
traversal.  A run is refused with BeamBudgetError before a split would take
the ensemble past MAX_BEAMS, rather than left to run out of memory.

The engine does not know the laser.  From the axial start transport is
linear, so the detector position of snapshot k is sum_j s_j a_j over k
independent signs s_j = +-1, one per field passage (`kick_coefficients`),
and `density.snapshot_moments` turns those k numbers into the moment
vector the photon density reads; its guard needs no beam either.  The
ensemble is carried and coalesced for what only the beams give: the
snapshot's beam count, the paraxial guard on its angles (`_detect`), the
beam budget and the final ensemble.  Which traversals are snapshots is
`CavityConfig.snapshot_traversals`.

Memory: a run keeps no snapshot beams and forms no detector position row.
`_detect` reads the beam count and the angle extremes of the ensemble a
snapshot's traversal starts from, and the snapshot keeps those two
numbers.  So a run holds the ensemble of the traversal at hand and what
each stage returns, and its peak is set by its largest traversal, not by
the sum over its snapshots: a fixed number of bytes per beam of the
largest snapshot.  The README's Performance section gives the measured
peaks, and tests/test_memory.py bounds the bytes per beam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rays
from .checks import Count, NonNegative, NonZero, Positive, check_fields
from .rays import PARAXIAL_LIMIT, ParaxialError

MIRROR_1 = "mirror1"
MIRROR_2 = "mirror2"

MAX_BEAMS = 2**20  # largest ensemble a split leg may produce
# the coalescing grid's cell sizes; `run` reads them at each call
COALESCE_TOL_POSITION_M = 1e-12
COALESCE_TOL_ANGLE_RAD = 1e-16


class ConfigError(ValueError):
    """Raised for geometrically or physically inconsistent configurations."""


class BeamBudgetError(RuntimeError):
    """A split leg would take the ensemble past MAX_BEAMS."""


@dataclass(frozen=True)
class CavityConfig:
    """Geometry, mirrors and split strength for one cavity run.

    The mirrors are ``field_length_m + 2 * gap_m`` apart.  ``mirror*_focal_m``
    of ``None`` means a planar mirror (identity reflection).  Every field
    passage, forward and backward, splits the beams when
    ``theta_split_rad > 0``.  The detector sits behind an ideal relay, so
    the trip from the exit mirror to the detector is pure propagation over
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

    def __post_init__(self):
        check_fields(self, ConfigError)
        # each is finite, but the spacing the transfer maps hold may not be
        if not math.isfinite(self.field_length_m + 2 * self.gap_m):
            raise ConfigError(
                "field_length_m + 2 * gap_m (the mirror spacing) must be finite, "
                f"got {self.field_length_m!r} + 2 * {self.gap_m!r}"
            )
        if self.extraction_mirror not in (MIRROR_1, MIRROR_2):
            raise ConfigError(f"extraction_mirror must be {MIRROR_1!r} or {MIRROR_2!r}")
        if not self.snapshot_traversals:  # a run needs a snapshot
            raise ConfigError(
                f"n_traversals must be >= 2 with extraction_mirror = {MIRROR_1!r} "
                f"(it takes a snapshot on even traversals only), got {self.n_traversals!r}"
            )

    @property
    def snapshot_traversals(self) -> range:
        """The traversals at which the detector takes a snapshot, in order.
        With extraction through mirror 2 it is every traversal, at whichever
        mirror the beams just reached (the symmetric-cavity detector
        picture); with extraction through mirror 1 only the traversals that
        end on mirror 1, the even ones.  Snapshots are taken before the
        reflection, since the transmitted light never feels the mirror
        curvature."""
        if self.extraction_mirror == MIRROR_2:
            return range(1, self.n_traversals + 1)
        return range(2, self.n_traversals + 1, 2)


@dataclass(frozen=True, slots=True)
class BeamSample:
    """What a detector keeps of the beams it records: how many there are and
    the largest |angle| among them, checked against PARAXIAL_LIMIT when the
    sample was made.  A detector snapshot is one."""

    beams: int
    max_angle: float

    def __len__(self) -> int:
        return self.beams


def _max_angle(angles) -> float:
    """The largest |angle| of beams whose angles have the extremes of
    ``angles`` (all of them, or only the extremes); raises ParaxialError
    unless it lies inside the paraxial window (a NaN does not)."""
    amax = max(-float(angles.min()), float(angles.max())) if angles.size else 0.0
    if not (amax < PARAXIAL_LIMIT):
        raise ParaxialError(
            f"ensemble angle {amax!r} outside paraxial window (< {PARAXIAL_LIMIT})"
        )
    return abs(amax)  # +0.0, not -0.0, for beams that all lie on the axis


class BeamEnsemble:
    """Weighted beams stored as three parallel arrays: positions, angles
    and weights.

    A stage passes on the arrays it leaves unchanged instead of copying
    them, so ensembles share arrays (an unsplit leg's ensemble holds the
    weights array of the one it came from).  The rule that makes this safe:
    no stage writes into an array another ensemble may share."""

    __slots__ = ("positions", "angles", "weights")

    def __init__(self, positions, angles, weights):
        positions = np.atleast_1d(np.asarray(positions, dtype=float))
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if not (positions.shape == angles.shape == weights.shape):
            raise ValueError("positions, angles and weights must have equal length")
        # min and max only, no temporary arrays; a NaN fails every test
        lo, hi = (float(weights.min()), float(weights.max())) if weights.size else (0.0, 0.0)
        if not (lo >= 0 and hi < math.inf):
            raise ValueError(f"weights must be finite and >= 0, got {hi if lo >= 0 else lo!r}")
        lo, hi = (float(positions.min()), float(positions.max())) if positions.size else (0.0, 0.0)
        if not (-math.inf < lo and hi < math.inf):
            raise ValueError(f"positions must be finite, got {hi if lo > -math.inf else lo!r}")
        self._hold(positions, angles, weights)

    @classmethod
    def _derived(cls, positions, angles, weights):
        """An ensemble `run` or `coalesce` builds from a checked one: equal
        float arrays whose weights are halves or sums of checked weights.
        Transport can still tilt a beam out of the paraxial window, so only
        that check is made.  A transport leg can also overflow a position:
        the next `coalesce` refuses that, naming the positions."""
        ens = cls.__new__(cls)
        ens._hold(positions, angles, weights)
        return ens

    def _hold(self, positions, angles, weights):
        _max_angle(angles)
        self.positions, self.angles, self.weights = positions, angles, weights

    def __len__(self) -> int:
        return self.positions.size


def axial_beam() -> BeamEnsemble:
    """The unsplit beam: one unit-weight ray on the axis.  It is where every
    run starts, and it is what a field-off run stays at, so it is also the
    reference every difference is taken against."""
    return BeamEnsemble([0.0], [0.0], [1.0])


def coalesce(
    ensemble: BeamEnsemble,
    tol_position_m: float,
    tol_angle_rad: float,
) -> BeamEnsemble:
    """Merge indistinguishable beams.

    Beams are binned on a (position, angle) grid with cell sizes equal to the
    tolerances; each occupied cell collapses to its weight-weighted mean with
    the summed weight (a cell whose beams all weigh 0 to its first beam's
    position and angle).  The pass is repeated on a half-cell-shifted grid and
    iterated to a fixed point (at most 64 iterations).  Each pass merges
    exactly the beams that share one of its cells, so at the fixed point no
    two beams share a cell of either grid.  That bounds no distance: two
    beams closer than half a tolerance in both coordinates stay apart when
    one grid splits their positions and the other their angles, and merges
    chain (a merged beam sits at its members' weighted mean, where it may
    share a cell with a third beam), so beams more than a full tolerance
    apart can end up in one beam.

    The output is not sorted.  A call in which no pass merges returns
    ``ensemble`` itself.  A call that merges returns the beams in the cell
    order of its last merging pass: by position cell, then angle cell, on
    that pass's grid, each cell's beams summed in the order they held.
    Both orders are deterministic: every pass orders unique keys, or the
    cells by a stable sort.

    Each pass sorts its beams' cell keys once (`_grid_pass`).  A pass that
    merges nothing leaves the beams where they are.  A pass that merges
    adds each cell's weights, w*x and w*a left to right from 0.0, in the
    order the beams hold, so a cell of one beam at -0.0 comes out at +0.0;
    the sums cost O(N) on top of the O(N log N) sort.  A merging pass
    leaves the merged beams in its grid's order, so the next pass on that
    grid first checks in O(N) whether their recomputed cells still strictly
    increase; when they do, no two beams share a cell and no sort runs.  A
    merged mean can cross a cell edge, so the check is made, not assumed.
    Two passes in a row that merge nothing end the iteration: neither
    changed the beams, and each grid found no shared cell in them.  An
    ensemble that merges nothing costs two sorts, or one where its angles
    are sparse in cells: before any pass, `_apart` tries to prove from one
    sort of the angle cells that no two beams share a cell of either grid,
    and when it does the ensemble is returned as the passes would return it.

    Both tolerances must be > 0 (a NaN is refused too): a grid needs a
    cell size.
    """
    if not (tol_position_m > 0 and tol_angle_rad > 0):
        raise ValueError("coalescing tolerances must be > 0")
    pos, ang, w = ensemble.positions, ensemble.angles, ensemble.weights
    if _apart(pos, ang, tol_position_m, tol_angle_rad):
        return ensemble
    in_order_of = None  # the grid of the last merge, whose order the beams are in
    quiet = 0  # passes in a row that merged nothing
    for shift in (0.0, 0.5) * 64:
        if shift == in_order_of and _cells_rise(pos, ang, tol_position_m, tol_angle_rad, shift):
            merged = False
        else:
            pos, ang, w, merged = _grid_pass(pos, ang, w, tol_position_m, tol_angle_rad, shift)
        if merged:
            in_order_of, quiet = shift, 0
        else:
            quiet += 1
            if quiet == 2:
                break
    return ensemble if in_order_of is None else BeamEnsemble._derived(pos, ang, w)


def _lexorder(major, minor):
    """Indices that sort by ``major``, then ``minor``, ties kept in input
    order (the permutation numpy's lexsort gives for the keys (minor, major)),
    from one stable sort of a complex key: numpy orders complex numbers by
    real part, then imaginary part."""
    key = np.empty(major.size, dtype=np.complex128)
    key.real = major
    key.imag = minor
    return np.argsort(key, kind="stable")


def _cells(pos, ang, tol_p, tol_a, shift):
    cells = pos / tol_p, ang / tol_a
    for cell in cells:
        cell += shift
        # Refuse cell indices of 2^62 and beyond: the ensemble is too wide
        # for the grid (far past 2^53, where the half-cell shift is lost).
        # A NaN fails both tests; `_pack_cells` then declines it.
        if cell.min(initial=0.0) <= -(2.0**62) or cell.max(initial=0.0) >= 2.0**62:
            # unless a transport leg overflowed a position (angles are
            # paraxial): name that instead
            beyond = pos[np.isinf(pos)]
            if beyond.size:
                raise ValueError(f"positions must be finite, got {float(beyond[0])!r}")
            raise ValueError("ensemble too wide for the coalescing grid "
                             "(a cell index reaches 2^62)")
        np.floor(cell, out=cell)
    # The floored floats are exact integers, so they key the cells directly.
    return cells


def _pack_cells(cell_p, cell_a, low_bits):
    """One int64 per beam that orders like (cell_p, cell_a), with
    ``low_bits`` zero bits free at the bottom; None when the cells and the
    free bits do not fit.

    Each coordinate is offset by its minimum in place, so a packed call
    leaves ``cell_p`` and ``cell_a`` shifted by a constant each.  A span
    below 2^53 keeps that difference exact in floats (a NaN cell fails
    this test), and the two fields plus the free bits must fit the 63 bits
    of a non-negative int64.
    """
    if cell_p.size == 0:
        return np.zeros(0, dtype=np.int64)
    lo_p, lo_a = cell_p.min(), cell_a.min()
    span_p, span_a = cell_p.max() - lo_p, cell_a.max() - lo_a
    if not (span_p < 2.0**53 and span_a < 2.0**53):
        return None
    bits_a = int(span_a).bit_length()
    if int(span_p).bit_length() + bits_a + low_bits > 63:
        return None
    cell_p -= lo_p
    cell_a -= lo_a
    key = cell_p.astype(np.int64)
    key <<= bits_a + low_bits
    field_a = cell_a.astype(np.int64)
    field_a <<= low_bits
    key |= field_a
    return key


def _apart(pos, ang, tol_p, tol_a):
    """True when no two beams share a cell of either grid, proven from one
    sort; False when the proof fails or is not tried.

    With u = a/tol_a, both floor(u) and floor(u + 0.5) rise with u (and so
    do their rounded forms in `_cells`), so two beams whose shift-0 angle
    cells differ by 2 or more share no cell of either grid.  One int64 key
    per beam, its shift-0 angle cell offset by the minimum with its index
    in the low bits, sorts the beams by angle cell.  The pairs within one
    angle cell of each other then lie in runs of neighbouring keys, found
    offset by offset, and only their cells are recomputed, on both grids,
    by `_cells`.

    N beams over a span of S angle cells hold about N^2/(2S) pairs that
    share an angle cell, so the proof is tried only where that is at most
    N/64, and it gives up past N/64 pairs within one angle cell of each
    other.  It gives up too on a NaN or an inf, and wherever `_cells` would
    refuse a cell, which leaves merging and refusing to the grid passes.
    Beside the sorted keys it holds at most one more array of N at a time.
    """
    n = pos.size
    if n < 2:
        return False
    # `_cells`' guard, on the extremes of its scaled coordinates (the
    # half-cell shift is lost long before 2^62); a NaN fails every test
    lo, hi = ang.min() / tol_a, ang.max() / tol_a
    if not (-(2.0**62) < lo and hi < 2.0**62):
        return False
    lo_cell = math.floor(lo)
    span = math.floor(hi) - lo_cell
    bits = (n - 1).bit_length()
    if not (32 * n <= span < 2**53 and span.bit_length() + bits <= 63):
        return False
    if not (-(2.0**62) < pos.min() / tol_p and pos.max() / tol_p < 2.0**62):
        return False
    cell = ang / tol_a
    np.floor(cell, out=cell)
    cell -= lo_cell
    key = cell.astype(np.uint64)
    del cell
    key <<= bits
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    # A key below bound[i] = (its cell + 2) << bits lies at most one angle
    # cell above key i, since the index bits stay below 1 << bits.  The
    # keys are unsigned: (span + 2) << bits may pass 2^63 - 1, not 2^64.
    bound = key[:-1] >> bits
    bound += 2
    bound <<= bits
    # the sorted places i whose key k places on is at most one angle cell
    # higher; the cells rise, so each is also among those of k - 1
    near = np.flatnonzero(key[1:] < bound)
    pairs, links, k = [], 0, 1
    while near.size:
        links += near.size
        if 64 * links > n:
            return False
        pairs.append((near, near + k))
        k += 1
        near = near[near < n - k]
        near = near[key[near + k] < bound[near]]
    if pairs:
        index = (1 << bits) - 1
        first, second = (key[np.concatenate(side)] & index for side in zip(*pairs))
        for shift in (0.0, 0.5):
            (p1, a1), (p2, a2) = (_cells(pos[b], ang[b], tol_p, tol_a, shift)
                                  for b in (first, second))
            if ((p1 == p2) & (a1 == a2)).any():
                return False
    return True


def _cells_rise(pos, ang, tol_p, tol_a, shift):
    """True when the beams' cells at ``shift`` strictly increase in their
    present order, by position cell, then angle cell: no two beams share a
    cell of that grid, and its order is the present one.  A NaN cell rises
    past nothing."""
    cell_p, cell_a = _cells(pos, ang, tol_p, tol_a, shift)
    tied = cell_p[1:] == cell_p[:-1]
    rises = (cell_p[1:] > cell_p[:-1]) | (tied & (cell_a[1:] > cell_a[:-1]))
    return bool(rises.all())


def _grid_pass(pos, ang, w, tol_p, tol_a, shift):
    """Merge the beams that share a cell of the grid at ``shift``, from one
    sort; return ``pos, ang, w, merged``.

    Each beam's packed cell key carries its index in the low bits, so the
    keys are unique and any sort kernel orders them by cell, and within a
    cell in the order the beams hold.  In the sorted keys a cell is shared
    where neighbouring ``key >> bits`` are equal, which also marks where
    each cell's run starts, and the low bits are the order.  A pass whose
    cells and index do not pack (a NaN, a span of 2^53 or more, or more
    than 63 bits) orders the beams with the stable `_lexorder`, which gives
    the same order.  A pass that merges nothing leaves the beams where
    they are.

    A merge numbers the cells in sorted order and scatters each beam's cell
    number back to the beam, then takes each sum with one `np.bincount`
    over the beams as they are: it adds every cell's terms left to right
    from 0.0 in the beams' order.  No sorted copy of the beams is gathered,
    and no sum pays a fixed cost per cell, so a merging pass costs its sort
    plus a handful of O(N) sweeps.
    """
    n = pos.size
    bits = max(n - 1, 0).bit_length()
    cell_p, cell_a = _cells(pos, ang, tol_p, tol_a, shift)
    key = _pack_cells(cell_p, cell_a, bits)
    if key is None:
        order = _lexorder(cell_p, cell_a)
        cell_p, cell_a = cell_p[order], cell_a[order]
        starts = np.empty(n, dtype=bool)
        starts[:1] = True
        starts[1:] = (cell_p[1:] != cell_p[:-1]) | (cell_a[1:] != cell_a[:-1])
        del cell_p, cell_a
    else:
        del cell_p, cell_a
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
        return pos, ang, w, False
    # each beam's cell number, in sorted order (a bool cumsum given an intp
    # `out` runs in under half the time it takes to pick its own dtype)
    cell = np.cumsum(starts, out=np.empty(n, dtype=np.intp))
    cell -= 1
    ids = np.empty(n, dtype=np.intp)
    ids[order] = cell
    del cell
    wsum = np.bincount(ids, weights=w)
    # A cell whose beams all weigh 0 has no weighted mean: it keeps its
    # first beam's position and angle.
    empty = np.flatnonzero(wsum == 0.0)
    first = order[np.flatnonzero(starts)[empty]] if empty.size else empty
    del order, starts
    divisor = np.where(wsum == 0.0, 1.0, wsum) if empty.size else wsum
    new_pos = np.bincount(ids, weights=w * pos)
    new_pos /= divisor
    new_ang = np.bincount(ids, weights=w * ang)
    new_ang /= divisor
    new_pos[empty] = pos[first]
    new_ang[empty] = ang[first]
    return new_pos, new_ang, wsum, True


@dataclass(frozen=True)
class DetectorSnapshot:
    """The beams at the detector plane after a given traversal, as the
    sample the detector keeps of them."""

    traversal: int
    ensemble: BeamSample


@dataclass
class RunResult:
    snapshots: list[DetectorSnapshot] = field(default_factory=list)
    final: BeamEnsemble | None = None


def _legs(config: CavityConfig):
    """Per direction, forward first, the two affine maps of a traversal: to
    the detector, and past the far mirror to the start of the next
    traversal, each a transfer matrix M and, when theta > 0, a kick k (else
    None).  In unfolded coordinates a traversal is gap, field, gap.  A split
    beam takes +-theta at the field entry and the same-signed kick at the
    exit, so at the far mirror the two branches sit at P(L + 2 gap) (x, a)
    +- b with b = theta (L + 2 gap, 2) (Siegman, *Lasers*, ch. 15), and the
    detector trip or the reflection acts on both terms.  The trip passes the
    exit mirror unfocused and propagates ``detector_distance_m``: pure
    propagation, so its matrix has c = 0 and d = 1 exactly and its kick
    is (theta (L + 2 gap + distance), 2 theta), which `_detect` relies on.
    The detector leg is the same in both directions."""
    gap, length, theta = config.gap_m, config.field_length_m, config.theta_split_rad
    step = rays.propagation_matrix
    to_mirror = rays.compose([step(gap), step(length), step(gap)])
    bx, ba = theta * (length + 2 * gap), 2 * theta

    def leg(after):
        kick = (after.a * bx + after.b * ba, after.c * bx + after.d * ba) if theta > 0 else None
        return rays.compose([after, to_mirror]), kick

    to_detector = leg(step(config.detector_distance_m))
    assert to_detector[0].c == 0.0 and to_detector[0].d == 1.0
    return [(to_detector, leg(rays.IDENTITY if focal is None else rays.focusing_matrix(focal)))
            for focal in (config.mirror2_focal_m, config.mirror1_focal_m)]


def _row(x, a, p, q, k):
    """One coordinate p x + q a of every beam, in a new array of N; or, on a
    split leg, of both branches, p x + q a + k then - k, filling one new
    2N array in place."""
    if k is None:
        v = x * p
        v += a * q
        return v
    n = x.size
    v = np.empty(2 * n)
    np.multiply(x, p, out=v[:n])
    v[:n] += np.multiply(a, q, out=v[n:])
    v[n:] = v[:n]
    v[:n] += k
    v[n:] -= k
    return v


def _transport(ensemble: BeamEnsemble, matrix, kick, weights) -> BeamEnsemble:
    """Carry every beam (x, a) through one map: to M (x, a), or on a split
    leg to the two branches M (x, a) +- k, the ``+`` branch first.
    ``weights`` is passed on, not copied."""
    x, a = ensemble.positions, ensemble.angles
    kx, ka = kick or (None, None)
    return BeamEnsemble._derived(_row(x, a, matrix.a, matrix.b, kx),
                                 _row(x, a, matrix.c, matrix.d, ka), weights)


def _detect(ensemble: BeamEnsemble, kick) -> tuple[int, float]:
    """The beam count and the largest |angle| of what `_transport` would
    carry to the detector, without carrying it: the angle is checked as
    `_transport` checks it, from the extremes of the angles the beams start
    from.  The trip is pure propagation (`_legs`), so a beam's detector
    angle is its angle a, or on a split leg fl(a + k) and fl(a - k), which
    rise with a (rounding is monotone): the row's minimum and maximum are
    among fl(min a +- k) and fl(max a +- k), and a NaN kick puts one there
    too.  The positions are not read: a snapshot's moments come from the
    kick coefficients (`kick_coefficients`)."""
    a = ensemble.angles
    ends = np.array([a.min(), a.max()]) if a.size else a
    if kick is None:
        return a.size, _max_angle(ends)
    return 2 * a.size, _max_angle(np.concatenate((ends + kick[1], ends - kick[1])))


def kick_coefficients(config: CavityConfig, n: int) -> tuple[list[float], list[float]]:
    """The kick coefficients of the snapshots of an n-traversal run from
    the axial beam, as two lists indexed by the parity of the traversal:
    snapshot k's detector positions are the 2^k values sum_j s_j a_j over
    the signs s_j = +-1 and its first k coefficients a_0, ..., a_{k-1} of
    list ``k % 2``, each sign sequence at weight 2^-k.  Transport is
    linear (Siegman, *Lasers*, ch. 15): a_j is the detector's position row
    carried back over j traversals and dotted with the kick of the field
    passage j traversals before the detector, so it depends on j and on
    the parity of k only, and snapshot k + 2 holds snapshot k's
    coefficients and two more.

    One backward sweep per parity over `_legs`' float maps, from its last
    snapshot K: a_0 is the detector kick; for j >= 1 the row (a, b) is
    dotted with the to-next kick of traversal K - j, then multiplied by
    that traversal's to-next matrix.  A field-off run has every
    coefficient 0.0."""
    legs = _legs(config)
    (detector, detector_kick), _ = legs[0]  # the detector leg is the same both ways
    out = ([], [])
    for last in range(n, max(n - 2, 0), -1):
        coefficients = out[last % 2]
        a, b = detector.a, detector.b
        coefficients.append(0.0 if detector_kick is None else detector_kick[0])
        for t in range(last - 1, 0, -1):
            matrix, kick = legs[t % 2 == 0][1]
            coefficients.append(0.0 if kick is None else a * kick[0] + b * kick[1])
            a, b = a * matrix.a + b * matrix.c, a * matrix.b + b * matrix.d
    return out


def run(config: CavityConfig) -> RunResult:
    """Run n_traversals of the cavity from the axial beam, alternating
    direction each traversal: carry the beams across the cavity, splitting
    them in the field region, and past the far mirror (`_legs`), then
    coalesce on the grid of COALESCE_TOL_POSITION_M and
    COALESCE_TOL_ANGLE_RAD.  A split leg's weights are halved into one
    array of 2N.  At each of `CavityConfig.snapshot_traversals` the beam
    count and the largest |angle| at the detector are read from the
    ensemble (`_detect`).

    Raises BeamBudgetError before a split leg would produce more than
    MAX_BEAMS beams, ParaxialError when an angle leaves the paraxial
    window, and ValueError when the ensemble grows too wide for the
    coalescing grid.
    """
    legs = _legs(config)
    snapshots = config.snapshot_traversals
    ens = axial_beam()
    result = RunResult()
    for k in range(1, config.n_traversals + 1):
        to_detector, to_next = legs[k % 2 == 0]
        n, w = len(ens), ens.weights
        if to_next[1] is not None:
            if 2 * n > MAX_BEAMS:
                raise BeamBudgetError(f"traversal {k} would split {n} beams into {2 * n}, "
                                      f"past the budget of {MAX_BEAMS}")
            w = np.empty(2 * n)
            np.multiply(ens.weights, 0.5, out=w[:n])
            w[n:] = w[:n]
        if k in snapshots:
            result.snapshots.append(DetectorSnapshot(k, BeamSample(*_detect(ens, to_detector[1]))))
        # the previous ensemble is dropped before coalescing starts
        ens = _transport(ens, *to_next, w)
        ens = coalesce(ens, COALESCE_TOL_POSITION_M, COALESCE_TOL_ANGLE_RAD)
    result.final = ens
    return result
