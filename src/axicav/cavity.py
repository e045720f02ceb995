"""Two-mirror cavity engine.

A beam bounces between mirror 1 (entrance) and mirror 2, crossing a field
region of length `field_length_m` centred between two symmetric gaps.  Each
field passage splits every beam in two (angle +- theta_split at entry, the
same-signed kick again at exit, weight halved) so the ensemble doubles per
traversal; coalescing merges beams that have become indistinguishable.

The ensemble is stored as flat numpy arrays: a traversal is a handful of
vectorised affine operations plus one grid-based merge.  The merge sorts the
beams, so for N beams a traversal costs O(N log N), not O(N).  An ensemble
in which no two beams share a grid cell costs one check (two sorts of int64
cell keys) plus the final ordering by position.  How long a run can be is
set by how many beams survive coalescing.  Cavities whose branches
reconverge (bnl-quad) stay at thousands of beams; the confocal cavity never
merges a branch, so its ensemble doubles on every traversal.  A run is
refused with BeamBudgetError before a split would take the ensemble past
MAX_BEAMS, rather than left to run out of memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .rays import PARAXIAL_LIMIT, ParaxialError, RayState

MIRROR_1 = "mirror1"
MIRROR_2 = "mirror2"

GEOMETRY_TOL = 1e-9  # m, slack for the length = field + 2*gap identity
MAX_BEAMS = 2**20  # largest ensemble a split leg may produce


class ConfigError(ValueError):
    """Raised for geometrically or physically inconsistent configurations."""


class BeamBudgetError(RuntimeError):
    """A split leg would take the ensemble past MAX_BEAMS."""


@dataclass(frozen=True)
class CavityConfig:
    """Geometry, mirrors and split strength for one cavity run.

    ``mirror*_focal_m`` of ``None`` means a planar mirror (identity
    reflection).  ``lens_focal_m`` of ``None`` models the external detector
    lens as an ideal relay, so the trip from the exit mirror to the detector
    is pure propagation over ``detector_distance_m``.
    """

    kind: str = "confocal"
    length_m: float = 14.0
    field_length_m: float = 10.0
    gap_m: float = 2.0
    mirror1_focal_m: float | None = 12.5
    mirror2_focal_m: float | None = 12.5
    theta_split_rad: float = 4e-10
    n_traversals: int = 15
    extraction_mirror: str = MIRROR_2
    detector_distance_m: float = 2.0
    lens_offset_m: float = 0.5
    lens_focal_m: float | None = None
    split_on_backward: bool = True
    coalesce_tol_position_m: float = 1e-12
    coalesce_tol_angle_rad: float = 1e-16

    def __post_init__(self):
        if self.length_m <= 0 or self.field_length_m <= 0 or self.gap_m < 0:
            raise ConfigError("cavity lengths must be positive (gap may be zero)")
        if abs(self.field_length_m + 2 * self.gap_m - self.length_m) > GEOMETRY_TOL:
            raise ConfigError(
                f"field_length_m + 2*gap_m must equal length_m "
                f"({self.field_length_m} + 2*{self.gap_m} != {self.length_m})"
            )
        if self.theta_split_rad < 0:
            raise ConfigError("theta_split_rad must be >= 0")
        if self.n_traversals < 1:
            raise ConfigError("n_traversals must be >= 1")
        if self.extraction_mirror not in (MIRROR_1, MIRROR_2):
            raise ConfigError(f"extraction_mirror must be {MIRROR_1!r} or {MIRROR_2!r}")
        for f in (self.mirror1_focal_m, self.mirror2_focal_m, self.lens_focal_m):
            if f is not None and f == 0:
                raise ConfigError("focal lengths must be nonzero (None = planar)")
        if self.detector_distance_m < 0 or self.lens_offset_m < 0:
            raise ConfigError("detector distances must be >= 0")
        if self.lens_focal_m is not None and self.lens_offset_m > self.detector_distance_m:
            raise ConfigError("lens_offset_m exceeds detector_distance_m")
        if self.coalesce_tol_position_m <= 0 or self.coalesce_tol_angle_rad <= 0:
            raise ConfigError("coalescing tolerances must be > 0")


def build_preset(kind: str, **overrides) -> CavityConfig:
    """Named mirror arrangements sharing the 14 m / 10 m / 2 m geometry.

    confocal        both mirrors focal 12.5 m, detector behind mirror 2
    planar-concave  mirror 2 planar, extraction through mirror 1
    convex-concave  mirror 2 defocusing (focal -5.5 m), extraction through
                    mirror 1
    """
    presets = {
        "confocal": dict(
            kind="confocal",
            mirror1_focal_m=12.5,
            mirror2_focal_m=12.5,
            extraction_mirror=MIRROR_2,
        ),
        "planar-concave": dict(
            kind="planar-concave",
            mirror1_focal_m=12.5,
            mirror2_focal_m=None,
            extraction_mirror=MIRROR_1,
        ),
        "convex-concave": dict(
            kind="convex-concave",
            mirror1_focal_m=12.5,
            mirror2_focal_m=-5.5,
            extraction_mirror=MIRROR_1,
        ),
    }
    if kind not in presets:
        raise ConfigError(f"unknown preset {kind!r}; choose from {sorted(presets)}")
    params = presets[kind] | overrides
    return CavityConfig(**params)


class BeamEnsemble:
    """Weighted beams stored as three parallel arrays."""

    __slots__ = ("positions", "angles", "weights")

    def __init__(self, positions, angles, weights):
        positions = np.atleast_1d(np.asarray(positions, dtype=float))
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if not (positions.shape == angles.shape == weights.shape):
            raise ValueError("positions, angles and weights must have equal length")
        if np.any(weights < 0):
            raise ValueError("weights must be >= 0")
        amax = float(np.max(np.abs(angles))) if angles.size else 0.0
        if not (amax < PARAXIAL_LIMIT):
            raise ParaxialError(
                f"ensemble angle {amax!r} outside paraxial window (< {PARAXIAL_LIMIT})"
            )
        self.positions = positions
        self.angles = angles
        self.weights = weights

    @classmethod
    def single(cls, ray: RayState, weight: float = 1.0) -> "BeamEnsemble":
        return cls([ray.position], [ray.angle], [weight])

    def __len__(self) -> int:
        return self.positions.size

    @property
    def total_weight(self) -> float:
        # fsum, not np.sum: the conservation checks care about the last digit
        return math.fsum(self.weights.tolist())

    def sorted_copy(self) -> "BeamEnsemble":
        order = _lexorder(self.positions, self.angles)
        return BeamEnsemble(self.positions[order], self.angles[order], self.weights[order])


def axial_beam() -> BeamEnsemble:
    """The unsplit beam: one unit-weight ray on the axis.  It is where every
    run starts by default, and it is what a field-off run stays at, so it is
    also the reference every difference is taken against."""
    return BeamEnsemble.single(RayState(0.0, 0.0))


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
    which makes the result order deterministic.

    Each iteration starts by checking whether any two beams share a cell on
    either grid; when none do, it would merge nothing and is skipped, so an
    ensemble that merges nothing costs that check and the final ordering.

    A zero tolerance on either coordinate disables merging entirely and
    returns a sorted copy of the input.
    """
    if tol_position_m < 0 or tol_angle_rad < 0:
        raise ValueError("coalescing tolerances must be >= 0")
    if tol_position_m == 0.0 or tol_angle_rad == 0.0:
        return ensemble.sorted_copy()
    pos, ang, w = ensemble.positions, ensemble.angles, ensemble.weights
    for _ in range(64):
        # An iteration that would merge nothing only permutes the beams.  At
        # a fixed point no two beams tie in (position, angle), so the final
        # order does not depend on that permutation.
        if _no_shared_cell(pos, ang, tol_position_m, tol_angle_rad):
            break
        merged_any = False
        for shift in (0.0, 0.5):
            pos, ang, w, merged = _grid_merge(pos, ang, w, tol_position_m, tol_angle_rad, shift)
            merged_any = merged_any or merged
        if not merged_any:
            break
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
    """The permutation ``_lexorder(pos, ang)`` returns.  When the positions
    are strictly increasing under a plain argsort (a NaN or a tie fails the
    comparison), no two beams tie and that permutation is the only one."""
    order = np.argsort(pos)
    sorted_pos = pos[order]
    if (sorted_pos[1:] > sorted_pos[:-1]).all():
        return order
    return _lexorder(pos, ang)


def _cells(pos, ang, tol_p, tol_a, shift):
    scaled_p = pos / tol_p + shift
    scaled_a = ang / tol_a + shift
    # Refuse cell indices of 2^62 and beyond: the grid is too fine for the
    # ensemble's scale (far past 2^53, where the half-cell shift is lost).
    limit = float(2**62)
    if np.abs(scaled_p).max(initial=0.0) >= limit or np.abs(scaled_a).max(initial=0.0) >= limit:
        raise ValueError("coalescing tolerance too small for the ensemble scale")
    # The floored floats are exact integers, so they key the cells directly.
    return np.floor(scaled_p), np.floor(scaled_a)


def _pack_cells(cell_p, cell_a, low_bits):
    """One int64 per beam that orders like (cell_p, cell_a), with ``low_bits``
    zero bits left free at the bottom, or None when that does not fit.

    Each coordinate is offset by its minimum.  A span below 2^53 keeps that
    difference exact in floats (a NaN cell fails this test), and the two
    fields plus the free bits must fit the 63 bits of a non-negative int64.
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
    key = (cell_p - lo_p).astype(np.int64) << (bits_a + low_bits)
    key |= (cell_a - lo_a).astype(np.int64) << low_bits
    return key


def _no_shared_cell(pos, ang, tol_p, tol_a):
    """True when no two beams share a cell of the grid at shift 0 or at
    shift 0.5, so a fixed-point iteration would merge nothing.  False when
    some do, or when the cells do not pack into int64 keys."""
    for shift in (0.0, 0.5):
        key = _pack_cells(*_cells(pos, ang, tol_p, tol_a, shift), 0)
        if key is None:
            return False
        key.sort()
        if (key[1:] == key[:-1]).any():
            return False
    return True


def _cell_order(cell_p, cell_a):
    """The permutation ``_lexorder(cell_p, cell_a)`` returns.  With the input
    index in the low bits the packed keys are unique, so any sort orders them
    the same way, and the sorted keys' low bits are the permutation."""
    index_bits = max(cell_p.size - 1, 0).bit_length()
    key = _pack_cells(cell_p, cell_a, index_bits)
    if key is None:
        return _lexorder(cell_p, cell_a)
    key |= np.arange(cell_p.size)
    key.sort()
    return key & ((1 << index_bits) - 1)


def _grid_merge(pos, ang, w, tol_p, tol_a, shift):
    cell_p, cell_a = _cells(pos, ang, tol_p, tol_a, shift)
    order = _cell_order(cell_p, cell_a)
    cell_p, cell_a = cell_p[order], cell_a[order]
    pos, ang, w = pos[order], ang[order], w[order]
    starts = np.concatenate([[True], (cell_p[1:] != cell_p[:-1]) | (cell_a[1:] != cell_a[:-1])])
    if starts.all():
        return pos, ang, w, False
    idx = np.flatnonzero(starts)
    wsum = np.add.reduceat(w, idx)
    pos = np.add.reduceat(w * pos, idx) / wsum
    ang = np.add.reduceat(w * ang, idx) / wsum
    return pos, ang, wsum, True


def _transport_to_far_mirror(
    ensemble: BeamEnsemble, config: CavityConfig, split: bool
) -> BeamEnsemble:
    """Carry every beam gap -> field -> gap, ending at the far mirror just
    before reflection.

    The geometry is symmetric, so both directions use the same sequence.
    With ``split`` each beam enters the field as two half-weight branches
    kicked by +-theta_split and takes the same-signed kick again at the
    exit; otherwise the field region is plain propagation.
    """
    ths = config.theta_split_rad
    pos = ensemble.positions + ensemble.angles * config.gap_m
    ang = ensemble.angles
    if split:
        n = pos.size
        pos = np.concatenate([pos, pos])
        ang = np.concatenate([ang + ths, ang - ths])
        w = np.concatenate([ensemble.weights, ensemble.weights]) * 0.5
        pos = pos + ang * config.field_length_m
        branch = np.concatenate([np.full(n, ths), np.full(n, -ths)])
        ang = ang + branch
    else:
        w = ensemble.weights.copy()
        pos = pos + ang * config.field_length_m
    pos = pos + ang * config.gap_m
    return BeamEnsemble(pos, ang, w)


def _far_mirror_focal(config: CavityConfig, direction: str) -> float | None:
    return config.mirror2_focal_m if direction == "forward" else config.mirror1_focal_m


def _reflect_all(ensemble: BeamEnsemble, focal: float | None) -> BeamEnsemble:
    """Mirror reflection in unfolded coordinates: positions unchanged, the
    accumulated angles kept, plus a curved mirror's focusing kick
    -position/f."""
    if focal is None:
        return ensemble
    return BeamEnsemble(
        ensemble.positions, ensemble.angles - ensemble.positions / focal, ensemble.weights
    )


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
    return BeamEnsemble(pos, ang, ensemble.weights.copy())


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
        reflected = _reflect_all(at_mirror, _far_mirror_focal(config, direction))
        ens = coalesce(
            reflected, config.coalesce_tol_position_m, config.coalesce_tol_angle_rad
        )
    result.final = ens
    return result


def null_field_config(config: CavityConfig) -> CavityConfig:
    """Same cavity with the field interaction switched off; the reference
    (unsplit) run every difference measurement is taken against."""
    return replace(config, theta_split_rad=0.0)
