import hashlib
import importlib
import math
import pkgutil
import re
from dataclasses import MISSING, fields, is_dataclass, replace

import numpy as np
import pytest

import axicav
import axicav.cavity as cavity
import axicav.density as density
from axicav.cavity import (
    BeamBudgetError,
    BeamEnsemble,
    MIRROR_1,
    CavityConfig,
    ConfigError,
    _lexorder,
    coalesce,
    run,
)
from axicav.checks import DOMAINS
from axicav.rays import ParaxialError
from axicav.scenario import ScenarioError, load_preset

THETA = 4e-10


# --- configuration ---------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        CavityConfig(n_traversals=0)
    with pytest.raises(ConfigError):
        CavityConfig(theta_split_rad=-1e-10)
    with pytest.raises(ConfigError):
        CavityConfig(extraction_mirror="mirror3")
    with pytest.raises(ConfigError):
        CavityConfig(mirror1_focal_m=0.0)
    with pytest.raises(ConfigError):
        CavityConfig(coalesce_tol_position_m=0.0)
    with pytest.raises(ConfigError, match="n_traversals must be >= 2 with extraction_mirror"):
        CavityConfig(extraction_mirror=MIRROR_1, n_traversals=1)
    assert len(run(CavityConfig(extraction_mirror=MIRROR_1, n_traversals=2)).snapshots) == 1


def _config_classes():
    """Every dataclass of the package that checks itself in ``__post_init__``,
    less the array holders and the paraxial guard, whose checks are not
    per-number domains."""
    for info in pkgutil.iter_modules(axicav.__path__):
        module = importlib.import_module(f"axicav.{info.name}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and is_dataclass(obj)
                and obj.__module__ == module.__name__
                and "__post_init__" in vars(obj)
                and obj.__name__ not in ("RayState", "DetectorHistogram", "GrowthSeries")
            ):
                yield obj


CONFIG_CLASSES = sorted(_config_classes(), key=lambda cls: cls.__name__)


def test_every_config_number_declares_its_domain():
    assert len(CONFIG_CLASSES) == 8
    for cls in CONFIG_CLASSES:
        for f in fields(cls):
            domain = f.type.partition(" | ")[0]
            assert domain in DOMAINS or f.type == "str", f"{cls.__name__}.{f.name}"


# refused values per domain: NaN fails every range comparison, so without a
# finiteness check it would pass validation and run to an all-zero or all-NaN
# result; a count must also be a true int
_REFUSED = {"Count": [2.5, math.nan, True]}
_DOMAIN_CASES = [
    (cls, f.name, value)
    for cls in CONFIG_CLASSES
    for f in fields(cls)
    if f.type.partition(" | ")[0] in DOMAINS
    for value in _REFUSED.get(f.type, [math.nan, math.inf, -math.inf])
]


@pytest.mark.parametrize(
    "cls, name, value",
    _DOMAIN_CASES,
    ids=[f"{cls.__name__}.{name}-{value!r}" for cls, name, value in _DOMAIN_CASES],
)
def test_config_dataclasses_refuse_non_finite_floats(cls, name, value):
    given = {f.name: 1 if f.type == "Count" else 1.0 for f in fields(cls) if f.default is MISSING}
    given[name] = value
    error = {"axicav.cavity": ConfigError, "axicav.scenario": ScenarioError}.get(
        cls.__module__, ValueError
    )
    with pytest.raises(error, match=rf"^{name} must be .*, got {re.escape(repr(value))}$"):
        cls(**given)


# --- ensembles -------------------------------------------------------------


def test_ensemble_shape_validation():
    with pytest.raises(ValueError):
        BeamEnsemble([0.0, 1.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        BeamEnsemble([0.0], [0.0], [-0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
def test_ensemble_refuses_weights_that_are_not_finite_and_nonnegative(bad):
    """A NaN weight fails every comparison, so `weights < 0` let it through
    and a run from it wrote NaN histograms.  The message names the weight."""
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
        BeamEnsemble([0.0, 1e-9], [0.0, 0.0], [bad, 0.5])
    with pytest.raises(ValueError, match="finite and >= 0"):
        run(CavityConfig(n_traversals=2), initial=BeamEnsemble([0.0, 1e-9], [0.0, 0.0], [bad, 0.5]))
    # written into the weights after construction, it is refused by the
    # check `run` makes of its initial ensemble, split leg or not
    for cfg in (CavityConfig(n_traversals=2), CavityConfig(n_traversals=2, theta_split_rad=0.0)):
        initial = BeamEnsemble([0.0, 1e-9], [0.0, 0.0], [0.5, 0.5])
        initial.weights[0] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            run(cfg, initial=initial)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ensemble_refuses_positions_that_are_not_finite(bad):
    """A NaN or infinite position used to pass, and a run from it ended,
    after a RuntimeWarning, in a paraxial error about the angle it made.
    The message names the positions."""
    with pytest.raises(ValueError, match=re.escape(f"positions must be finite, got {bad!r}")):
        BeamEnsemble([0.0, bad], [0.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="positions must be finite"):
        run(CavityConfig(n_traversals=2), initial=BeamEnsemble([bad], [0.0], [1.0]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_run_refuses_a_position_that_overflows_in_transport():
    """Only the initial ensemble is checked in full.  A beam near the
    largest double that a 1e307 m field carries past it is refused by the
    next coalesce, which names the positions, not its tolerance."""
    cfg = CavityConfig(mirror2_focal_m=None, field_length_m=1e307, n_traversals=1,
                       coalesce_tol_position_m=1e290)
    with pytest.raises(ValueError, match=r"^positions must be finite, got inf$"):
        run(cfg, initial=BeamEnsemble([1.79e308], [0.09], [1.0]))
    with pytest.raises(ValueError, match="tolerance too small"):
        run(replace(cfg, coalesce_tol_position_m=1e-300), initial=BeamEnsemble([1e10], [0.0], [1.0]))


def test_ensemble_enforces_paraxial_window():
    with pytest.raises(ParaxialError):
        BeamEnsemble([0.0], [0.2], [1.0])


def test_ensemble_total_weight():
    ens = BeamEnsemble([1e-3, -1e-3], [1e-6, -1e-6], [0.25, 0.75])
    assert len(ens) == 2
    assert ens.total_weight == 1.0


# --- reflection ------------------------------------------------------------
# One field-off traversal is transport over the cavity length followed by the
# far mirror's reflection, so the final ensemble shows the reflection alone.


def test_planar_reflection_keeps_the_accumulated_angle():
    cfg = CavityConfig(mirror2_focal_m=None, theta_split_rad=0.0, n_traversals=1)
    out = run(cfg, initial=BeamEnsemble([5.6e-9], [8e-10], [1.0])).final
    length = cfg.field_length_m + 2 * cfg.gap_m
    assert out.angles[0] == 8e-10
    assert out.positions[0] == pytest.approx(5.6e-9 + 8e-10 * length, rel=1e-15)


def test_curved_reflection_adds_focusing_kick():
    cfg = CavityConfig(theta_split_rad=0.0, n_traversals=1)
    out = run(cfg, initial=BeamEnsemble([1e-3], [0.0], [1.0])).final
    assert out.positions[0] == 1e-3
    assert out.angles[0] == pytest.approx(-8e-5, rel=1e-15)


# --- coalescing ------------------------------------------------------------


def test_coalesce_merges_exact_duplicates():
    ens = BeamEnsemble([1e-3, 1e-3], [1e-5, 1e-5], [0.25, 0.25])
    out = coalesce(ens, 1e-12, 1e-16)
    assert len(out) == 1
    assert out.positions[0] == 1e-3
    assert out.weights[0] == 0.5


def test_coalesce_takes_weighted_means():
    # pair separated by less than half a cell in both coordinates
    ens = BeamEnsemble([0.0, 0.4e-12], [0.0, 0.4e-16], [1.0, 3.0])
    out = coalesce(ens, 1e-12, 1e-16)
    assert len(out) == 1
    assert out.positions[0] == pytest.approx(0.3e-12, rel=1e-12)
    assert out.angles[0] == pytest.approx(0.3e-16, rel=1e-12)
    assert out.weights[0] == 4.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coalesce_gives_a_zero_weight_cell_its_first_beams_place():
    """A cell of zero-weight beams has no weighted mean; it takes its first
    beam's position and angle, without a 0/0, and a cell beside it that
    weighs something still takes its weighted mean."""
    out = coalesce(BeamEnsemble([0.0, 1e-13], [0.0, 0.0], [0.0, 0.0]), 1e-12, 1e-16)
    assert (out.positions.tolist(), out.angles.tolist(), out.weights.tolist()) == (
        [0.0], [0.0], [0.0]
    )
    ens = BeamEnsemble(
        [3.2e-12, 3.3e-12, 7.1e-12, 7.2e-12], [2e-17, 1e-17, 0.0, 0.0], [0.0, 0.0, 1.0, 3.0]
    )
    out = coalesce(ens, 1e-12, 1e-16)
    assert out.weights.tolist() == [0.0, 4.0]
    assert out.positions[0] == 3.2e-12 and out.angles[0] == 2e-17
    assert out.positions[1] == (1.0 * 7.1e-12 + 3.0 * 7.2e-12) / 4.0
    assert out.angles[1] == 0.0


def test_coalesce_keeps_separated_beams_apart():
    ens = BeamEnsemble([0.0, 2.5e-12], [0.0, 0.0], [0.5, 0.5])
    out = coalesce(ens, 1e-12, 1e-16)
    assert len(out) == 2


def test_coalesce_separated_in_angle_only_stays_apart():
    ens = BeamEnsemble([0.0, 0.0], [0.0, 3e-16], [0.5, 0.5])
    out = coalesce(ens, 1e-12, 1e-16)
    assert len(out) == 2


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_coalesce_refuses_tolerances_not_above_zero(bad):
    ens = BeamEnsemble([1e-3, 1e-3], [1e-5, 1e-5], [0.25, 0.25])
    with pytest.raises(ValueError, match="coalescing tolerances must be > 0"):
        coalesce(ens, bad, 1e-16)
    with pytest.raises(ValueError, match="coalescing tolerances must be > 0"):
        coalesce(ens, 1e-12, bad)


def test_coalesce_guards_against_index_overflow():
    ens = BeamEnsemble([1e-3, 2e-3], [0.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        coalesce(ens, 1e-300, 1e-16)
    # the refusal starts exactly at cell index 2^62; power-of-two tolerances
    # keep the scaled coordinates exact
    tol_p, tol_a = 2.0**-40, 2.0**-70
    below = np.nextafter(2.0**62, 0.0)
    ok = coalesce(BeamEnsemble([below * tol_p, -below * tol_p], [0.0, 0.0], [0.5, 0.5]), tol_p, tol_a)
    assert len(ok) == 2
    with pytest.raises(ValueError, match="tolerance too small"):
        coalesce(BeamEnsemble([2.0**62 * tol_p], [0.0], [1.0]), tol_p, tol_a)
    with pytest.raises(ValueError, match="tolerance too small"):
        coalesce(BeamEnsemble([0.0], [-(2.0**62) * tol_a], [1.0]), tol_p, tol_a)


def _lexorder_cases():
    rng = np.random.default_rng(11)
    # heavy ties: a handful of distinct values per key
    yield rng.integers(-3, 4, 5000).astype(float), rng.integers(-2, 3, 5000).astype(float)
    # signed zeros compare equal, so they must tie like in lexsort
    zeros = np.array([0.0, -0.0])
    yield rng.choice(zeros, 1000), rng.choice(np.array([-0.0, 0.0, 1.0, -1.0]), 1000)
    # cell indices near the 2^62 guard, where float spacing is 1024
    big = 2.0**62 - 1024.0 * rng.integers(0, 5, 3000)
    yield big * rng.choice([-1.0, 1.0], 3000), np.floor(rng.normal(scale=2.0**61, size=3000))
    # continuous values with duplicated majors
    major = np.repeat(rng.normal(size=500), 4)
    yield major, rng.normal(size=major.size)
    yield np.array([]), np.array([])
    yield rng.normal(size=3000), rng.normal(size=3000)


@pytest.mark.parametrize("major, minor", list(_lexorder_cases()))
def test_lexorder_matches_lexsort(major, minor):
    assert np.array_equal(_lexorder(major, minor), np.lexsort((minor, major)))


def _merged(pos, ang, w, members):
    """The beam that ``members`` merge into, (position, angle, weight), in
    Python floats: each sum runs left to right from 0.0 in the order of
    ``members``.  Members that all weigh 0 keep the first one's place."""
    wsum = sum_x = sum_a = 0.0
    for i in members:
        wsum += float(w[i])
        sum_x += float(w[i]) * float(pos[i])
        sum_a += float(w[i]) * float(ang[i])
    if wsum == 0.0:
        return float(pos[members[0]]), float(ang[members[0]]), wsum
    return sum_x / wsum, sum_a / wsum, wsum


def _coalesce_reference(ens, tol_p, tol_a):
    """coalesce written out plainly, kept as an oracle: each pass groups the
    beams by int64 cell with lexsort, and a shared cell sums its beams in
    the order they hold (`_merged`).  A pass that merges nothing leaves the
    beams where they are, and a merging pass leaves them in its cells'
    order."""
    pos, ang, w = ens.positions, ens.angles, ens.weights
    for _ in range(64):
        merged_any = False
        for shift in (0.0, 0.5):
            cell_p = np.floor(pos / tol_p + shift).astype(np.int64)
            cell_a = np.floor(ang / tol_a + shift).astype(np.int64)
            cells = {}
            for i in np.lexsort((cell_a, cell_p)).tolist():
                cells.setdefault((cell_p[i], cell_a[i]), []).append(i)
            if len(cells) == pos.size:
                continue
            merged_any = True
            beams = [_merged(pos, ang, w, members) for members in cells.values()]
            pos, ang, w = (np.array(column) for column in zip(*beams))
        if not merged_any:
            break
    return pos, ang, w


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coalesce_matches_lexsort_reference_bitwise(seed):
    rng = np.random.default_rng(seed)
    n = 4000
    # a few tolerances wide, so most cells hold several beams and merges cascade
    pos = rng.normal(scale=3e-12, size=n)
    ang = rng.normal(scale=3e-16, size=n)
    pos[: n // 4] = 0.0
    pos[n // 4 : n // 2] = -0.0
    w = rng.uniform(0.1, 1.0, n)
    ens = BeamEnsemble(pos, ang, w)
    out = coalesce(ens, 1e-12, 1e-16)
    ref_pos, ref_ang, ref_w = _coalesce_reference(ens, 1e-12, 1e-16)
    assert len(out) < n
    assert np.array_equal(out.positions, ref_pos)
    assert np.array_equal(out.angles, ref_ang)
    assert np.array_equal(out.weights, ref_w)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_matches_reference(ens, tol_p, tol_a):
    out = coalesce(ens, tol_p, tol_a)
    ref_pos, ref_ang, ref_w = _coalesce_reference(ens, tol_p, tol_a)
    assert _same_bits(out.positions, ref_pos)
    assert _same_bits(out.angles, ref_ang)
    assert _same_bits(out.weights, ref_w)
    return out


def _cells_of(k):
    """24 cells of ``k`` beams each, 4 cells apart, with a lone beam between
    each two, shuffled together.  A cell's beams lie in the lower half of
    one cell of both grids, so the first pass merges exactly them.  The
    cell at the axis holds only +0.0 and -0.0 positions, a third of all
    angles are signed zeros, a quarter of the weights are 0, and one cell
    weighs 0 as a whole.  The last beam, at position -0.0 in a cell of its
    own, weighs 0.5.  Units of EDGE_TOL_P and EDGE_TOL_A."""
    rng = np.random.default_rng(k)
    home = 4.0 * (np.arange(24) - 12)
    pos = np.concatenate([np.repeat(home, k) + rng.uniform(0.0, 0.5, 24 * k), home + 2.0, [-0.0]])
    ang = np.concatenate([rng.uniform(0.0, 0.5, 24 * k), np.zeros(24), [2.0]])
    w = np.concatenate([rng.uniform(0.1, 1.0, 24 * k), rng.uniform(0.1, 1.0, 25)])
    pos[12 * k : 13 * k] = rng.choice([0.0, -0.0], k)
    zeros = np.flatnonzero(rng.random(ang.size - 1) < 1 / 3)  # not the last beam's 2.0
    ang[zeros] = rng.choice([0.0, -0.0], zeros.size)
    w[rng.random(w.size) < 0.25] = 0.0
    w[5 * k : 6 * k] = 0.0
    w[-1] = 0.5
    order = rng.permutation(pos.size)
    return pos[order] * EDGE_TOL_P, ang[order] * EDGE_TOL_A, w[order]


@pytest.mark.parametrize("keys", ["packed", "lexorder"])
@pytest.mark.parametrize("k", range(1, 21))
def test_coalesce_sums_cells_of_k_beams_in_input_order(k, keys, monkeypatch):
    """Each cell sums its beams left to right from 0.0 in the order they
    hold, on both sort paths, bit for bit, signed zeros included: a lone
    -0.0 term sums to +0.0, and a cell that weighs 0 keeps its first beam's
    place.  From three beams on, the same beams in reverse order give other
    means."""
    if keys == "lexorder":
        monkeypatch.setattr(cavity, "_pack_cells", lambda *a: None)
    calls = _count_lexorder(monkeypatch)
    pos, ang, w = _cells_of(k)
    out = _assert_matches_reference(BeamEnsemble(pos, ang, w), EDGE_TOL_P, EDGE_TOL_A)
    assert len(out) == (pos.size if k == 1 else 24 + 25)
    assert (len(calls) > 0) == (keys == "lexorder")
    assert np.signbit(out.positions[out.angles > EDGE_TOL_A]).tolist() == [k == 1]
    if k >= 3:
        backwards = coalesce(BeamEnsemble(pos[::-1], ang[::-1], w[::-1]), EDGE_TOL_P, EDGE_TOL_A)
        assert not _same_bits(backwards.positions, out.positions)


def test_coalesce_merges_chain_past_a_full_tolerance():
    """Beams 1.3 tolerances apart still merge when a third beam links them:
    the shift-0 pass merges 0.1 and 0.9 into 0.5, which then shares a
    shift-0.5 cell with 1.4."""
    tol_p, tol_a = 1.0 / 1024, 1e-16
    ens = BeamEnsemble(np.array([0.1, 0.9, 1.4]) * tol_p, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    out = _assert_matches_reference(ens, tol_p, tol_a)
    assert len(out) == 1
    assert out.positions[0] == pytest.approx(0.8 * tol_p, rel=1e-15)
    assert out.weights[0] == 3.0


def test_coalesce_can_keep_beams_closer_than_half_a_tolerance_apart():
    """The shift-0 grid splits the positions (0.9 | 1.3) and the shift-0.5
    grid the angles (0.8 | 1.1), so the pair shares no cell."""
    tol_p, tol_a = 1.0 / 1024, 2.0**-60
    ens = BeamEnsemble(np.array([0.9, 1.3]) * tol_p, np.array([0.3, 0.6]) * tol_a, [0.5, 0.5])
    assert len(_assert_matches_reference(ens, tol_p, tol_a)) == 2


def _shares_cell_brute(pos, ang, tol_p, tol_a, shifts=(0.0, 0.5)):
    """Whether any pair of beams shares a cell of a grid at one of ``shifts``,
    pair by pair (an N x N table of cell equalities per grid)."""
    for shift in shifts:
        cell_p = np.floor(pos / tol_p + shift)
        cell_a = np.floor(ang / tol_a + shift)
        same = (cell_p[:, None] == cell_p) & (cell_a[:, None] == cell_a)
        if np.triu(same, 1).any():
            return True
    return False


# power-of-two tolerances keep the scaled coordinates exact, so beams placed
# on half-integer multiples sit exactly on the cell edges of both grids
EDGE_TOL_P, EDGE_TOL_A = 2.0**-40, 2.0**-70


def _edge_ensembles():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        pos = rng.integers(-6, 7, n) / 2.0
        ang = rng.integers(-4, 5, n) / 2.0
        # nudge some beams just below an edge
        pos = np.where(rng.random(n) < 0.3, np.nextafter(pos, -np.inf), pos)
        ang = np.where(rng.random(n) < 0.3, np.nextafter(ang, -np.inf), ang)
        yield pos * EDGE_TOL_P, ang * EDGE_TOL_A
    # +0.0 and -0.0 share every cell
    yield np.array([0.0, -0.0]), np.array([0.0, 0.0])
    yield np.array([0.0, -0.0]), np.array([-0.0, 3.0 * EDGE_TOL_A])
    # tied positions with distinct angles, one and two cells apart
    yield np.array([1.0, 1.0, 1.0]) * EDGE_TOL_P, np.array([0.0, 1.0, 2.0]) * EDGE_TOL_A
    yield np.array([1.0, 1.0]) * EDGE_TOL_P, np.array([0.0, 2.0]) * EDGE_TOL_A
    yield np.array([]), np.array([])


# A beam about 2^52 position cells and 700 angle cells away from the others
# widens the packed cells to 53 + 10 = 63 bits, so no index fits beside them
# and a pass reads sharing from the sorted plain keys.
FAR_CELLS = (2.0**52 + 8, 700.0)


def _with_far_beam(pos, ang):
    return (np.append(pos, FAR_CELLS[0] * EDGE_TOL_P), np.append(ang, FAR_CELLS[1] * EDGE_TOL_A))


def _one_pass(pos, ang, shift):
    """Whether a grid pass at ``shift`` over equal-weight beams merged."""
    w = np.full(pos.size, 1.0 / max(pos.size, 1))
    return cavity._grid_pass(pos, ang, w, EDGE_TOL_P, EDGE_TOL_A, shift)[3]


@pytest.mark.parametrize("far", [False, True], ids=["index-fits", "plain-keys"])
def test_grid_pass_shares_cells_like_brute_force(far, monkeypatch):
    """Each pass merges exactly when two beams share one of its cells (±0.0
    included).  A pass that shares nothing needs no _lexorder, with or
    without room for the index; one that must merge without room for it
    orders with _lexorder."""
    calls = _count_lexorder(monkeypatch)
    for pos, ang in _edge_ensembles():
        if far:
            pos, ang = _with_far_beam(pos, ang)
            if pos.size > 1:
                for shift in (0.0, 0.5):
                    cells = cavity._cells(pos, ang, EDGE_TOL_P, EDGE_TOL_A, shift)
                    assert cavity._pack_cells(*cells, 1)[1] == 0
        for shift in (0.0, 0.5):
            shares = _shares_cell_brute(pos, ang, EDGE_TOL_P, EDGE_TOL_A, [shift])
            calls.clear()
            merged = _one_pass(pos, ang, shift)
            assert merged == shares, (pos, ang, shift)
            assert len(calls) == (far and shares), (pos, ang, shift)


def test_cells_rise_exactly_where_the_sorted_cells_are_distinct():
    """The O(N) check: in the grid's own order the cells strictly increase
    exactly when no two beams share a cell; in any order a rise means no
    shared cell."""
    for pos, ang in _edge_ensembles():
        for shift in (0.0, 0.5):
            shares = _shares_cell_brute(pos, ang, EDGE_TOL_P, EDGE_TOL_A, [shift])
            if cavity._cells_rise(pos, ang, EDGE_TOL_P, EDGE_TOL_A, shift):
                assert not shares, (pos, ang, shift)
            cells = np.floor(ang / EDGE_TOL_A + shift), np.floor(pos / EDGE_TOL_P + shift)
            order = np.lexsort(cells)
            rises = cavity._cells_rise(pos[order], ang[order], EDGE_TOL_P, EDGE_TOL_A, shift)
            assert rises == (not shares), (pos, ang, shift)


def test_grid_pass_declines_to_pack_nan_cells(monkeypatch):
    """A NaN cell shares no cell, but it does not pack into a key either, so
    the pass decides with _lexorder and the O(N) check declines.  An
    ensemble cannot carry the NaN position to a pass: it is refused."""
    pos = np.array([np.nan, 0.0, 5.0 * EDGE_TOL_P])
    ang = np.zeros(3)
    assert not _shares_cell_brute(pos, ang, EDGE_TOL_P, EDGE_TOL_A)
    calls = _count_lexorder(monkeypatch)
    for shift in (0.0, 0.5):
        cells = cavity._cells(pos, ang, EDGE_TOL_P, EDGE_TOL_A, shift)
        assert cavity._pack_cells(*cells, 0) is None
        assert not cavity._cells_rise(pos, ang, EDGE_TOL_P, EDGE_TOL_A, shift)
        assert not _one_pass(pos, ang, shift)
    assert len(calls) == 2
    with pytest.raises(ValueError, match="positions must be finite, got nan"):
        BeamEnsemble(pos, ang, [0.25, 0.25, 0.5])


def test_grid_pass_keeps_the_index_guard_for_a_single_beam():
    for shift in (0.0, 0.5):
        at = np.array([(2.0**62 - shift) * EDGE_TOL_P])
        with pytest.raises(ValueError, match="tolerance too small"):
            _one_pass(at, np.zeros(1), shift)
        with pytest.raises(ValueError, match="tolerance too small"):
            cavity._cells_rise(at, np.zeros(1), EDGE_TOL_P, EDGE_TOL_A, shift)
    below = np.array([np.nextafter(2.0**62, 0.0) * EDGE_TOL_P]) - 0.5 * EDGE_TOL_P
    for shift in (0.0, 0.5):
        assert not _one_pass(below, np.zeros(1), shift)
        assert cavity._cells_rise(below, np.zeros(1), EDGE_TOL_P, EDGE_TOL_A, shift)


def _record_passes(monkeypatch):
    """Log each grid pass, as ("pass", shift, merged), and each O(N) check,
    as ("check", shift, rises), that coalesce makes."""
    log = []
    grid_pass, cells_rise = cavity._grid_pass, cavity._cells_rise

    def logged_pass(*args):
        out = grid_pass(*args)
        log.append(("pass", args[5], out[3]))
        return out

    def logged_check(*args):
        rises = cells_rise(*args)
        log.append(("check", args[4], rises))
        return rises

    monkeypatch.setattr(cavity, "_grid_pass", logged_pass)
    monkeypatch.setattr(cavity, "_cells_rise", logged_check)
    return log


def _weighted_means(pos, ang, w, order):
    """The merged beam of all of ``order``, summed in that order, as three
    one-element arrays."""
    return [np.array([v]) for v in _merged(pos, ang, w, order.tolist())]


# Four beams in one cell of the shift-0.5 grid, in four distinct cells of the
# shift-0 grid (units of EDGE_TOL_P and EDGE_TOL_A), with weights whose
# weighted means round differently when summed in another order.
ONE_HALF_CELL = (
    np.array([0.574, 1.41, 0.842, 1.394]),
    np.array([0.596, 0.901, 1.096, 1.041]),
    np.array([0.86, 0.86, 0.88, 0.48]),
)


@pytest.mark.parametrize("far", [False, True], ids=["index-fits", "plain-keys"])
def test_merge_after_a_pass_that_merged_nothing_sums_in_input_order(far, monkeypatch):
    """The shift-0 pass merges nothing and leaves the beams in input order;
    the shift-0.5 pass then sums its cell in that order, not in the order
    of the shift-0 cells, which rounds differently.  Without room for the
    index only the merging pass orders with _lexorder."""
    pos, ang, w = ONE_HALF_CELL
    pos, ang, w = pos[::-1] * EDGE_TOL_P, ang[::-1] * EDGE_TOL_A, w[::-1]
    cell_order = np.lexsort((np.floor(ang / EDGE_TOL_A), np.floor(pos / EDGE_TOL_P)))
    in_cell_order = _weighted_means(pos, ang, w, cell_order)
    in_input_order = _weighted_means(pos, ang, w, np.arange(4))
    assert all(not _same_bits(a, b) for a, b in zip(in_cell_order, in_input_order))
    if far:
        pos, ang = _with_far_beam(pos, ang)
        w = np.append(w, 1.0)
    log = _record_passes(monkeypatch)
    lexorder_calls = _count_lexorder(monkeypatch)
    out = _assert_matches_reference(BeamEnsemble(pos, ang, w), EDGE_TOL_P, EDGE_TOL_A)
    assert log[:2] == [("pass", 0.0, False), ("pass", 0.5, True)]
    assert len(out) == 1 + far  # the far beam's cell comes last
    assert all(_same_bits(x[:1], y) for x, y in
               zip((out.positions, out.angles, out.weights), in_input_order))
    assert len(lexorder_calls) == far


def test_merged_mean_across_a_cell_edge_fails_the_check(monkeypatch):
    """Three beams just below a shift-0 cell edge merge into a mean that
    rounds onto the edge, into the cell of a fourth beam.  The shift-0.5
    pass merges nothing, so the next shift-0 pass starts with the O(N)
    check on the merged order; it must fail, and the full pass merges the
    two."""
    below = np.nextafter(1.0, 0.0)
    pos = np.array([below, below, below, 1.7]) * EDGE_TOL_P
    w = np.array([0.2, 0.2, 0.3, 0.1])
    assert _weighted_means(pos, np.zeros(4), w, np.arange(3))[0][0] == EDGE_TOL_P
    log = _record_passes(monkeypatch)
    out = _assert_matches_reference(BeamEnsemble(pos, np.zeros(4), w), EDGE_TOL_P, EDGE_TOL_A)
    assert len(out) == 1
    assert log[:4] == [("pass", 0.0, True), ("pass", 0.5, False),
                       ("check", 0.0, False), ("pass", 0.0, True)]


def _non_merging_ensembles():
    rng = np.random.default_rng(3)
    n = 2000
    # distinct beams, many tolerances apart
    yield BeamEnsemble(rng.permutation(n) * 7e-12, rng.normal(scale=1e-14, size=n), np.full(n, 1 / n))
    # tied positions, angles in distinct cells
    pos = np.repeat(rng.permutation(n // 4) * 7e-12, 4)
    ang = np.tile([3e-16, -3e-16, 9e-16, 0.0], n // 4)
    yield BeamEnsemble(pos, ang, rng.uniform(0.1, 1.0, n))
    # +0.0 and -0.0 positions kept apart by their angles
    yield BeamEnsemble([0.0, -0.0, 0.0, -0.0], [0.0, 3e-16, -3e-16, 6e-16], [0.25] * 4)


@pytest.mark.parametrize("ens", list(_non_merging_ensembles()))
def test_coalesce_matches_reference_when_nothing_merges(ens):
    out = _assert_matches_reference(ens, 1e-12, 1e-16)
    assert len(out) == len(ens)


def _count_lexorder(monkeypatch):
    calls = []
    lexorder = cavity._lexorder
    monkeypatch.setattr(cavity, "_lexorder", lambda *a: calls.append(1) or lexorder(*a))
    return calls


# Cells (position, angle) per beam, in units of EDGE_TOL_P and EDGE_TOL_A,
# and whether the keys pack (otherwise the passes fall back to _lexorder).
# The first two beams share a cell, so the grid passes run; three beams
# take 2 bits for the input index.
PACKING_BOUNDARY = [
    # position cell span 2^53 - 1 packs, 2^53 does not
    ([(-(2.0**52), 0.0), (-(2.0**52) + 0.5, 0.0), (2.0**52 - 1, 0.0)], True),
    ([(-(2.0**52), 0.0), (-(2.0**52) + 0.5, 0.0), (2.0**52, 0.0)], False),
    # 53 + 8 + 2 bits fill a non-negative int64, 53 + 9 + 2 do not
    ([(-(2.0**52), 0.0), (-(2.0**52) + 0.5, 0.0), (2.0**52 - 1, 255.0)], True),
    ([(-(2.0**52), 0.0), (-(2.0**52) + 0.5, 0.0), (2.0**52 - 1, 256.0)], False),
]


@pytest.mark.parametrize("cells, packs", PACKING_BOUNDARY)
def test_coalesce_packing_boundaries_match_reference(cells, packs, monkeypatch):
    pos, ang = (np.array(c) for c in zip(*cells))
    ens = BeamEnsemble(pos * EDGE_TOL_P, ang * EDGE_TOL_A, [0.25, 0.25, 0.5])
    calls = _count_lexorder(monkeypatch)
    out = _assert_matches_reference(ens, EDGE_TOL_P, EDGE_TOL_A)
    assert len(out) == 2
    assert (not calls) == packs


def _run_bits(cfg):
    res = run(cfg)
    ensembles = [s.ensemble for s in res.snapshots] + [res.final]
    return [s.traversal for s in res.snapshots], [
        (e.positions.tobytes(), e.angles.tobytes(), e.weights.tobytes()) for e in ensembles
    ]


@pytest.mark.parametrize(
    "cfg, final_beams",
    [
        (CavityConfig(n_traversals=10), 1024),
        (replace(load_preset("bnl-quad").cavity, n_traversals=16), 1593),
        (CavityConfig(n_traversals=10, coalesce_tol_position_m=1e-9,
                      coalesce_tol_angle_rad=1e-10), 882),
        (CavityConfig(n_traversals=10, coalesce_tol_position_m=1e-8,
                      coalesce_tol_angle_rad=1e-9), 60),
    ],
    ids=["confocal", "bnl-quad", "confocal-merging", "confocal-coarse"],
)
def test_run_is_bitwise_equal_without_packed_keys(cfg, final_beams, monkeypatch):
    """With key packing declined every grid pass sorts with _lexorder and
    every fixed-point iteration runs its two passes.  The confocal cavity
    merges nothing at its preset tolerances (2^10 beams after 10
    traversals); the two coarser pairs make it merge."""
    traversals, bits = _run_bits(cfg)
    assert len(bits[-1][0]) == 8 * final_beams
    monkeypatch.setattr(cavity, "_pack_cells", lambda *a: None)
    assert _run_bits(cfg) == (traversals, bits)


# sha256 of every snapshot's and the final ensemble's arrays (see
# _run_digest).  Transport and coalescing only add, multiply, divide and
# floor, so these hold on numpy's AVX2 and AVX-512 kernels alike.
ENGINE_PINS = {
    "confocal": (replace(load_preset("confocal").cavity, n_traversals=14),
                 "d7608d18e71aa396ff61f95a27c83c9466487750f565f471a8a16b84f0067526"),
    "bnl-quad": (replace(load_preset("bnl-quad").cavity, n_traversals=40),
                 "4120d9126c140b383b3e40d8aff121baf4059dc8786d197d45f4f3f3681c11ba"),
}


def _run_digest(cfg):
    """One sha256 over each snapshot's traversal, beam count and arrays,
    then the final ensemble's (traversal 0)."""
    res = run(cfg)
    digest = hashlib.sha256()
    for traversal, ens in [(s.traversal, s.ensemble) for s in res.snapshots] + [(0, res.final)]:
        digest.update(f"{traversal}:{len(ens)};".encode())
        for array in (ens.positions, ens.angles, ens.weights):
            digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(ENGINE_PINS))
def test_run_arrays_are_pinned(case):
    cfg, pinned = ENGINE_PINS[case]
    assert _run_digest(cfg) == pinned


@pytest.mark.parametrize("preset, n, most", [("bnl-quad", 40, 3), ("confocal", 14, 0)])
def test_each_coalesce_sorts_at_most(preset, n, most, monkeypatch):
    """Each grid pass sorts once, and so does a proof (`_apart`) that
    holds.  Most bnl-quad traversals sort three times: the merges at shift
    0 and 0.5, then the shift-0 pass that merges nothing, after which the
    O(N) check stands in for the shift-0.5 pass; a proof holds only on its
    first traversals, before any beams meet.  The confocal ensemble, which
    merges nothing, sorts once: its proof holds on every traversal, and no
    grid pass runs."""
    log = _record_passes(monkeypatch)
    apart = cavity._apart
    monkeypatch.setattr(cavity, "_apart", lambda *a: log.append(("apart", None, apart(*a)))
                        or log[-1][2])
    starts = []
    coalesce = cavity.coalesce
    monkeypatch.setattr(cavity, "coalesce", lambda *a: starts.append(len(log)) or coalesce(*a))
    run(replace(load_preset(preset).cavity, n_traversals=n))
    calls = [log[a:b] for a, b in zip(starts, starts[1:] + [len(log)])]
    assert len(calls) == n
    assert max(sum(kind == "pass" for kind, _, _ in call) for call in calls) == most
    if preset == "bnl-quad":
        proven = [call == [("apart", None, True)] for call in calls]
        assert proven[:3] == [True] * 3 and not any(proven[3:])
        common = [("apart", None, False), ("pass", 0.0, True), ("pass", 0.5, True),
                  ("pass", 0.0, False), ("check", 0.5, True)]
        assert calls.count(common) > n // 2
    else:
        assert all(call == [("apart", None, True)] for call in calls)


def test_coalesce_conserves_weight_exactly_for_dyadic_weights():
    rng = np.random.default_rng(7)
    n = 64
    pos = rng.normal(scale=1e-9, size=n)
    ang = rng.normal(scale=1e-12, size=n)
    w = np.full(n, 1.0 / n)
    ens = BeamEnsemble(pos, ang, w)
    out = coalesce(ens, 1e-10, 1e-13)
    assert out.total_weight == 1.0
    assert len(out) <= n


# --- the order coalesce leaves ----------------------------------------------
# coalesce does not sort its output: a call that merges nothing returns its
# input, and a merging call leaves the beams in the cell order of its last
# merging pass.


def _unmerging_cases():
    yield pytest.param([BeamEnsemble([3e-9, -3e-9, 0.0], [0.0, 0.0, 0.0], [0.3, 0.3, 0.4])],
                       1e-12, 1e-16, id="three-beams")
    for case, ens in zip(["distinct", "tied-positions", "signed-zeros"], _non_merging_ensembles()):
        yield pytest.param([ens], 1e-12, 1e-16, id=case)
    edges = [BeamEnsemble(pos, ang, np.ones(pos.size)) for pos, ang in _edge_ensembles()
             if not _shares_cell_brute(pos, ang, EDGE_TOL_P, EDGE_TOL_A)]
    yield pytest.param(edges, EDGE_TOL_P, EDGE_TOL_A, id="edge-cells")


@pytest.mark.parametrize("ensembles, tol_p, tol_a", list(_unmerging_cases()))
def test_coalesce_that_merges_nothing_returns_its_input(ensembles, tol_p, tol_a):
    for ens in ensembles:
        assert coalesce(ens, tol_p, tol_a) is ens


def _cells_strictly_rise(pos, ang, tol_p, tol_a, shift):
    """By position cell, then angle cell, in the beams' present order."""
    cell_p, cell_a = np.floor(pos / tol_p + shift), np.floor(ang / tol_a + shift)
    return bool(np.all((cell_p[1:] > cell_p[:-1])
                       | ((cell_p[1:] == cell_p[:-1]) & (cell_a[1:] > cell_a[:-1]))))


def _assert_merge_order(ens, tol_p, tol_a, monkeypatch):
    """A merging coalesce leaves strictly rising cells on the grid of its
    last merging pass, and no two beams in a cell of either grid."""
    with monkeypatch.context() as patch:
        log = _record_passes(patch)
        out = coalesce(ens, tol_p, tol_a)
    last = [shift for kind, shift, merged in log if kind == "pass" and merged][-1]
    assert _cells_strictly_rise(out.positions, out.angles, tol_p, tol_a, last)
    assert not _shares_cell_brute(out.positions, out.angles, tol_p, tol_a)
    return out


def _merging_cases():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        pos, ang = rng.normal(scale=3e-12, size=1500), rng.normal(scale=3e-16, size=1500)
        pos[:300] = 0.0
        pos[300:600] = -0.0
        ens = BeamEnsemble(pos, ang, rng.uniform(0.1, 1.0, 1500))
        yield pytest.param([ens], 1e-12, 1e-16, id=f"cloud-{seed}")
    edges = [BeamEnsemble(pos, ang, np.ones(pos.size)) for pos, ang in _edge_ensembles()
             if _shares_cell_brute(pos, ang, EDGE_TOL_P, EDGE_TOL_A)]
    yield pytest.param(edges, EDGE_TOL_P, EDGE_TOL_A, id="edge-cells")
    pos, ang, w = ONE_HALF_CELL
    far = BeamEnsemble(*_with_far_beam(pos * EDGE_TOL_P, ang * EDGE_TOL_A), np.append(w, 1.0))
    yield pytest.param([far], EDGE_TOL_P, EDGE_TOL_A, id="plain-keys")


@pytest.mark.parametrize("ensembles, tol_p, tol_a", list(_merging_cases()))
def test_merging_coalesce_leaves_the_cells_of_its_last_merge_rising(ensembles, tol_p, tol_a,
                                                                     monkeypatch):
    for ens in ensembles:
        out = _assert_merge_order(ens, tol_p, tol_a, monkeypatch)
        assert len(out) < len(ens)


@pytest.mark.parametrize(
    "cfg, final_beams",
    [
        (replace(load_preset("bnl-quad").cavity, n_traversals=12), 539),
        (CavityConfig(n_traversals=10, coalesce_tol_position_m=1e-9,
                      coalesce_tol_angle_rad=1e-10), 882),
        (CavityConfig(n_traversals=10, coalesce_tol_position_m=1e-8,
                      coalesce_tol_angle_rad=1e-9), 60),
    ],
    ids=["bnl-quad", "confocal-merging", "confocal-coarse"],
)
def test_run_coalesces_into_the_order_of_the_last_merge(cfg, final_beams, monkeypatch):
    """Every merging coalesce of these runs keeps the contract; the others
    return their input."""
    merging = []
    original = cavity.coalesce

    def checked(ens, tol_p, tol_a):
        out = original(ens, tol_p, tol_a)
        if out is not ens:
            merging.append(_assert_merge_order(ens, tol_p, tol_a, monkeypatch))
        return out

    monkeypatch.setattr(cavity, "coalesce", checked)
    assert len(run(cfg).final) == final_beams
    assert merging


@pytest.mark.parametrize("case", ["confocal"])
def test_runs_without_merges_stay_mirrored(case):
    """Transport lays out the split of a mirrored ensemble mirrored again,
    and this run merges nothing, so every snapshot and the final ensemble
    list their beams mirrored from one end."""
    res = run(ENGINE_PINS[case][0])
    for ens in [s.ensemble for s in res.snapshots] + [res.final]:
        assert density._is_mirrored(ens.positions, ens.weights)
        assert np.array_equal(ens.angles, -ens.angles[::-1])


# beams per snapshot of a bnl-quad run at n=40 before coalescing, and in
# its final ensemble; the same as when coalesce sorted its output
BNL_QUAD_40_BEAMS = ([4, 16, 56, 160, 380, 784, 1456, 2496, 4020, 6160, 9064, 12896, 17836,
                      24080, 31840, 41344, 52836, 66576, 82840, 101920], 56301)


def test_bnl_quad_beam_counts_are_pinned():
    res = run(ENGINE_PINS["bnl-quad"][0])
    assert ([len(s.ensemble) for s in res.snapshots], len(res.final)) == BNL_QUAD_40_BEAMS


# --- the proof that nothing merges -------------------------------------------
# Before any grid pass, `coalesce` tries to prove from one sort of the angle
# cells that no two beams share a cell of either grid (`_apart`).  Whatever
# the proof says, coalesce must return bitwise what the passes alone return.


def _sparse_beams(rng, n):
    """n beams in angle cells at least 4 apart in [2^20, 2^21), at
    scattered positions (units of EDGE_TOL_P and EDGE_TOL_A): no two of
    them are within one angle cell, and the span fits the sparse bound up
    to n = 2^15."""
    ang = 4.0 * rng.choice(2**18, n, replace=False) + 2.0**20 + rng.uniform(0.0, 1.0, n)
    return rng.uniform(-(2.0**20), 2.0**20, n), ang


def _cluster(rng, offset):
    """2 to 5 beams on half-cell lattice points of both coordinates about
    angle cell ``offset``, so that they sit on cell edges of both grids and
    chain within one angle cell of each other; some are nudged one ulp
    below their edge, some lie many position cells apart in one angle
    cell, and at the axis a zero may be -0.0."""
    k = int(rng.integers(2, 6))
    pos = rng.integers(-4, 5, k) / 2.0 * rng.choice([1.0, 16.0])
    ang = offset + rng.integers(-2, 3, k) / 2.0
    pos = np.where(rng.random(k) < 0.3, np.nextafter(pos, -np.inf), pos)
    ang = np.where(rng.random(k) < 0.3, np.nextafter(ang, -np.inf), ang)
    pos = np.where(pos == 0.0, rng.choice([0.0, -0.0], k), pos)
    ang = np.where(ang == 0.0, rng.choice([0.0, -0.0], k), ang)
    return pos, ang


def _proof_cases():
    """A sparse background of 1024 beams with one to four clusters (the
    first at the axis), shuffled together."""
    rng = np.random.default_rng(24)
    for _ in range(80):
        parts = [_sparse_beams(rng, 1024)]
        parts += [_cluster(rng, -8.0 * j) for j in range(int(rng.integers(1, 5)))]
        pos, ang = (np.concatenate(c) for c in zip(*parts))
        order = rng.permutation(pos.size)
        yield pos[order] * EDGE_TOL_P, ang[order] * EDGE_TOL_A, rng.uniform(0.1, 1.0, pos.size)


def _links(ang, tol_a):
    """Pairs of beams whose shift-0 angle cells differ by at most 1."""
    cell = np.floor(ang / tol_a)
    return int(np.triu(np.abs(cell[:, None] - cell) <= 1, 1).sum())


def _assert_as_the_passes_alone(ens, tol_p, tol_a, monkeypatch):
    out = coalesce(ens, tol_p, tol_a)
    with monkeypatch.context() as patch:
        patch.setattr(cavity, "_apart", lambda *a: False)
        alone = coalesce(ens, tol_p, tol_a)
    assert (out is ens) == (alone is ens)
    assert all(_same_bits(a, b) for a, b in zip((out.positions, out.angles, out.weights),
                                                 (alone.positions, alone.angles, alone.weights)))


def test_apart_holds_exactly_where_no_beams_share_a_cell(monkeypatch):
    """Within the budget of N/64 pairs of neighbouring angle cells the proof
    holds exactly when no two beams share a cell of either grid, edges one
    ulp apart and signed zeros included; past it, it gives up.  Either way
    coalesce returns what the passes alone return."""
    seen = {"proven with pairs": 0, "shared": 0, "gave up": 0}
    for pos, ang, w in _proof_cases():
        shares = _shares_cell_brute(pos, ang, EDGE_TOL_P, EDGE_TOL_A)
        links = _links(ang, EDGE_TOL_A)
        proven = cavity._apart(pos, ang, EDGE_TOL_P, EDGE_TOL_A)
        assert proven == (not shares and 64 * links <= pos.size), (shares, links)
        seen["proven with pairs"] += proven and links > 0
        seen["shared"] += shares
        seen["gave up"] += not shares and not proven
        _assert_as_the_passes_alone(BeamEnsemble(pos, ang, w), EDGE_TOL_P, EDGE_TOL_A, monkeypatch)
    assert all(seen.values()), seen  # 26, 51 and 3 of the 80 cases


def test_apart_tries_only_sparse_angles_and_gives_up_past_n_over_64_pairs(monkeypatch):
    """640 beams 32 angle cells apart, the last 64 apart, so that the span
    is 32 N; one cell less is declined.  Then pairs of beams in neighbouring
    angle cells, far apart in position: 10 = N/64 pairs are proven apart,
    11 are given up.  Nothing merges in any of them."""
    n = 640
    pos = 4.0 * np.arange(n) * EDGE_TOL_P
    ang = 32.0 * np.arange(n) + 0.25
    for last, holds in ((32.0 * n - 0.75, False), (32.0 * n + 0.25, True)):
        ang[-1] = last
        assert cavity._apart(pos, ang * EDGE_TOL_A, EDGE_TOL_P, EDGE_TOL_A) == holds
    for pairs, holds in ((10, True), (11, False)):
        paired = ang.copy()
        paired[1 : 2 * pairs : 2] = paired[0 : 2 * pairs : 2] + 1.0
        assert _links(paired * EDGE_TOL_A, EDGE_TOL_A) == pairs
        assert cavity._apart(pos, paired * EDGE_TOL_A, EDGE_TOL_P, EDGE_TOL_A) == holds
        ens = BeamEnsemble(pos, paired * EDGE_TOL_A, np.full(n, 1.0 / n))
        assert coalesce(ens, EDGE_TOL_P, EDGE_TOL_A) is ens
        _assert_as_the_passes_alone(ens, EDGE_TOL_P, EDGE_TOL_A, monkeypatch)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_apart_at_the_index_guard(sign, monkeypatch):
    """Two beams in the last position cell below the 2^62 guard, in
    neighbouring angle cells: the proof runs there as anywhere, holding
    where their shift-0.5 angle cells differ and failing where they are
    shared, and coalesce merges the shared pair as the passes do.  A beam
    at the guard, or an inf or NaN position, makes the proof decline and
    leaves the refusal to the passes."""
    rng = np.random.default_rng(62)
    pos, ang = _sparse_beams(rng, 256)
    below = np.nextafter(2.0**62, 0.0)
    for second, holds in ((1.6, True), (1.2, False)):
        p = np.append(pos, [sign * below] * 2) * EDGE_TOL_P
        a = np.append(ang, [0.7, second]) * EDGE_TOL_A
        assert _shares_cell_brute(p, a, EDGE_TOL_P, EDGE_TOL_A) != holds
        assert cavity._apart(p, a, EDGE_TOL_P, EDGE_TOL_A) == holds
        ens = BeamEnsemble(p, a, np.full(p.size, 1.0 / p.size))
        assert len(coalesce(ens, EDGE_TOL_P, EDGE_TOL_A)) == p.size - (not holds)
        _assert_as_the_passes_alone(ens, EDGE_TOL_P, EDGE_TOL_A, monkeypatch)
    p = np.append(pos, [sign * 2.0**62, 0.0]) * EDGE_TOL_P
    a = np.append(ang, [0.7, 1.6]) * EDGE_TOL_A
    assert not cavity._apart(p, a, EDGE_TOL_P, EDGE_TOL_A)
    with pytest.raises(ValueError, match="tolerance too small"):
        coalesce(BeamEnsemble(p, a, np.full(p.size, 1.0 / p.size)), EDGE_TOL_P, EDGE_TOL_A)
    # angles 2^20 cells apart, all near the guard: sparse, and narrow
    # enough to key, so only the guard stops the proof
    a = sign * (2.0**62 - 2.0**20 * np.arange(pos.size))
    ens = BeamEnsemble(pos * EDGE_TOL_P, a * EDGE_TOL_A, np.full(pos.size, 1.0 / pos.size))
    assert not cavity._apart(ens.positions, ens.angles, EDGE_TOL_P, EDGE_TOL_A)
    with pytest.raises(ValueError, match="tolerance too small"):
        coalesce(ens, EDGE_TOL_P, EDGE_TOL_A)
    a[0] = np.nextafter(a[0], 0.0)
    ens = BeamEnsemble(pos * EDGE_TOL_P, a * EDGE_TOL_A, np.full(pos.size, 1.0 / pos.size))
    assert cavity._apart(ens.positions, ens.angles, EDGE_TOL_P, EDGE_TOL_A)
    assert coalesce(ens, EDGE_TOL_P, EDGE_TOL_A) is ens
    for bad in (sign * math.inf, math.nan):
        p = np.append(pos, [bad, 0.0]) * EDGE_TOL_P
        assert not cavity._apart(p, np.append(ang, [0.7, 1.6]) * EDGE_TOL_A, EDGE_TOL_P, EDGE_TOL_A)
    with pytest.raises(ValueError, match="positions must be finite, got -?inf"):
        p = np.append(pos, [sign * math.inf, 0.0]) * EDGE_TOL_P
        ens = BeamEnsemble._derived(p, np.append(ang, [0.7, 1.6]) * EDGE_TOL_A, np.ones(p.size))
        coalesce(ens, EDGE_TOL_P, EDGE_TOL_A)


# --- traversal mechanics ---------------------------------------------------


def test_single_traversal_splits_axial_beam():
    cfg = CavityConfig(n_traversals=1)
    out = run(cfg).final
    assert len(out) == 2
    assert np.array_equal(out.weights, [0.5, 0.5])
    # position at the far mirror: one field passage walks the beam off axis
    # by theta * (field + 2 gap)
    expect = THETA * (cfg.field_length_m + 2 * cfg.gap_m)
    assert np.allclose(np.sort(out.positions), [-expect, expect], rtol=1e-12)
    # the far mirror's focusing kick acts on the doubled exit angle
    ang = np.sort(out.angles)
    expect_ang = 2 * THETA - expect / cfg.mirror2_focal_m
    assert np.allclose(ang, [-expect_ang, expect_ang], rtol=1e-12)


def test_two_planar_traversals_build_the_four_state_pattern():
    cfg = CavityConfig(mirror1_focal_m=None, mirror2_focal_m=None, n_traversals=2)
    ens = run(cfg).final
    assert len(ens) == 4
    assert np.array_equal(ens.weights, np.full(4, 0.25))
    # angles in units of the per-passage kick 2*theta
    steps = np.sort(np.round(ens.angles / (2 * THETA)).astype(int))
    assert np.array_equal(steps, [-2, 0, 0, 2])
    # the middle pair shares the angle but not the position, so it stays split
    mids = np.sort(ens.positions[np.abs(ens.angles) < THETA])
    assert mids[0] == -mids[1]
    assert mids[1] > 0


def test_traversal_count_growth_on_planar_mirrors():
    """With planar mirrors the reachable (angle, position) states form an
    integer lattice; after merging, the beam count follows
    (n^3 + 5 n + 6) / 6 exactly."""
    cfg = CavityConfig(mirror1_focal_m=None, mirror2_focal_m=None)
    for n in range(1, 26):
        ens = run(replace(cfg, n_traversals=n)).final
        assert len(ens) == (n**3 + 5 * n + 6) // 6, f"count law broke at n={n}"
    assert ens.total_weight == pytest.approx(1.0, abs=1e-12)


# --- full runs -------------------------------------------------------------


def test_run_snapshot_cadence_mirror2_every_traversal():
    res = run(CavityConfig(n_traversals=5))
    assert [s.traversal for s in res.snapshots] == [1, 2, 3, 4, 5]


def test_run_snapshot_cadence_mirror1_every_second_traversal():
    res = run(CavityConfig(mirror2_focal_m=None, extraction_mirror=MIRROR_1, n_traversals=5))
    assert [s.traversal for s in res.snapshots] == [2, 4]
    res = run(
        CavityConfig(
            mirror2_focal_m=-5.5, extraction_mirror=MIRROR_1, n_traversals=6, theta_split_rad=1e-12
        )
    )
    assert [s.traversal for s in res.snapshots] == [2, 4, 6]


def test_run_weight_is_conserved_at_every_snapshot():
    res = run(CavityConfig())
    for snap in res.snapshots:
        assert abs(snap.ensemble.total_weight - 1.0) <= 1e-12


def test_run_null_field_is_a_single_undisturbed_beam():
    cfg = replace(CavityConfig(n_traversals=8), theta_split_rad=0.0)
    res = run(cfg)
    for snap in res.snapshots:
        assert len(snap.ensemble) == 1
        assert snap.ensemble.positions[0] == 0.0
        assert snap.ensemble.angles[0] == 0.0
        assert snap.ensemble.weights[0] == 1.0


def test_run_snapshots_are_left_right_symmetric():
    """An axial input beam sees a symmetric cavity, so the weighted mean
    position and angle at the detector vanish identically."""
    res = run(CavityConfig())
    for snap in (res.snapshots[0], res.snapshots[7], res.snapshots[-1]):
        e = snap.ensemble
        assert math.fsum((e.weights * e.positions).tolist()) == 0.0
        assert math.fsum((e.weights * e.angles).tolist()) == 0.0


def test_first_snapshot_matches_transfer_matrix_prediction_axial():
    """One traversal of an axial beam lands at
    +-theta*(length + 2*gap + 2*distance) with angle +-2*theta; the chain
    is short enough to write out by hand."""
    cfg = CavityConfig(n_traversals=1)
    res = run(cfg)
    e = res.snapshots[0].ensemble
    d = cfg.field_length_m + 2 * cfg.gap_m + cfg.detector_distance_m + cfg.detector_distance_m
    assert np.allclose(np.sort(e.positions), [-THETA * 18.0, THETA * 18.0], rtol=1e-12)
    assert d == 18.0
    assert np.allclose(np.sort(e.angles), [-2 * THETA, 2 * THETA], rtol=1e-12)


def test_first_snapshot_matches_transfer_matrix_prediction_general():
    """Same traversal from a displaced, tilted input: the split separates the
    detector positions by theta*(length + 2*distance) around the transported
    centroid, and the angles by 2*theta around the input angle."""
    cfg = CavityConfig(n_traversals=1)
    r0, a0 = 1e-5, 2e-6
    res = run(cfg, initial=BeamEnsemble([r0], [a0], [1.0]))
    e = res.snapshots[0].ensemble
    centroid = r0 + a0 * (cfg.field_length_m + 2 * cfg.gap_m + cfg.detector_distance_m)
    offsets = np.sort(e.positions) - centroid
    assert np.allclose(offsets, [-THETA * 18.0, THETA * 18.0], rtol=1e-12)
    ang_off = np.sort(e.angles) - a0
    assert np.allclose(ang_off, [-2 * THETA, 2 * THETA], rtol=1e-12)


def test_long_run_conserves_weight_with_coarse_merging():
    """A thousand traversals with aggressive merge tolerances: the beam count
    stays tiny and the total weight never drifts."""
    cfg = CavityConfig(
        n_traversals=1000,
        coalesce_tol_position_m=1e-8,
        coalesce_tol_angle_rad=1e-7,
    )
    res = run(cfg)
    assert abs(res.final.total_weight - 1.0) <= 1e-12
    assert len(res.final) <= 16


def test_run_accepts_convex_concave_geometry():
    cfg = CavityConfig(
        mirror2_focal_m=-5.5, extraction_mirror=MIRROR_1, n_traversals=6, theta_split_rad=1e-9
    )
    res = run(cfg)
    assert res.snapshots
    for snap in res.snapshots:
        assert abs(snap.ensemble.total_weight - 1.0) <= 1e-12


# --- beam budget -------------------------------------------------------------


def test_run_refuses_a_split_past_the_beam_budget(monkeypatch):
    """The confocal ensemble doubles on every traversal: with a budget of 16
    beams, four traversals fit and the fifth split is refused before any
    work is done on it."""
    monkeypatch.setattr(cavity, "MAX_BEAMS", 16)
    assert len(run(CavityConfig(n_traversals=4)).final) == 16
    with pytest.raises(BeamBudgetError, match="traversal 5 would split 16 beams into 32"):
        run(CavityConfig(n_traversals=5))


def test_beam_budget_counts_the_merged_ensemble(monkeypatch):
    """The budget applies to the merged ensemble being split: on planar
    mirrors 26 beams split into 52 at traversal 6, where the unmerged
    confocal ensemble would be 64."""
    monkeypatch.setattr(cavity, "MAX_BEAMS", 52)
    planar = CavityConfig(mirror1_focal_m=None, mirror2_focal_m=None)
    assert len(run(replace(planar, n_traversals=6)).final) == 42
    with pytest.raises(BeamBudgetError):
        run(CavityConfig(n_traversals=6))


# --- shared arrays -----------------------------------------------------------
# Stages pass unchanged arrays on instead of copying them, so a snapshot
# shares its weights array with the ensemble that goes on to the next
# traversal (transport builds fresh position and angle arrays on every leg).
# No stage may write into them.


@pytest.mark.parametrize(
    "cfg",
    [
        CavityConfig(n_traversals=9),
        replace(load_preset("bnl-quad").cavity, n_traversals=14),
        CavityConfig(n_traversals=6, theta_split_rad=0.0),
    ],
    ids=["confocal", "bnl-quad", "field-off"],
)
def test_later_traversals_leave_earlier_snapshots_unchanged(cfg):
    k = cfg.n_traversals
    short = _run_bits(cfg)
    traversals, bits = _run_bits(replace(cfg, n_traversals=k + 3))
    n_short = len(short[0])
    assert (traversals[:n_short], bits[:n_short]) == (short[0], short[1][:n_short])


@pytest.mark.parametrize("theta", [THETA, 0.0])
def test_run_leaves_the_initial_arrays_unchanged(theta):
    rng = np.random.default_rng(11)
    initial = BeamEnsemble(rng.normal(scale=1e-9, size=64), rng.normal(scale=1e-12, size=64),
                           rng.uniform(0.0, 1.0 / 32, 64))
    before = [a.copy() for a in (initial.positions, initial.angles, initial.weights)]
    run(CavityConfig(n_traversals=5, theta_split_rad=theta), initial=initial)
    after = (initial.positions, initial.angles, initial.weights)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
