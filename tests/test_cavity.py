import math
from dataclasses import replace

import numpy as np
import pytest

import axicav.cavity as cavity
from axicav.cavity import (
    BeamBudgetError,
    BeamEnsemble,
    CavityConfig,
    ConfigError,
    _lexorder,
    build_preset,
    coalesce,
    null_field_config,
    run,
)
from axicav.rays import ParaxialError, RayState
from axicav.scenario import load_preset

THETA = 4e-10


# --- configuration ---------------------------------------------------------


def test_default_geometry_is_consistent():
    cfg = CavityConfig()
    assert cfg.field_length_m + 2 * cfg.gap_m == cfg.length_m


def test_geometry_identity_is_enforced():
    with pytest.raises(ConfigError):
        CavityConfig(length_m=14.0, field_length_m=10.0, gap_m=1.0)


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
    with pytest.raises(ConfigError):
        CavityConfig(lens_focal_m=3.0, lens_offset_m=2.5, detector_distance_m=2.0)


def test_build_preset_confocal():
    cfg = build_preset("confocal")
    assert cfg.mirror1_focal_m == 12.5
    assert cfg.mirror2_focal_m == 12.5
    assert cfg.extraction_mirror == "mirror2"
    assert cfg.n_traversals == 15


def test_build_preset_planar_concave():
    cfg = build_preset("planar-concave")
    assert cfg.mirror1_focal_m == 12.5
    assert cfg.mirror2_focal_m is None
    assert cfg.extraction_mirror == "mirror1"


def test_build_preset_convex_concave():
    cfg = build_preset("convex-concave")
    assert cfg.mirror2_focal_m == -5.5
    assert cfg.extraction_mirror == "mirror1"


def test_build_preset_accepts_overrides_and_rejects_unknown_kind():
    cfg = build_preset("confocal", n_traversals=3, theta_split_rad=1e-9)
    assert cfg.n_traversals == 3
    assert cfg.theta_split_rad == 1e-9
    with pytest.raises(ConfigError):
        build_preset("hemispherical")


def test_null_field_config_only_clears_the_split():
    cfg = build_preset("confocal")
    null = null_field_config(cfg)
    assert null.theta_split_rad == 0.0
    assert null.n_traversals == cfg.n_traversals
    assert null.mirror2_focal_m == cfg.mirror2_focal_m


# --- ensembles -------------------------------------------------------------


def test_ensemble_shape_validation():
    with pytest.raises(ValueError):
        BeamEnsemble([0.0, 1.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        BeamEnsemble([0.0], [0.0], [-0.5])


def test_ensemble_enforces_paraxial_window():
    with pytest.raises(ParaxialError):
        BeamEnsemble([0.0], [0.2], [1.0])


def test_ensemble_total_weight():
    ens = BeamEnsemble([1e-3, -1e-3], [1e-6, -1e-6], [0.25, 0.75])
    assert len(ens) == 2
    assert ens.total_weight == 1.0


def test_sorted_copy_orders_by_position_then_angle():
    ens = BeamEnsemble([1e-3, -1e-3, 1e-3], [2e-6, 0.0, -2e-6], [0.2, 0.3, 0.5])
    out = ens.sorted_copy()
    assert np.array_equal(out.positions, [-1e-3, 1e-3, 1e-3])
    assert np.array_equal(out.angles, [0.0, -2e-6, 2e-6])


# --- reflection ------------------------------------------------------------
# One field-off traversal is transport over the cavity length followed by the
# far mirror's reflection, so the final ensemble shows the reflection alone.


def test_planar_reflection_keeps_the_accumulated_angle():
    cfg = CavityConfig(mirror2_focal_m=None, theta_split_rad=0.0, n_traversals=1)
    out = run(cfg, initial=BeamEnsemble.single(RayState(5.6e-9, 8e-10))).final
    assert out.angles[0] == 8e-10
    assert out.positions[0] == pytest.approx(5.6e-9 + 8e-10 * cfg.length_m, rel=1e-15)


def test_curved_reflection_adds_focusing_kick():
    cfg = build_preset("confocal", theta_split_rad=0.0, n_traversals=1)
    out = run(cfg, initial=BeamEnsemble.single(RayState(1e-3, 0.0))).final
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


def test_coalesce_keeps_separated_beams_apart():
    ens = BeamEnsemble([0.0, 2.5e-12], [0.0, 0.0], [0.5, 0.5])
    out = coalesce(ens, 1e-12, 1e-16)
    assert len(out) == 2


def test_coalesce_separated_in_angle_only_stays_apart():
    ens = BeamEnsemble([0.0, 0.0], [0.0, 3e-16], [0.5, 0.5])
    out = coalesce(ens, 1e-12, 1e-16)
    assert len(out) == 2


def test_coalesce_zero_tolerance_disables_merging():
    ens = BeamEnsemble([1e-3, 1e-3], [1e-5, 1e-5], [0.25, 0.25])
    out = coalesce(ens, 0.0, 1e-16)
    assert len(out) == 2


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
    # distinct majors: _final_order takes its plain-argsort path
    yield rng.normal(size=3000), rng.normal(size=3000)


@pytest.mark.parametrize("major, minor", list(_lexorder_cases()))
def test_lexorder_matches_lexsort(major, minor):
    assert np.array_equal(_lexorder(major, minor), np.lexsort((minor, major)))


@pytest.mark.parametrize("major, minor", list(_lexorder_cases()))
def test_final_order_matches_lexsort(major, minor):
    assert np.array_equal(cavity._final_order(major, minor), np.lexsort((minor, major)))


def _coalesce_reference(ens, tol_p, tol_a):
    """The lexsort / int64-cell formulation of coalesce, kept as an oracle."""
    pos, ang, w = ens.positions, ens.angles, ens.weights
    for _ in range(64):
        merged_any = False
        for shift in (0.0, 0.5):
            cell_p = np.floor(pos / tol_p + shift).astype(np.int64)
            cell_a = np.floor(ang / tol_a + shift).astype(np.int64)
            order = np.lexsort((cell_a, cell_p))
            cell_p, cell_a = cell_p[order], cell_a[order]
            pos, ang, w = pos[order], ang[order], w[order]
            starts = np.concatenate([[True], (np.diff(cell_p) != 0) | (np.diff(cell_a) != 0)])
            if starts.all():
                continue
            merged_any = True
            idx = np.flatnonzero(starts)
            wsum = np.add.reduceat(w, idx)
            pos = np.add.reduceat(w * pos, idx) / wsum
            ang = np.add.reduceat(w * ang, idx) / wsum
            w = wsum
        if not merged_any:
            break
    order = np.lexsort((ang, pos))
    return pos[order], ang[order], w[order]


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


def _shares_cell_brute(pos, ang, tol_p, tol_a):
    """Whether any pair of beams shares a cell at shift 0 or 0.5, pair by pair."""
    for shift in (0.0, 0.5):
        cell_p = np.floor(pos / tol_p + shift)
        cell_a = np.floor(ang / tol_a + shift)
        for i in range(pos.size):
            for j in range(i + 1, pos.size):
                if cell_p[i] == cell_p[j] and cell_a[i] == cell_a[j]:
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


def test_no_shared_cell_matches_brute_force():
    for pos, ang in _edge_ensembles():
        got = cavity._no_shared_cell(pos, ang, EDGE_TOL_P, EDGE_TOL_A)
        assert got == (not _shares_cell_brute(pos, ang, EDGE_TOL_P, EDGE_TOL_A)), (pos, ang)


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
def test_no_shared_cell_declines_nan_positions():
    """A NaN cell shares no cell, but it does not pack into a key either, so
    the check leaves the decision to the full grid passes.  (The reference
    casts the NaN cell to an int64, which numpy warns about.)"""
    pos = np.array([np.nan, 0.0, 5.0 * EDGE_TOL_P])
    ang = np.zeros(3)
    assert not _shares_cell_brute(pos, ang, EDGE_TOL_P, EDGE_TOL_A)
    assert not cavity._no_shared_cell(pos, ang, EDGE_TOL_P, EDGE_TOL_A)
    _assert_matches_reference(BeamEnsemble(pos, ang, [0.25, 0.25, 0.5]), EDGE_TOL_P, EDGE_TOL_A)


def test_no_shared_cell_keeps_the_index_guard_for_a_single_beam():
    with pytest.raises(ValueError, match="tolerance too small"):
        cavity._no_shared_cell(np.array([2.0**62 * EDGE_TOL_P]), np.zeros(1), EDGE_TOL_P, EDGE_TOL_A)
    below = np.nextafter(2.0**62, 0.0) * EDGE_TOL_P
    assert cavity._no_shared_cell(np.array([below]), np.zeros(1), EDGE_TOL_P, EDGE_TOL_A)


def _non_merging_ensembles():
    rng = np.random.default_rng(3)
    n = 2000
    # distinct beams, many tolerances apart
    yield BeamEnsemble(rng.permutation(n) * 7e-12, rng.normal(scale=1e-14, size=n), np.full(n, 1 / n))
    # tied positions, angles in distinct cells: the final order needs the angles
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
        (build_preset("confocal", n_traversals=10), 1024),
        (replace(load_preset("bnl-quad").cavity, n_traversals=16), 1593),
        (build_preset("confocal", n_traversals=10, coalesce_tol_position_m=1e-9,
                      coalesce_tol_angle_rad=1e-10), 882),
        (build_preset("confocal", n_traversals=10, coalesce_tol_position_m=1e-8,
                      coalesce_tol_angle_rad=1e-9), 60),
        (build_preset("confocal", n_traversals=8, lens_focal_m=0.7, split_on_backward=False), 16),
    ],
    ids=["confocal", "bnl-quad", "confocal-merging", "confocal-coarse", "lens"],
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


def test_coalesce_output_is_sorted():
    ens = BeamEnsemble([3e-9, -3e-9, 0.0], [0.0, 0.0, 0.0], [0.3, 0.3, 0.4])
    out = coalesce(ens, 1e-12, 1e-16)
    assert np.all(np.diff(out.positions) > 0)


# --- traversal mechanics ---------------------------------------------------


def test_single_traversal_splits_axial_beam():
    cfg = build_preset("confocal", n_traversals=1)
    out = run(cfg).final
    assert len(out) == 2
    assert np.array_equal(out.weights, [0.5, 0.5])
    # position at the far mirror: one field passage walks the beam off axis
    # by theta * (field + 2 gap)
    expect = THETA * cfg.length_m
    assert np.allclose(np.sort(out.positions), [-expect, expect], rtol=1e-12)
    # the far mirror's focusing kick acts on the doubled exit angle
    ang = np.sort(out.angles)
    expect_ang = 2 * THETA - expect / cfg.mirror2_focal_m
    assert np.allclose(ang, [-expect_ang, expect_ang], rtol=1e-12)


def test_two_planar_traversals_build_the_four_state_pattern():
    cfg = CavityConfig(
        kind="planar", mirror1_focal_m=None, mirror2_focal_m=None, n_traversals=2
    )
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


def test_split_on_backward_false_splits_half_as_often():
    cfg = CavityConfig(split_on_backward=False, n_traversals=1)
    ens = run(cfg).final
    assert len(ens) == 2 and np.array_equal(ens.weights, [0.5, 0.5])
    ens = run(replace(cfg, n_traversals=2)).final
    # no split on the return leg: still two half-weight beams
    assert len(ens) == 2 and np.array_equal(ens.weights, [0.5, 0.5])


def test_traversal_count_growth_on_planar_mirrors():
    """With planar mirrors the reachable (angle, position) states form an
    integer lattice; after merging, the beam count follows
    (n^3 + 5 n + 6) / 6 exactly."""
    cfg = CavityConfig(kind="planar", mirror1_focal_m=None, mirror2_focal_m=None)
    for n in range(1, 26):
        ens = run(replace(cfg, n_traversals=n)).final
        assert len(ens) == (n**3 + 5 * n + 6) // 6, f"count law broke at n={n}"
    assert ens.total_weight == pytest.approx(1.0, abs=1e-12)


# --- full runs -------------------------------------------------------------


def test_run_snapshot_cadence_mirror2_every_traversal():
    res = run(build_preset("confocal", n_traversals=5))
    assert [s.traversal for s in res.snapshots] == [1, 2, 3, 4, 5]


def test_run_snapshot_cadence_mirror1_every_second_traversal():
    res = run(build_preset("planar-concave", n_traversals=5))
    assert [s.traversal for s in res.snapshots] == [2, 4]
    res = run(build_preset("convex-concave", n_traversals=6, theta_split_rad=1e-12))
    assert [s.traversal for s in res.snapshots] == [2, 4, 6]


def test_run_weight_is_conserved_at_every_snapshot():
    res = run(build_preset("confocal"))
    for snap in res.snapshots:
        assert abs(snap.ensemble.total_weight - 1.0) <= 1e-12


def test_run_null_field_is_a_single_undisturbed_beam():
    cfg = null_field_config(build_preset("confocal", n_traversals=8))
    res = run(cfg)
    for snap in res.snapshots:
        assert len(snap.ensemble) == 1
        assert snap.ensemble.positions[0] == 0.0
        assert snap.ensemble.angles[0] == 0.0
        assert snap.ensemble.weights[0] == 1.0


def test_run_snapshots_are_left_right_symmetric():
    """An axial input beam sees a symmetric cavity, so the weighted mean
    position and angle at the detector vanish identically."""
    res = run(build_preset("confocal"))
    for snap in (res.snapshots[0], res.snapshots[7], res.snapshots[-1]):
        e = snap.ensemble
        assert math.fsum((e.weights * e.positions).tolist()) == 0.0
        assert math.fsum((e.weights * e.angles).tolist()) == 0.0


def test_first_snapshot_matches_transfer_matrix_prediction_axial():
    """One traversal of an axial beam lands at +-theta*(length + 2*relay)
    with angle +-2*theta; the chain is short enough to write out by hand."""
    cfg = build_preset("confocal", n_traversals=1)
    res = run(cfg)
    e = res.snapshots[0].ensemble
    d = cfg.length_m + cfg.detector_distance_m + cfg.detector_distance_m
    assert np.allclose(np.sort(e.positions), [-THETA * 18.0, THETA * 18.0], rtol=1e-12)
    assert d == 18.0
    assert np.allclose(np.sort(e.angles), [-2 * THETA, 2 * THETA], rtol=1e-12)


def test_first_snapshot_matches_transfer_matrix_prediction_general():
    """Same traversal from a displaced, tilted input: the split separates the
    detector positions by theta*(length + 2*distance) around the transported
    centroid, and the angles by 2*theta around the input angle."""
    cfg = build_preset("confocal", n_traversals=1)
    r0, a0 = 1e-5, 2e-6
    res = run(cfg, initial=BeamEnsemble.single(RayState(r0, a0)))
    e = res.snapshots[0].ensemble
    centroid = r0 + a0 * (cfg.length_m + cfg.detector_distance_m)
    offsets = np.sort(e.positions) - centroid
    assert np.allclose(offsets, [-THETA * 18.0, THETA * 18.0], rtol=1e-12)
    ang_off = np.sort(e.angles) - a0
    assert np.allclose(ang_off, [-2 * THETA, 2 * THETA], rtol=1e-12)


def test_detector_lens_path():
    """With an explicit external lens the detector trip is offset, thin-lens
    kick, remainder; check one branch against the hand-computed chain."""
    cfg = build_preset("confocal", n_traversals=1, lens_focal_m=3.0)
    res = run(cfg)
    e = res.snapshots[0].ensemble
    p, a = 5.6e-9, 8e-10  # plus branch at the far mirror, pre-reflection
    p1 = p + a * cfg.lens_offset_m
    a1 = a - p1 / 3.0
    p2 = p1 + a1 * (cfg.detector_distance_m - cfg.lens_offset_m)
    assert np.max(e.positions) == pytest.approx(p2, rel=1e-12)
    assert np.min(e.angles) == pytest.approx(a1, rel=1e-12)


def test_long_run_conserves_weight_with_coarse_merging():
    """A thousand traversals with aggressive merge tolerances: the beam count
    stays tiny and the total weight never drifts."""
    cfg = build_preset(
        "confocal",
        n_traversals=1000,
        coalesce_tol_position_m=1e-8,
        coalesce_tol_angle_rad=1e-7,
    )
    res = run(cfg)
    assert abs(res.final.total_weight - 1.0) <= 1e-12
    assert len(res.final) <= 16


def test_run_accepts_convex_concave_geometry():
    cfg = build_preset("convex-concave", n_traversals=6, theta_split_rad=1e-9)
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
    assert len(run(build_preset("confocal", n_traversals=4)).final) == 16
    with pytest.raises(BeamBudgetError, match="traversal 5 would split 16 beams into 32"):
        run(build_preset("confocal", n_traversals=5))


def test_beam_budget_counts_only_split_legs(monkeypatch):
    """Without backward splits the ensemble doubles every other traversal,
    and the budget applies to the merged ensemble being split: on planar
    mirrors 26 beams split into 52 at traversal 6, where the unmerged
    confocal ensemble would be 64."""
    monkeypatch.setattr(cavity, "MAX_BEAMS", 8)
    assert len(run(build_preset("confocal", n_traversals=6, split_on_backward=False)).final) == 8
    with pytest.raises(BeamBudgetError):
        run(build_preset("confocal", n_traversals=7, split_on_backward=False))
    monkeypatch.setattr(cavity, "MAX_BEAMS", 52)
    planar = CavityConfig(kind="planar", mirror1_focal_m=None, mirror2_focal_m=None)
    assert len(run(replace(planar, n_traversals=6)).final) == 42
    with pytest.raises(BeamBudgetError):
        run(build_preset("confocal", n_traversals=6))
