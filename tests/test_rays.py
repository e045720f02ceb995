import math

import numpy as np
import pytest
from oracles import apply, det

from axicav.rays import (
    IDENTITY,
    PARAXIAL_LIMIT,
    ParaxialError,
    RayState,
    TransferMatrix,
    angular_enhance,
    compose,
    focusing_matrix,
    propagation_matrix,
    split,
)


def test_ray_state_holds_values():
    r = RayState(1.5e-3, 2.0e-6)
    assert r.position == 1.5e-3
    assert r.angle == 2.0e-6


def test_ray_state_rejects_nonparaxial_angle():
    with pytest.raises(ParaxialError):
        RayState(0.0, PARAXIAL_LIMIT)
    with pytest.raises(ParaxialError):
        RayState(0.0, -0.2)
    # just under the limit is fine
    RayState(0.0, PARAXIAL_LIMIT * 0.999)


def test_ray_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        RayState(math.nan, 0.0)
    with pytest.raises(ValueError):
        RayState(0.0, math.inf)


def test_propagation_moves_position_not_angle():
    ray = RayState(0.0, 1e-3)
    out = apply(propagation_matrix(2.0), ray)
    assert out.position == pytest.approx(2e-3, rel=1e-15)
    assert out.angle == 1e-3


def test_propagation_zero_distance_is_identity():
    m = propagation_matrix(0.0)
    assert (m.a, m.b, m.c, m.d) == (1.0, 0.0, 0.0, 1.0)


def test_propagation_rejects_negative_distance():
    with pytest.raises(ValueError):
        propagation_matrix(-1.0)


def test_focusing_kicks_angle_by_position_over_f():
    out = apply(focusing_matrix(12.5), RayState(1e-3, 0.0))
    assert out.position == 1e-3
    assert out.angle == pytest.approx(-8e-5, rel=1e-15)


def test_defocusing_mirror_pushes_outward():
    out = apply(focusing_matrix(-5.5), RayState(1e-3, 0.0))
    assert out.angle == pytest.approx(1e-3 / 5.5, rel=1e-15)
    assert out.angle > 0


def test_focusing_rejects_zero_focal_length():
    with pytest.raises(ValueError):
        focusing_matrix(0.0)


def test_axial_ray_ignores_focusing():
    out = apply(focusing_matrix(12.5), RayState(0.0, 4e-10))
    assert out.position == 0.0
    assert out.angle == 4e-10


@pytest.mark.parametrize(
    "matrix",
    [
        IDENTITY,
        propagation_matrix(14.0),
        focusing_matrix(12.5),
        focusing_matrix(-5.5),
        propagation_matrix(2.0) @ focusing_matrix(12.5) @ propagation_matrix(10.0),
    ],
)
def test_determinant_is_unity(matrix):
    assert det(matrix) == pytest.approx(1.0, abs=1e-12)


def test_compose_applies_rightmost_first():
    prop = propagation_matrix(3.0)
    focus = focusing_matrix(2.0)
    ray = RayState(1e-3, 1e-4)
    chained = apply(compose([focus, prop]), ray)
    stepwise = apply(focus, apply(prop, ray))
    assert chained.position == pytest.approx(stepwise.position, rel=1e-15)
    assert chained.angle == pytest.approx(stepwise.angle, rel=1e-15)


def test_compose_of_propagations_adds_distances():
    combined = compose([propagation_matrix(2.0), propagation_matrix(10.0), propagation_matrix(2.0)])
    direct = propagation_matrix(14.0)
    assert combined.a == direct.a
    assert combined.b == pytest.approx(direct.b, rel=1e-15)
    assert combined.c == direct.c
    assert combined.d == direct.d


def test_compose_empty_rejected():
    with pytest.raises(ValueError):
        compose([])


def test_matrix_apply_is_linear():
    m = propagation_matrix(5.0) @ focusing_matrix(-3.0)
    r1 = RayState(1e-4, 2e-5)
    r2 = RayState(-3e-4, 1e-5)
    both = apply(m, RayState(r1.position + r2.position, r1.angle + r2.angle))
    o1, o2 = apply(m, r1), apply(m, r2)
    assert both.position == pytest.approx(o1.position + o2.position, rel=1e-12)
    assert both.angle == pytest.approx(o1.angle + o2.angle, rel=1e-12)


def test_split_produces_symmetric_pair():
    plus, minus = split(RayState(0.0, 0.0), 4e-10)
    assert plus.angle == 4e-10
    assert minus.angle == -4e-10
    assert plus.position == minus.position == 0.0


def test_split_is_additive_on_moving_ray():
    base = RayState(1e-3, 2e-6)
    plus, minus = split(base, 1e-9)
    assert plus.angle == pytest.approx(2e-6 + 1e-9, rel=1e-15)
    assert minus.angle == pytest.approx(2e-6 - 1e-9, rel=1e-15)
    # angle sum is preserved by the symmetric kick
    assert plus.angle + minus.angle == pytest.approx(2 * base.angle, rel=1e-15)


def test_split_with_zero_angle_duplicates_ray():
    base = RayState(5e-4, -3e-6)
    plus, minus = split(base, 0.0)
    assert plus == base
    assert minus == base


def test_split_rejects_negative_angle():
    with pytest.raises(ValueError):
        split(RayState(0.0, 0.0), -1e-10)


def test_enhance_doubles_the_kick_on_matching_branch():
    plus, _ = split(RayState(0.0, 0.0), 4e-10)
    out = angular_enhance(plus, 4e-10, +1)
    assert out.angle == pytest.approx(8e-10, rel=1e-15)


def test_enhance_validates_branch_sign():
    ray = RayState(0.0, 1e-10)
    with pytest.raises(ValueError):
        angular_enhance(ray, 1e-10, 0)
    with pytest.raises(ValueError):
        angular_enhance(ray, 1e-10, 2)


def test_field_passage_ends_at_twice_split_angle():
    """Split on entry, drift the interaction region, then the exit kick on
    the same branch: the angle leaves at twice the single-kick value."""
    theta = 4e-10
    length = 10.0
    for sign in (+1, -1):
        branch = split(RayState(0.0, 0.0), theta)[0 if sign > 0 else 1]
        drifted = apply(propagation_matrix(length), branch)
        out = angular_enhance(drifted, theta, sign)
        assert out.angle == pytest.approx(sign * 2 * theta, rel=1e-15)
        assert out.position == pytest.approx(sign * theta * length, rel=1e-15)


def test_matmul_matches_compose():
    a = propagation_matrix(1.0)
    b = focusing_matrix(4.0)
    viamat = a @ b
    vialist = compose([a, b])
    assert (viamat.a, viamat.b, viamat.c, viamat.d) == (
        vialist.a,
        vialist.b,
        vialist.c,
        vialist.d,
    )


def test_identity_apply_returns_equal_ray():
    ray = RayState(2e-4, -5e-6)
    out = apply(IDENTITY, ray)
    assert out == ray
