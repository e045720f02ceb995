"""Paraxial ray algebra: 2x2 transfer matrices plus the two angular kick
operations that a transverse field gradient applies to a beam.

Positions are metres, angles radians.  A ray is valid only while its angle
stays inside the paraxial window |angle| < PARAXIAL_LIMIT; every constructor
enforces that so downstream code can rely on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PARAXIAL_LIMIT = 0.1  # rad


class ParaxialError(ValueError):
    """Raised when a ray leaves the small-angle regime the matrices assume."""


@dataclass(frozen=True)
class RayState:
    """Transverse state of a beam: position (m) and angle (rad)."""

    position: float
    angle: float

    def __post_init__(self):
        if not math.isfinite(self.position):
            raise ValueError(f"position must be finite, got {self.position!r}")
        if not (abs(self.angle) < PARAXIAL_LIMIT):
            raise ParaxialError(
                f"angle {self.angle!r} outside paraxial window (|angle| < {PARAXIAL_LIMIT})"
            )


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 ray-transfer matrix [[a, b], [c, d]] acting on (position, angle)."""

    a: float
    b: float
    c: float
    d: float

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(
            a=self.a * other.a + self.b * other.c,
            b=self.a * other.b + self.b * other.d,
            c=self.c * other.a + self.d * other.c,
            d=self.c * other.b + self.d * other.d,
        )


IDENTITY = TransferMatrix(1.0, 0.0, 0.0, 1.0)


def propagation_matrix(distance: float) -> TransferMatrix:
    """Free-flight transport over a non-negative distance (m)."""
    if distance < 0:
        raise ValueError(f"propagation distance must be >= 0, got {distance!r}")
    return TransferMatrix(1.0, distance, 0.0, 1.0)


def focusing_matrix(focal_length: float) -> TransferMatrix:
    """Thin-lens / curved-mirror focusing.  Negative focal length defocuses."""
    if focal_length == 0:
        raise ValueError("focal length must be nonzero")
    return TransferMatrix(1.0, 0.0, -1.0 / focal_length, 1.0)


def compose(matrices: list[TransferMatrix]) -> TransferMatrix:
    """Product of matrices written in the usual operator order: the last
    element of the list acts on the ray first."""
    if not matrices:
        raise ValueError("compose needs at least one matrix")
    out = matrices[0]
    for m in matrices[1:]:
        out = out @ m
    return out


def split(ray: RayState, theta_split: float) -> tuple[RayState, RayState]:
    """One-to-two split at a field boundary.

    Both offspring keep the parent position; their angles are the parent
    angle +- theta_split.  Statistical weight bookkeeping (each side carries
    half) is the caller's job.  This is a one-to-two affine operation, not a
    transfer matrix.
    """
    if theta_split < 0:
        raise ValueError(f"theta_split must be >= 0, got {theta_split!r}")
    return (
        RayState(ray.position, ray.angle + theta_split),
        RayState(ray.position, ray.angle - theta_split),
    )


def angular_enhance(ray: RayState, theta_split: float, branch_sign: int) -> RayState:
    """Second kick at the field exit, on the same side the branch took at
    entry, so a full field passage changes the angle by +-2*theta_split."""
    if theta_split < 0:
        raise ValueError(f"theta_split must be >= 0, got {theta_split!r}")
    if branch_sign not in (1, -1):
        raise ValueError(f"branch_sign must be +1 or -1, got {branch_sign!r}")
    return RayState(ray.position, ray.angle + branch_sign * theta_split)
