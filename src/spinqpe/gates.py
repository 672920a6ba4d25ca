"""Closed-form 2x2 unitaries and axis-rotation specs.

Sign convention, used everywhere downstream: a rotation by angle t about
axis n is exp(-i (sigma . n) t / 2) = cos(t/2) I - i sin(t/2) (sigma . n).
With this choice

    rx(t) |+x> = exp(-i t/2) |+x>,   |+-x> = (|0> +- |1>)  / sqrt(2)
    ry(t) |+y> = exp(-i t/2) |+y>,   |+-y> = (|0> +- i|1>) / sqrt(2)

so a precession of +t about the negative x axis is written rx(-t). These
eigenvector phase conventions are the reference for every statement about
phases encoded in eigenvectors.
"""

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# 2x2 gates must satisfy U+ U = I to this tolerance before being applied
UNITARY_ATOL = 1e-12


class Axis(Enum):
    X = "x"
    Y = "y"


def rx(theta: float) -> np.ndarray:
    """[[cos t/2, -i sin t/2], [-i sin t/2, cos t/2]]"""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def ry(theta: float) -> np.ndarray:
    """[[cos t/2, -sin t/2], [sin t/2, cos t/2]]"""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def hadamard() -> np.ndarray:
    r = 1.0 / math.sqrt(2.0)
    return np.array([[r, r], [r, -r]], dtype=np.complex128)


def pauli_x() -> np.ndarray:
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def identity() -> np.ndarray:
    return np.eye(2, dtype=np.complex128)


def phase(lam: float) -> np.ndarray:
    """diag(1, exp(i lam))"""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * lam)]], dtype=np.complex128)


def require_gate(gate) -> np.ndarray:
    """`gate` as a complex128 2x2 array; ValueError unless it is finite and
    unitary within UNITARY_ATOL."""
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (2, 2):
        raise ValueError(f"gate must be 2x2, got shape {gate.shape}")
    # checked on Python complex numbers: on a 2x2, one numpy call costs
    # more than the whole sum
    (a, b), (c, d) = gate.tolist()
    if not all(map(cmath.isfinite, (a, b, c, d))):
        raise ValueError("gate contains non-finite entries")
    a_, b_, c_, d_ = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    # the entries of U+ U - I, diagonal first: a product that overflows
    # makes a diagonal entry inf, and max then reads inf, never a NaN
    deviation = max(math.hypot(z.real, z.imag) for z in (
        a_ * a + c_ * c - 1, b_ * b + d_ * d - 1, a_ * b + c_ * d, b_ * a + d_ * c))
    if deviation > UNITARY_ATOL:
        raise ValueError(
            f"gate is not unitary within {UNITARY_ATOL} (deviation {deviation:.3e})"
        )
    return gate


@dataclass(frozen=True)
class RotationSpec:
    """An axis and a raw angle in radians; the matrix is built from the raw
    angle, never a folded one."""

    axis: Axis
    angle: float

    def __post_init__(self) -> None:
        if not isinstance(self.axis, Axis):
            raise ValueError(f"axis must be an Axis, got {self.axis!r}")
        if not math.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle!r}")


def rotation(spec: RotationSpec) -> np.ndarray:
    return rx(spec.angle) if spec.axis is Axis.X else ry(spec.angle)


def rotation_power(spec: RotationSpec, k: int) -> np.ndarray:
    """The k-th power of an axis rotation, built by angle scaling.

    Rotations about a fixed axis commute and add angles, so R(a)**k is
    R(k*a) exactly; this keeps controlled powers exact for large k instead
    of accumulating matrix-product roundoff.
    """
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    return rotation(RotationSpec(spec.axis, k * spec.angle))


def axis_eigenvectors(axis: Axis) -> tuple[np.ndarray, np.ndarray]:
    """(|+axis>, |-axis>) with the phase conventions fixed above."""
    r = 1.0 / math.sqrt(2.0)
    if axis is Axis.X:
        return (np.array([r, r], dtype=np.complex128),
                np.array([r, -r], dtype=np.complex128))
    return (np.array([r, 1j * r], dtype=np.complex128),
            np.array([r, -1j * r], dtype=np.complex128))
