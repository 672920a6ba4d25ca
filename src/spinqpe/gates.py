"""Closed-form 2x2 unitaries and axis-rotation specs.

Sign convention, used everywhere downstream: a rotation by angle t about
axis n is exp(-i (sigma . n) t / 2) = cos(t/2) I - i sin(t/2) (sigma . n).
With this choice

    rx(t) |+x> = exp(-i t/2) |+x>,   |+-x> = (|0> +- |1>)  / sqrt(2)
    ry(t) |+y> = exp(-i t/2) |+y>,   |+-y> = (|0> +- i|1>) / sqrt(2)

so a precession of +t about the negative x axis is written rx(-t). These
eigenvector phase conventions are the reference for every statement about
phases encoded in eigenvectors.

A gate is a 2x2 tuple of rows and a state a length-2 tuple, of Python
complex numbers: a single-qubit gate is too small for a numpy array to
pay, and building one needs no numpy import. Each entry is made by the
same float operations a complex128 array of the gate would hold.

Value and FrozenValue are the bases of the package's value classes, here
because every module that defines one, the reference engine's included,
may import this one.
"""

import cmath
import math
from enum import Enum
from numbers import Number

# 2x2 gates must satisfy U+ U = I to this tolerance before being applied
UNITARY_ATOL = 1e-12


class Axis(Enum):
    X = "x"
    Y = "y"


#: two amplitudes: a single-qubit state, or a row of a gate
Pair = tuple[complex, complex]

#: a 2x2 gate, ((g00, g01), (g10, g11))
Gate = tuple[Pair, Pair]


def _pairs(a, b, c, d) -> tuple[Pair, Pair]:
    """((a, b), (c, d)) as Python complex numbers."""
    return ((complex(a), complex(b)), (complex(c), complex(d)))


def rx(theta: float) -> Gate:
    """[[cos t/2, -i sin t/2], [-i sin t/2, cos t/2]]"""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return _pairs(c, -1j * s, -1j * s, c)


def ry(theta: float) -> Gate:
    """[[cos t/2, -sin t/2], [sin t/2, cos t/2]]"""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return _pairs(c, -s, s, c)


def hadamard() -> Gate:
    r = 1.0 / math.sqrt(2.0)
    return _pairs(r, r, r, -r)


def pauli_x() -> Gate:
    return _pairs(0.0, 1.0, 1.0, 0.0)


def phase(lam: float) -> Gate:
    """diag(1, exp(i lam))"""
    return _pairs(1.0, 0.0, 0.0, cmath.exp(1j * lam))


def require_gate(gate) -> Gate:
    """`gate`, a 2x2 array or nested sequence, as a Gate tuple; ValueError
    unless it is 2x2, finite and unitary within UNITARY_ATOL.

    Entries that are all exact complex numbers, as rx and ry build them,
    are taken as they are, and other numbers as complex() reads them;
    anything else, such as an array whose rows are not numbers, is read as
    numpy's complex128 conversion reads it, and only then is numpy
    imported."""
    try:
        (a, b), (c, d) = gate
        # complex() would also read a one-element array, which the numpy
        # conversion refuses as a third axis
        if not (type(a) is type(b) is type(c) is type(d) is complex):
            if not all(isinstance(z, Number) for z in (a, b, c, d)):
                raise TypeError("a gate entry is not a number")
            a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    except (TypeError, ValueError, OverflowError):
        import numpy as np

        array = np.asarray(gate, dtype=np.complex128)
        if array.shape != (2, 2):
            raise ValueError(f"gate must be 2x2, got shape {array.shape}") from None
        (a, b), (c, d) = array.tolist()
    # checked on Python complex numbers: on a 2x2, one numpy call costs
    # more than the whole sum
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
    return ((a, b), (c, d))


_setattr = object.__setattr__  # a module global: found faster than the builtin


class Value:
    """Base of a value class. A subclass lists its fields in __slots__
    (_fields puts those of its bases first) and its __init__ sets them
    with _set. The repr lists every field, and two objects are equal when
    they are of one class with equal fields. A Value is mutable, so it has
    no hash; a copy or a pickle is rebuilt through __init__."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls) -> None:
        cls._fields += vars(cls).get("__slots__", ())

    def _set(self, *values) -> None:
        """Set the fields, in _fields order, past any __setattr__."""
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None


class FrozenValue(Value):
    """A Value whose fields cannot be assigned or deleted once __init__
    has set them; equal values hash equal."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class RotationSpec(FrozenValue):
    """An axis and a raw angle in radians; the matrix is built from the raw
    angle, never a folded one."""

    __slots__ = ("axis", "angle")

    def __init__(self, axis: Axis, angle: float) -> None:
        self._set(axis, angle)
        if not isinstance(self.axis, Axis):
            raise ValueError(f"axis must be an Axis, got {self.axis!r}")
        if not math.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle!r}")


def rotation(spec: RotationSpec) -> Gate:
    return rx(spec.angle) if spec.axis is Axis.X else ry(spec.angle)


def rotation_power(spec: RotationSpec, k: int) -> Gate:
    """The k-th power of an axis rotation, built by angle scaling.

    Rotations about a fixed axis commute and add angles, so R(a)**k is
    R(k*a) exactly; this keeps controlled powers exact for large k instead
    of accumulating matrix-product roundoff.
    """
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    return rotation(RotationSpec(spec.axis, k * spec.angle))


def axis_eigenvectors(axis: Axis) -> tuple[Pair, Pair]:
    """(|+axis>, |-axis>) with the phase conventions fixed above."""
    r = 1.0 / math.sqrt(2.0)
    if axis is Axis.X:
        return _pairs(r, r, r, -r)
    return _pairs(r, 1j * r, r, -1j * r)
