"""Inverse quantum Fourier transform on a counting register.

A plan implements F^-1, where F[j][k] = exp(2 pi i j k / 2^n) / sqrt(2^n)
in the register's outcome ordering, terminal bit-reversal swaps included.
A phase-kickback pattern exp(2 pi i phi j) over counting index j therefore
lands on the outcome closest to phi * 2^n. Controlled-phase angles are the
exact -pi/2^k values; nothing is truncated.

Plans are immutable values; execution goes through the statevector kernels
(swaps are expanded into three controlled-X applications).
"""

from __future__ import annotations

import math

from .errors import ConfigurationError
from .gates import FrozenValue, hadamard, pauli_x, phase
from .statevector import StateVector, apply_controlled, apply_single

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np


class PlanStep(FrozenValue):
    __slots__ = ("kind", "qubits", "angle")

    def __init__(self, kind: str, qubits: tuple[int, ...], angle: float = 0.0) -> None:
        self._set(kind, qubits, angle)  # kind: "hadamard" | "cphase" | "swap"


class IqftPlan(FrozenValue):
    __slots__ = ("ops",)

    def __init__(self, ops: tuple[PlanStep, ...]) -> None:
        self._set(ops)


def build_iqft(qubits) -> IqftPlan:
    """Plan the inverse transform for the given qubits, listed MSB first.

    The op sequence is the reverse-conjugate of the textbook forward
    transform on the same list, written in the equivalent swaps-last form
    (controlled phases are symmetric, so the terminal swaps commute
    through by relabeling).
    """
    qubits = tuple(qubits)
    if not qubits:
        raise ConfigurationError("at least one qubit required")
    if len(set(qubits)) != len(qubits):
        raise ConfigurationError(f"duplicate qubits in {qubits}")
    n = len(qubits)
    ops: list[PlanStep] = []
    for i in range(n):
        for k in range(i):
            ops.append(PlanStep(
                kind="cphase",
                qubits=(qubits[k], qubits[i]),
                angle=-math.pi / (1 << (i - k)),
            ))
        ops.append(PlanStep(kind="hadamard", qubits=(qubits[i],)))
    for i in range(n // 2):
        ops.append(PlanStep(kind="swap", qubits=(qubits[i], qubits[n - 1 - i])))
    return IqftPlan(ops=tuple(ops))


def apply_iqft(state: StateVector, plan: IqftPlan) -> StateVector:
    """Execute a plan on the counting subspace of `state`."""
    flip = pauli_x()
    for op in plan.ops:
        if op.kind == "hadamard":
            state = apply_single(state, hadamard(), op.qubits[0])
        elif op.kind == "cphase":
            state = apply_controlled(state, phase(op.angle), op.qubits[0], op.qubits[1])
        elif op.kind == "swap":
            a, b = op.qubits
            state = apply_controlled(state, flip, a, b)
            state = apply_controlled(state, flip, b, a)
            state = apply_controlled(state, flip, a, b)
        else:
            raise ConfigurationError(f"unknown plan step {op.kind!r}")
    return state


def dense_iqft_reference(n: int) -> np.ndarray:
    """The explicit F^-1 matrix, for equivalence testing only."""
    import numpy as np

    if not 1 <= n <= 10:
        raise ValueError(f"dense reference supports 1..10 qubits, got {n}")
    dim = 1 << n
    j = np.arange(dim)
    return np.exp(-2j * np.pi * np.outer(j, j) / dim) / math.sqrt(dim)
