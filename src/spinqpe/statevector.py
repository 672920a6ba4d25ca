"""Dense statevector simulation for small qubit registers.

Indexing convention, fixed package-wide: qubit q is the bit of weight 2**q
in the amplitude index, so qubit 0 is the least significant bit and the
basis state |b_{n-1} ... b_1 b_0> sits at index sum(b_q * 2**q).

Gates act on a reshaped view of the amplitude array, O(2**n) per gate; no
2**n x 2**n matrix and no index array is ever formed. With qubit q as axis
1 of amps.reshape(-1, 2, 2**q), the two slices along that axis are the
amplitude halves with bit q at 0 and at 1; a control qubit adds a second
length-2 axis that is sliced at 1. All operations return fresh StateVector
values and never mutate their input, so states can be handed between
threads freely. The numpy kernel is vectorized but sequential-equivalent:
results are bit-identical to a pair by pair loop.
"""

from __future__ import annotations

from .errors import ConfigurationError
from .gates import Gate, Value, require_gate

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

MAX_QUBITS = 24


class StateVector(Value):
    """Amplitudes of an n-qubit register (length 2**num_qubits, complex128)."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray) -> None:
        import numpy as np

        self._set(num_qubits, amplitudes)

        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(
                f"num_qubits must be in [1, {MAX_QUBITS}], got {self.num_qubits}"
            )
        self.amplitudes = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, "
                f"got shape {self.amplitudes.shape}"
            )
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError("amplitudes contain non-finite values")

    def norm(self) -> float:
        import numpy as np

        return float(np.linalg.norm(self.amplitudes))


def new_state(num_qubits: int) -> StateVector:
    """The all-zeros register |0...0>."""
    import numpy as np

    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def _check_qubit(state: StateVector, qubit: int, role: str = "target") -> None:
    if not 0 <= qubit < state.num_qubits:
        raise IndexError(
            f"{role} qubit {qubit} out of range for a "
            f"{state.num_qubits}-qubit register"
        )


def _apply_gate(state: StateVector, gate: Gate, control: int | None,
                target: int) -> StateVector:
    """`gate` on `target`, restricted to where `control` reads 1 unless it
    is None. The target-bit halves are views into the returned copy."""
    import numpy as np

    (g00, g01), (g10, g11) = gate
    out = state.amplitudes.copy()
    if control is None:
        view, axis = out.reshape(-1, 2, 1 << target), 1
    else:
        lo, hi = sorted((control, target))
        view = out.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
        view = view[:, 1] if control == hi else view[:, :, :, 1]
        axis = 1 if target == hi else 2
    b0, b1 = np.moveaxis(view, axis, 0)
    # both new halves are computed before either is written back
    b0[...], b1[...] = g00 * b0 + g01 * b1, g10 * b0 + g11 * b1
    return StateVector(state.num_qubits, out)


def apply_single(state: StateVector, gate, target: int) -> StateVector:
    """Apply a 2x2 unitary to one qubit.

    Amplitudes are updated pairwise over index pairs differing only in bit
    `target`; the norm is preserved to the gate's unitarity precision.
    """
    gate = require_gate(gate)
    _check_qubit(state, target)
    return _apply_gate(state, gate, None, target)


def apply_controlled(state: StateVector, gate, control: int, target: int) -> StateVector:
    """Apply `gate` to `target` on the subspace where `control` reads 1."""
    gate = require_gate(gate)
    _check_qubit(state, control, "control")
    _check_qubit(state, target)
    if control == target:
        raise ConfigurationError("control and target must be distinct qubits")
    return _apply_gate(state, gate, control, target)


def probabilities(state: StateVector, qubits) -> np.ndarray:
    """Marginal outcome distribution over the listed qubits.

    The first listed qubit is the most significant bit of the outcome
    index; the result has length 2**len(qubits) and sums to the state's
    squared norm (1 for normalized states).
    """
    import numpy as np

    qubits = list(qubits)
    if not qubits:
        raise ConfigurationError("at least one qubit must be measured")
    if len(set(qubits)) != len(qubits):
        raise ConfigurationError(f"duplicate qubits in {qubits}")
    for q in qubits:
        _check_qubit(state, q, "measured")
    n = state.num_qubits
    tensor = (np.abs(state.amplitudes) ** 2).reshape([2] * n)
    axes = [n - 1 - q for q in qubits]  # tensor axis of qubit q is n-1-q
    other = tuple(a for a in range(n) if a not in axes)
    if other:
        tensor = tensor.sum(axis=other)
    order = [sorted(axes).index(a) for a in axes]
    return tensor.transpose(order).reshape(-1)
