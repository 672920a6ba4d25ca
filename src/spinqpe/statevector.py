"""Dense statevector simulation for small qubit registers, and the
histogram readouts of an outcome distribution.

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

Readouts start from an outcome probability vector, whichever engine made
it: histogram_from_probabilities builds the exact histogram and
sample_probabilities the seeded draw; exact_histogram and sample apply
them to a state's marginal. A Histogram holds one array: that length-2**k
vector with its dust set to 0, or the drawn counts. Sampling uses numpy's
default_rng, i.e. the PCG64 generator. The generator identity is part of
the reproducibility contract: the same (probabilities, shots, seed)
always yields the same histogram.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ConfigurationError

MAX_QUBITS = 24

# 2x2 gates must satisfy U+ U = I to this tolerance before being applied
UNITARY_ATOL = 1e-12

# exact-mode histogram entries at or below this are numerical dust
PROBABILITY_FLOOR = 1e-15


def is_integer(value) -> bool:
    """An integral number other than a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass
class StateVector:
    """Amplitudes of an n-qubit register (length 2**num_qubits, complex128)."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
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
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class Histogram:
    """Readout over a measured qubit subset, one value per outcome.

    `values` has length 2**num_bits. In exact mode (total_shots == 0) it
    holds the outcome probabilities as floats, with dust at or below
    PROBABILITY_FLOOR set to 0, and seed is None. In sampled mode it holds
    the int64 counts of `total_shots` draws made with `seed`, an integer
    >= 0 that reproduces them. A bool counts as no integer.
    """

    values: np.ndarray
    total_shots: int = 0
    seed: int | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        size = self.values.size
        if self.values.ndim != 1 or size == 0 or size & (size - 1):
            raise ValueError(
                f"expected one value per outcome of a 2**k register, "
                f"got shape {self.values.shape}"
            )
        if self.values.min() < 0:
            raise ValueError("a histogram value is negative")
        if isinstance(self.total_shots, bool):
            raise ValueError(f"total_shots must be an integer, got {self.total_shots!r}")
        total = self.values.sum().item()
        if self.total_shots:
            if not np.issubdtype(self.values.dtype, np.integer):
                raise ValueError(
                    f"sampled counts must be integers, got dtype {self.values.dtype}"
                )
            if total != self.total_shots:
                raise ValueError(
                    f"counts sum to {total}, expected total_shots={self.total_shots}"
                )
            if not (is_integer(self.seed) and self.seed >= 0):
                raise ValueError(
                    f"a sampled histogram needs an integral seed >= 0, got {self.seed!r}"
                )
        elif self.seed is not None:
            raise ValueError(f"an exact-mode histogram has no seed, got {self.seed!r}")
        elif not np.issubdtype(self.values.dtype, np.floating):
            raise ValueError(
                f"exact-mode probabilities must be floats, got dtype {self.values.dtype}"
            )
        elif not abs(total - 1.0) <= 1e-10:  # a NaN sum fails as well
            raise ValueError(
                f"exact-mode probabilities sum to {total!r}, expected 1 within 1e-10"
            )

    @property
    def num_bits(self) -> int:
        return len(self.values).bit_length() - 1

    @property
    def is_sampled(self) -> bool:
        return self.total_shots > 0

    def probabilities(self, outcomes) -> list:
        """The probability of each listed outcome, as Python floats; a
        sampled one is count / total_shots, rounded once from the exact
        integer ratio."""
        picked = self.values[outcomes].tolist()
        if self.is_sampled:
            return [count / self.total_shots for count in picked]
        return picked


def new_state(num_qubits: int) -> StateVector:
    """The all-zeros register |0...0>."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def require_gate(gate) -> np.ndarray:
    """`gate` as a complex128 2x2 array; ValueError unless it is finite and
    unitary within UNITARY_ATOL."""
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (2, 2):
        raise ValueError(f"gate must be 2x2, got shape {gate.shape}")
    if not np.all(np.isfinite(gate)):
        raise ValueError("gate contains non-finite entries")
    deviation = np.abs(gate.conj().T @ gate - np.eye(2)).max()
    if deviation > UNITARY_ATOL:
        raise ValueError(
            f"gate is not unitary within {UNITARY_ATOL} (deviation {deviation:.3e})"
        )
    return gate


def _check_qubit(state: StateVector, qubit: int, role: str = "target") -> None:
    if not 0 <= qubit < state.num_qubits:
        raise IndexError(
            f"{role} qubit {qubit} out of range for a "
            f"{state.num_qubits}-qubit register"
        )


def _apply_gate(state: StateVector, gate: np.ndarray, control: int | None,
                target: int) -> StateVector:
    """`gate` on `target`, restricted to where `control` reads 1 unless it
    is None. The target-bit halves are views into the returned copy."""
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
    b0[...], b1[...] = (gate[0, 0] * b0 + gate[0, 1] * b1,
                        gate[1, 0] * b0 + gate[1, 1] * b1)
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


def histogram_from_probabilities(probs: np.ndarray) -> Histogram:
    """Exact-mode histogram of a length-2**k outcome distribution;
    probabilities at or below PROBABILITY_FLOOR become 0."""
    return Histogram(probs * (probs > PROBABILITY_FLOOR))


def sample_probabilities(probs: np.ndarray, shots: int, seed: int) -> Histogram:
    """Draw `shots` outcomes multinomially from a length-2**k distribution.

    The draw is a single multinomial from numpy's default_rng (PCG64)
    seeded with `seed`; identical inputs give identical histograms. Kept
    single-threaded so the draw sequence stays deterministic.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = probs / probs.sum()  # remove float drift before drawing
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    return Histogram(counts, total_shots=shots, seed=seed)


def exact_histogram(state: StateVector, qubits) -> Histogram:
    """histogram_from_probabilities of the marginal over `qubits`."""
    return histogram_from_probabilities(probabilities(state, qubits))


def sample(state: StateVector, qubits, shots: int, seed: int) -> Histogram:
    """sample_probabilities of the marginal over `qubits`."""
    return sample_probabilities(probabilities(state, qubits), shots, seed)
