"""Phase estimation of single-qubit axis rotations, plus readout decoding.

Register layout: counting qubits 0..n-1 (qubit j carries weight 2^j in the
measured outcome), target qubit n. The circuit applies the target
preparation, a Hadamard on every counting qubit, a controlled rotation by
2^j times the auxiliary angle from each counting qubit j, and the inverse
Fourier transform on the counting register. A QpeConfig describes one
such run: its RunSettings (register width, shots, seed), the auxiliary
rotation and the target preparation.

run_qpe is the spectral engine: with one target and controlled powers of
one rotation, the readout is the target's two squared eigen-overlaps,
each spread by the textbook QPE kernel (readout_kernel; Cleve, Ekert,
Macchiavello & Mosca 1998; Nielsen & Chuang sec. 5.2), so it costs O(2^n)
and never forms the (n+1)-qubit state. run_circuit is the reference
engine: it simulates that circuit gate by gate on the full statevector.

Bin map: with R(a)|-> = exp(+i a/2)|->, the estimated phase of the |-axis>
eigencomponent is a/(4 pi) mod 1, so it lands in bin
m_minus = round(2^n a / (4 pi)) mod 2^n and the |+axis> component in the
mirror bin 2^n - m_minus mod 2^n. The auxiliary angle only selects these
readout locations; the decoded masses equal the squared overlaps of the
prepared target state with the axis eigenvectors.
"""

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import ConfigurationError
from .gates import Axis, RotationSpec, axis_eigenvectors, hadamard, rotation_power
from .iqft import build_iqft, apply_iqft
from .statevector import (
    Histogram,
    apply_controlled,
    apply_single,
    exact_histogram,
    histogram_from_probabilities,
    new_state,
    require_gate,
    sample,
    sample_probabilities,
)

MAX_COUNTING_QUBITS = 16

#: numpy draws a sample's shot count as a signed 64-bit integer
MAX_SHOTS = 2**63 - 1

#: decode window half-width used when the configuration is not dyadic-exact
LEAKY_WINDOW = 2

#: decoded windows covering less total mass than this raise a leakage warning
COVERAGE_THRESHOLD = 0.98

_DYADIC_ATOL = 1e-9


def _is_int(value) -> bool:
    """An integral number other than a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunSettings:
    """The register width and sampling settings of a run.

    The run is exact when shots is None and sampled otherwise. A sampled
    run needs integral shots in [1, MAX_SHOTS] and an integral seed >= 0,
    so it is reproducible; an exact run drops its seed (seed becomes
    None). A bool counts as no integer. Every setting is checked here, at
    construction, and a bad one raises ConfigurationError.
    """

    counting_qubits: int = 10
    shots: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (_is_int(self.counting_qubits)
                and 1 <= self.counting_qubits <= MAX_COUNTING_QUBITS):
            raise ConfigurationError(
                f"counting_qubits must be an integer in [1, {MAX_COUNTING_QUBITS}], "
                f"got {self.counting_qubits!r}"
            )
        if self.shots is None:
            object.__setattr__(self, "seed", None)
        elif not (_is_int(self.shots) and 1 <= self.shots <= MAX_SHOTS):
            raise ConfigurationError(
                f"sampled mode needs integral shots in [1, {MAX_SHOTS}], got {self.shots!r}"
            )
        elif not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigurationError(
                f"sampled mode needs an integral seed >= 0, got {self.seed!r}"
            )

    @property
    def mode(self) -> str:
        return "exact" if self.shots is None else "sampled"


@dataclass(frozen=True, eq=False)
class QpeConfig:
    """One phase-estimation run: its settings, the auxiliary rotation and
    the target preparation.

    target_prep is the gate sequence applied to the target qubit starting
    from |0>, first element first. Each gate is checked once, here, to be
    a finite unitary 2x2 and stored as a read-only complex128 copy, so
    changing the caller's array later changes no run. A bad field raises
    ConfigurationError (a bad gate, ValueError) at construction, and the
    config is frozen.
    """

    run: RunSettings = RunSettings()
    aux: RotationSpec = RotationSpec(Axis.Y, math.pi / 4)
    target_prep: tuple = ()

    def __post_init__(self) -> None:
        if not isinstance(self.run, RunSettings):
            raise ConfigurationError(f"run must be a RunSettings, got {self.run!r}")
        if not isinstance(self.aux, RotationSpec):
            raise ConfigurationError(f"aux must be a RotationSpec, got {self.aux!r}")
        if not math.isfinite((1 << self.run.counting_qubits) * self.aux.angle):
            raise ConfigurationError(
                f"auxiliary angle {self.aux.angle!r} overflows its controlled powers"
            )
        object.__setattr__(self, "target_prep", tuple(map(_frozen_gate, self.target_prep)))


def _frozen_gate(gate) -> np.ndarray:
    """A read-only complex128 copy of a checked 2x2 unitary."""
    gate = require_gate(gate).copy()
    gate.flags.writeable = False
    return gate


@dataclass(frozen=True)
class ExpectedBins:
    m_plus: int
    m_minus: int
    dyadic_exact: bool


@dataclass
class DecodeResult:
    m_plus: int
    m_minus: int
    dyadic_exact: bool
    window: int
    p_plus: float
    p_minus: float
    coverage: float
    warnings: list = field(default_factory=list)


def expected_bins(config: QpeConfig) -> ExpectedBins:
    """Readout bins for the two auxiliary-rotation eigencomponents.

    Also reports whether 2^n * a / (4 pi) is an integer ("dyadic-exact"),
    i.e. whether the run is free of spectral leakage.
    """
    n, a = config.run.counting_qubits, config.aux.angle
    size = 1 << n
    x = size * a / (4.0 * math.pi)
    if math.ulp(x) > _DYADIC_ATOL:
        # x has lost the fraction that places the bin; reduce a/2 exactly,
        # as readout_kernel reduces its phases
        x = math.ldexp(math.atan2(math.sin(a / 2), math.cos(a / 2)) / math.pi, n - 1)
    m_minus = round(x) % size
    m_plus = (size - m_minus) % size
    dyadic = math.isclose(x, round(x), rel_tol=0.0, abs_tol=_DYADIC_ATOL)
    return ExpectedBins(m_plus=m_plus, m_minus=m_minus, dyadic_exact=dyadic)


def readout_kernel(n: int, angle: float) -> np.ndarray:
    """Counting-register distribution of the |-axis> eigencomponent of an
    `angle` rotation, K(m) for m in [0, 2^n).

    Summing the register's geometric series bit by bit gives
    K(m) = prod_l cos^2(phi_l - pi m / 2^(n-l)) over l = 0..n-1, with
    phi_l = 2^(l-2) angle reduced into (-pi, pi]; the |+axis> component
    reads K(-m mod 2^n). Factor l depends only on m mod 2^(n-l), so K is
    grown from the top bit down, one broadcast product per bit, with
    about 2 * 2^n cosines.
    """
    ramp = np.arange(1 << n, dtype=np.float64)
    kernel = np.ones(1)
    for l in range(n - 1, -1, -1):
        c = math.ldexp(angle, l - 2)
        span = 1 << (n - l)
        factor = ramp[:span] * (-math.pi / span)
        factor += math.atan2(math.sin(c), math.cos(c))
        np.cos(factor, out=factor)
        factor *= factor
        kernel = (factor.reshape(2, -1) * kernel).reshape(-1)
    return kernel


def _target_overlaps(config: QpeConfig) -> tuple[float, float]:
    """(|<+axis|t>|^2, |<-axis|t>|^2) for the target t = prep applied to |0>."""
    t0, t1 = 1.0 + 0j, 0j
    for gate in config.target_prep:
        (g00, g01), (g10, g11) = gate.tolist()
        t0, t1 = g00 * t0 + g01 * t1, g10 * t0 + g11 * t1
    bras = (v.conj().tolist() for v in axis_eigenvectors(config.aux.axis))
    return tuple(abs(b0 * t0 + b1 * t1) ** 2 for b0, b1 in bras)


def run_qpe(config: QpeConfig) -> Histogram:
    """The counting-register readout (exact probabilities or a seeded
    sample) of the estimation circuit, computed in O(2^n) from the
    target's two eigen-overlaps and readout_kernel:
    P(m) = w_minus K(m) + w_plus K(-m mod 2^n).
    """
    w_plus, w_minus = _target_overlaps(config)
    kernel = readout_kernel(config.run.counting_qubits, config.aux.angle)
    probs = w_minus * kernel
    # K(-m mod 2^n) is kernel[0] at m = 0 and kernel[2^n - m] after it
    probs[0] += w_plus * kernel[0]
    probs[1:] += w_plus * kernel[:0:-1]
    if config.run.shots is None:
        return histogram_from_probabilities(probs)
    return sample_probabilities(probs, config.run.shots, config.run.seed)


def run_circuit(config: QpeConfig) -> Histogram:
    """Reference engine: simulate the estimation circuit gate by gate on
    the full n+1 qubit register and read out the counting register."""
    n = config.run.counting_qubits
    target = n
    state = new_state(n + 1)
    for gate in config.target_prep:
        state = apply_single(state, gate, target)
    h = hadamard()
    for q in range(n):
        state = apply_single(state, h, q)
    for j in range(n):
        state = apply_controlled(state, rotation_power(config.aux, 1 << j), j, target)
    counting = tuple(range(n - 1, -1, -1))  # MSB first
    state = apply_iqft(state, build_iqft(counting))
    if config.run.shots is None:
        return exact_histogram(state, counting)
    return sample(state, counting, config.run.shots, config.run.seed)


def _window_mass(hist: Histogram, window: set) -> float:
    """The window's probabilities added left to right in set iteration
    order. Records pin the decoded masses to the last bit, and adding in
    ascending order, or compensated as `math.fsum` and the float `sum()`
    of Python 3.12+ do, can change it."""
    total = 0.0
    for probability in hist.probabilities(list(window)):
        total += probability
    return total


def decode(hist: Histogram, config: QpeConfig) -> DecodeResult:
    """Total mass around the two expected bins.

    Each window reaches `window` bins to either side of its bin, cyclic:
    0 for dyadic-exact configurations and LEAKY_WINDOW otherwise. The two
    windows must not overlap. Coverage below COVERAGE_THRESHOLD is reported
    as a leakage warning, not an error.
    """
    if hist.num_bits != config.run.counting_qubits:
        raise ConfigurationError(
            f"histogram has {hist.num_bits} bits but the configuration "
            f"counts {config.run.counting_qubits}"
        )
    bins = expected_bins(config)
    window = 0 if bins.dyadic_exact else LEAKY_WINDOW
    size = 1 << hist.num_bits
    window_plus = {(bins.m_plus + d) % size for d in range(-window, window + 1)}
    window_minus = {(bins.m_minus + d) % size for d in range(-window, window + 1)}
    if window_plus & window_minus:
        raise ConfigurationError(
            f"decode windows around bins {bins.m_plus} and {bins.m_minus} "
            f"overlap (window={window}); the two eigencomponents are not "
            "separable in this configuration"
        )
    p_plus = _window_mass(hist, window_plus)
    p_minus = _window_mass(hist, window_minus)
    coverage = p_plus + p_minus
    notes = []
    if coverage < COVERAGE_THRESHOLD:
        notes.append(
            f"leakage: decoded windows cover {coverage:.6f} "
            f"< threshold {COVERAGE_THRESHOLD}"
        )
    return DecodeResult(
        m_plus=bins.m_plus,
        m_minus=bins.m_minus,
        dyadic_exact=bins.dyadic_exact,
        window=window,
        p_plus=p_plus,
        p_minus=p_minus,
        coverage=coverage,
        warnings=notes,
    )


def format_binary(outcome: int, num_bits: int) -> str:
    """Binary-fraction form "0.b1b2...bn" with b1 the most significant bit."""
    if not 0 <= outcome < (1 << num_bits):
        raise ValueError(f"outcome {outcome} out of range for {num_bits} bits")
    return "0." + format(outcome, f"0{num_bits}b")
