"""Phase estimation of single-qubit axis rotations, its readouts and their
decoding.

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
Macchiavello & Mosca 1998; Nielsen & Chuang sec. 5.2), so it never forms
the (n+1)-qubit state. K depends only on the width and the angle, so a
process builds the full kernel once per (width, angle) and keeps the last
two it built, read-only, for the runs that repeat them. An exact run's
bins, their decode windows and K at every window outcome are one cached
window readout per (width, angle), the last two kept as well, which
computes those K in pure Python at n cosines per outcome, not about
2 * 2^n: an exact run at a dyadic angle, whose readout fills two bins
and is dust elsewhere, builds its histogram from it, and decode_exact
reads any exact run there. run_circuit is the reference engine: it
simulates that circuit gate by gate on the full statevector, and only it
and its two readouts use spinqpe.statevector and spinqpe.iqft.

numpy is imported inside the functions that build or read an array (a
readout kernel, a draw, the reference engine, a Histogram's checks of
an array), never at import: a configuration, its bins and windows,
the window readout and decode_exact need none, and neither does an
exact run at a dyadic angle, its Histogram or its decode.

Only this module reads a readout into a DecodeResult: decode reads a
Histogram, and decode_exact an exact run at its decode windows alone.
Both take the window masses in one step, which refuses overlapping
windows, so a sweep decodes bit for bit as a pipeline does.

A Histogram holds only its support, as Python sequences: the ascending
outcomes whose probability is above the dust floor, or that were drawn
at least once, and the value of each; every other outcome reads 0. Two
builders read one out of a full outcome probability vector:
histogram_from_probabilities the exact histogram and
sample_probabilities the seeded draw; exact_histogram and sample apply
them to a state's marginal. run_qpe builds the exact histogram of a
dyadic angle straight from its two bins, in Python floats, and reads
every other run out of the full vector its kernel gives.
Sampling uses numpy's default_rng, i.e. the PCG64 generator. The
generator identity is part of the reproducibility contract: the same
(probabilities, shots, seed) always yields the same histogram.

Bin map: with R(a)|-> = exp(+i a/2)|->, the estimated phase of the |-axis>
eigencomponent is a/(4 pi) mod 1, so it lands in bin
m_minus = round(2^n a / (4 pi)) mod 2^n and the |+axis> component in the
mirror bin 2^n - m_minus mod 2^n. The auxiliary angle only selects these
readout locations; the decoded masses equal the squared overlaps of the
prepared target state with the axis eigenvectors.
"""

from __future__ import annotations

import functools
import math
from numbers import Integral

from .errors import ConfigurationError
from .gates import (Axis, FrozenValue, RotationSpec, axis_eigenvectors, hadamard, require_gate,
                    rotation_power)
from .iqft import build_iqft, apply_iqft
from .statevector import StateVector, apply_controlled, apply_single, new_state, probabilities

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

MAX_COUNTING_QUBITS = 16

#: numpy draws a sample's shot count as a signed 64-bit integer
MAX_SHOTS = 2**63 - 1

#: decode window half-width used when the configuration is not dyadic-exact
LEAKY_WINDOW = 2

#: decoded windows covering less total mass than this raise a leakage warning
COVERAGE_THRESHOLD = 0.98

_DYADIC_ATOL = 1e-9

# exact-mode histogram entries at or below this are numerical dust
PROBABILITY_FLOOR = 1e-15


def is_integer(value) -> bool:
    """An integral number other than a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


#: the widest register a Histogram holds: every outcome fits an int64
MAX_HISTOGRAM_BITS = 63

#: the input types a Histogram checks in Python; any other goes through numpy
_SEQUENCES = (tuple, list, range)


class Histogram(FrozenValue):
    """Readout over a measured register of `num_bits` qubits, held as its
    support: the outcomes with a nonzero value, and the value of each.

    `outcomes` is a nonempty tuple of strictly ascending ints in
    [0, 2**num_bits), or range(2**num_bits) when it holds every outcome,
    and `weights` a tuple of the value at each; every other outcome reads
    0. `total_shots` is an integer >= 0. In exact mode (total_shots == 0)
    the weights are the outcome probabilities as floats, and seed is None;
    the readouts hold none at or below PROBABILITY_FLOOR. In sampled mode
    they are the int counts of `total_shots` draws made with `seed`, an
    integer >= 0 that reproduces them. A bool counts as no integer.

    Every rule is checked at construction. Outcomes and weights given as
    tuples, lists or a range of Python ints and floats are checked in
    Python; any other input, such as an array, goes through numpy's
    vectorised checks and is then held as Python numbers. A support that
    breaks a rule is refused by the numpy checks, so a sequence and an
    array get the same message. A histogram is frozen, and its sequences
    are immutable copies, so changing the caller's lists or arrays later
    changes no histogram.
    """

    __slots__ = ("num_bits", "outcomes", "weights", "total_shots", "seed")
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, num_bits: int, outcomes, weights,
                 total_shots: int = 0, seed: int | None = None) -> None:
        self._set(num_bits, outcomes, weights, total_shots, seed)
        if not (is_integer(self.num_bits) and 0 <= self.num_bits <= MAX_HISTOGRAM_BITS):
            raise ValueError(
                f"num_bits must be an integer in [0, {MAX_HISTOGRAM_BITS}], "
                f"got {self.num_bits!r}"
            )
        if not (type(outcomes) in _SEQUENCES and type(weights) in _SEQUENCES
                and self._holds_rules()):
            outcomes, weights = self._checked_arrays()
        full = len(outcomes) == 1 << self.num_bits  # strictly ascending: every outcome
        object.__setattr__(self, "outcomes", range(len(outcomes)) if full else tuple(outcomes))
        object.__setattr__(self, "weights", tuple(weights))

    def _holds_rules(self) -> bool:
        """Whether outcomes and weights, both Python sequences, keep every
        rule as Python ints and floats (counts as ints): the rules
        _checked_arrays checks, with the sum of probabilities taken by
        math.fsum."""
        outcomes, weights, shots, seed = self.outcomes, self.weights, self.total_shots, self.seed
        kind = int if shots else float
        return (0 < len(outcomes) == len(weights)
                and all(type(m) is int for m in outcomes)
                and 0 <= outcomes[0] and outcomes[-1] < 1 << self.num_bits
                and all(a < b for a, b in zip(outcomes, outcomes[1:]))
                and all(type(w) is kind and w > 0 for w in weights)
                and is_integer(shots) and shots >= 0
                and (sum(weights) == shots and is_integer(seed) and seed >= 0 if shots
                     else seed is None and abs(math.fsum(weights) - 1.0) <= 1e-10))

    def _checked_arrays(self) -> tuple:
        """(outcomes, weights) as lists of Python numbers, outcomes as a
        range when they are every outcome, once numpy's array forms of the
        two pass every rule; ValueError names the first rule broken."""
        import numpy as np

        outcomes, weights = np.array(self.outcomes), np.array(self.weights)
        if outcomes.ndim != 1 or outcomes.shape != weights.shape or outcomes.size == 0:
            raise ValueError(
                f"expected two equal nonempty 1-d arrays of outcomes and weights, "
                f"got shapes {outcomes.shape} and {weights.shape}"
            )
        if outcomes.dtype.kind not in "iu":  # numpy's integer kinds; a bool is "b"
            raise ValueError(f"outcomes must be integers, got dtype {outcomes.dtype}")
        if not (0 <= outcomes[0].item() and outcomes[-1].item() < 1 << self.num_bits):
            raise ValueError(f"an outcome is outside [0, 2**{self.num_bits})")
        if not (outcomes[1:] > outcomes[:-1]).all():
            raise ValueError("outcomes must be strictly ascending")
        if not weights.min() > 0:  # a NaN fails as well
            raise ValueError("a histogram weight is not positive")
        if not (is_integer(self.total_shots) and self.total_shots >= 0):
            raise ValueError(
                f"total_shots must be an integer >= 0, got {self.total_shots!r}"
            )
        if self.total_shots:
            if weights.dtype.kind not in "iu":
                raise ValueError(
                    f"sampled counts must be integers, got dtype {weights.dtype}"
                )
            total = sum(weights.tolist())  # Python ints: an int64 sum could wrap
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
        elif weights.dtype.kind != "f":
            raise ValueError(
                f"exact-mode probabilities must be floats, got dtype {weights.dtype}"
            )
        else:
            total = weights.sum().item()
            if not abs(total - 1.0) <= 1e-10:
                raise ValueError(
                    f"exact-mode probabilities sum to {total!r}, expected 1 within 1e-10"
                )
        size = outcomes.size
        return (range(size) if size == 1 << self.num_bits else outcomes.tolist()), weights.tolist()

    @property
    def is_sampled(self) -> bool:
        return self.total_shots > 0

    def probabilities(self, outcomes) -> list:
        """The probability of each listed outcome, as Python floats, 0.0
        for an outcome the histogram does not hold; a sampled one is
        count / total_shots, rounded once from the exact integer ratio."""
        import bisect  # here, not at import: a cold sweep reads no histogram

        held, weights = self.outcomes, self.weights
        picked = []
        for m in outcomes:  # a binary search each: a decode window lists a few
            i = bisect.bisect_left(held, m)
            picked.append(weights[i] if i < len(held) and held[i] == m else 0.0)
        if self.is_sampled:
            return [count / self.total_shots for count in picked]
        return picked


class RunSettings(FrozenValue):
    """The register width and sampling settings of a run.

    The run is exact when shots is None and sampled otherwise. A sampled
    run needs integral shots in [1, MAX_SHOTS] and an integral seed >= 0,
    so it is reproducible; an exact run drops its seed (seed becomes
    None). A bool counts as no integer. Every setting is checked here, at
    construction, and a bad one raises ConfigurationError.
    """

    __slots__ = ("counting_qubits", "shots", "seed")

    def __init__(self, counting_qubits: int = 10, shots: int | None = None,
                 seed: int | None = None) -> None:
        self._set(counting_qubits, shots, seed)
        if not (is_integer(self.counting_qubits)
                and 1 <= self.counting_qubits <= MAX_COUNTING_QUBITS):
            raise ConfigurationError(
                f"counting_qubits must be an integer in [1, {MAX_COUNTING_QUBITS}], "
                f"got {self.counting_qubits!r}"
            )
        if self.shots is None:
            object.__setattr__(self, "seed", None)
        elif not (is_integer(self.shots) and 1 <= self.shots <= MAX_SHOTS):
            raise ConfigurationError(
                f"sampled mode needs integral shots in [1, {MAX_SHOTS}], got {self.shots!r}"
            )
        elif not (is_integer(self.seed) and self.seed >= 0):
            raise ConfigurationError(
                f"sampled mode needs an integral seed >= 0, got {self.seed!r}"
            )

    @property
    def mode(self) -> str:
        return "exact" if self.shots is None else "sampled"


class QpeConfig(FrozenValue):
    """One phase-estimation run: its settings, the auxiliary rotation and
    the target preparation.

    target_prep is the gate sequence applied to the target qubit starting
    from |0>, first element first. Each gate is checked once, here, to be
    a finite unitary 2x2 and stored as the Gate tuple require_gate makes
    of it, so changing the caller's array later changes no run. A bad
    field raises ConfigurationError (a bad gate, ValueError) at
    construction, and the config is frozen.
    """

    __slots__ = ("run", "aux", "target_prep")
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, run: RunSettings = RunSettings(),
                 aux: RotationSpec = RotationSpec(Axis.Y, math.pi / 4),
                 target_prep: tuple = ()) -> None:
        self._set(run, aux, target_prep)
        if not isinstance(self.run, RunSettings):
            raise ConfigurationError(f"run must be a RunSettings, got {self.run!r}")
        if not isinstance(self.aux, RotationSpec):
            raise ConfigurationError(f"aux must be a RotationSpec, got {self.aux!r}")
        if not math.isfinite((1 << self.run.counting_qubits) * self.aux.angle):
            raise ConfigurationError(
                f"auxiliary angle {self.aux.angle!r} overflows its controlled powers"
            )
        object.__setattr__(self, "target_prep", tuple(map(require_gate, self.target_prep)))


class ExpectedBins(FrozenValue):
    """Where a run's two eigencomponents read out: bins m_plus and m_minus
    of a num_bits register, and whether they land exactly (dyadic_exact)."""

    __slots__ = ("num_bits", "m_plus", "m_minus", "dyadic_exact")

    def __init__(self, num_bits: int, m_plus: int, m_minus: int, dyadic_exact: bool) -> None:
        self._set(num_bits, m_plus, m_minus, dyadic_exact)

    @property
    def window(self) -> int:
        """Bins a decode window reaches to either side of its bin: 0 when
        dyadic-exact, LEAKY_WINDOW otherwise."""
        return 0 if self.dyadic_exact else LEAKY_WINDOW

    def windows(self) -> tuple[set, set]:
        """The decode windows around m_plus and m_minus: each reaches
        `window` bins to either side of its bin, cyclic. They may overlap;
        _decode_windows refuses two that do."""
        size, window = 1 << self.num_bits, self.window
        plus = {(self.m_plus + d) % size for d in range(-window, window + 1)}
        minus = {(self.m_minus + d) % size for d in range(-window, window + 1)}
        return plus, minus


class DecodeResult(ExpectedBins):
    """The bins of a readout and the mass decode measured in each window."""

    __slots__ = ("p_plus", "p_minus", "warnings")

    def __init__(self, num_bits: int, m_plus: int, m_minus: int, dyadic_exact: bool,
                 p_plus: float, p_minus: float, warnings: tuple = ()) -> None:
        self._set(num_bits, m_plus, m_minus, dyadic_exact, p_plus, p_minus, tuple(warnings))

    @property
    def coverage(self) -> float:
        return self.p_plus + self.p_minus


def expected_bins(config: QpeConfig) -> ExpectedBins:
    """Readout bins for the two auxiliary-rotation eigencomponents.

    Also reports whether x = 2^n * a / (4 pi) is an integer within
    1e-9 ("dyadic-exact"), i.e. whether the run is free of spectral
    leakage. x is taken from a/2 reduced into (-pi, pi], as readout_kernel
    reduces its phases, so it keeps its fraction at any angle.
    """
    n, a = config.run.counting_qubits, config.aux.angle
    size = 1 << n
    x = math.ldexp(math.atan2(math.sin(a / 2), math.cos(a / 2)) / math.pi, n - 1)
    m_minus = round(x) % size
    m_plus = (size - m_minus) % size
    dyadic = math.isclose(x, round(x), rel_tol=0.0, abs_tol=_DYADIC_ATOL)
    return ExpectedBins(n, m_plus, m_minus, dyadic)


@functools.lru_cache(maxsize=2)
def readout_kernel(n: int, angle: float) -> np.ndarray:
    """Counting-register distribution of the |-axis> eigencomponent of an
    `angle` rotation: K(m) for every outcome m in [0, 2^n), read-only.

    Summing the register's geometric series bit by bit gives
    K(m) = prod_l cos^2(phi_l - pi m / 2^(n-l)) over l = 0..n-1, with
    phi_l = 2^(l-2) angle reduced into (-pi, pi]; the |+axis> component
    reads K(-m mod 2^n). Factor l depends only on m mod 2^(n-l), so K is
    grown from the top bit down over the residues r of the span 2^(n-l):
    each bit's factor array takes the kernel so far into both of its
    halves in place (residues r and r + span/2) and becomes the kernel.

    K depends only on n and the angle, not on the axis, the target or the
    run's mode, so one kernel serves every run of that width and angle: a
    process builds it once and keeps the last two, the most one request
    needs (a pipeline's two angles). An unbounded cache would keep one
    kernel per angle ever asked for. -0.0 and 0.0 are one key; their
    kernels are bit for bit the same, as cos^2 is even. A kernel is
    read-only, so no run can change a shared one. _window_readout makes
    the same values at the decode windows alone, in pure Python.
    """
    import numpy as np

    ramp = np.arange(1 << n, dtype=np.float64)
    kernel = np.ones(1)
    for l in range(n - 1, -1, -1):
        c = math.ldexp(angle, l - 2)
        span = 1 << (n - l)
        factor = ramp[:span] * (-math.pi / span)
        factor += math.atan2(math.sin(c), math.cos(c))
        np.cos(factor, out=factor)
        factor *= factor
        halves = factor.reshape(2, -1)
        halves *= kernel
        kernel = factor
    kernel.flags.writeable = False
    return kernel


@functools.lru_cache(maxsize=2)
def _window_readout(n: int, angle: float) -> tuple:
    """(bins, windows, triples) of an exact n-bit readout at `angle`: its
    expected_bins, their windows(), and (m, K(m), K(-m mod 2^n)) at every
    outcome m of the two windows, ascending. At a dyadic angle the windows
    are the two bins, where all but dust of the readout lies. Cached, as
    readout_kernel is, for the last two (n, angle).

    Each K is made by readout_kernel's float operations in its order, with
    math.cos for np.cos, so it equals that kernel's value, bit for bit,
    wherever the two cosines agree: n cosines per window outcome, where
    readout_kernel costs about 2^(n+1). The windows are each other's
    mirrors (m_plus = -m_minus mod 2^n, each window symmetric about its
    bin), so K(-m) is read from the same pass.
    """
    bins = expected_bins(QpeConfig(RunSettings(n), RotationSpec(Axis.Y, angle)))
    windows = bins.windows()
    levels = []  # (span, phase step, reduced phase) from the top bit down
    for l in range(n - 1, -1, -1):
        c = math.ldexp(angle, l - 2)
        span = 1 << (n - l)
        levels.append((span, -math.pi / span, math.atan2(math.sin(c), math.cos(c))))
    kernel = {}
    for m in windows[0] | windows[1]:
        k = 1.0
        for span, step, phi in levels:
            factor = math.cos(float(m % span) * step + phi)
            k = factor * factor * k
        kernel[m] = k
    return bins, windows, tuple((m, kernel[m], kernel[-m % (1 << n)]) for m in sorted(kernel))


#: axis -> (<+axis|, <-axis|), each the conjugate amplitudes of its eigenvector
_BRAS = {axis: tuple((b0.conjugate(), b1.conjugate()) for b0, b1 in axis_eigenvectors(axis))
         for axis in Axis}


def _target_overlaps(config: QpeConfig) -> tuple[float, float]:
    """(|<+axis|t>|^2, |<-axis|t>|^2) for the target t = prep applied to |0>."""
    t0, t1 = 1.0 + 0j, 0j
    for (g00, g01), (g10, g11) in config.target_prep:
        t0, t1 = g00 * t0 + g01 * t1, g10 * t0 + g11 * t1
    (p0, p1), (m0, m1) = _BRAS[config.aux.axis]
    return abs(p0 * t0 + p1 * t1) ** 2, abs(m0 * t0 + m1 * t1) ** 2


def _width(probs: np.ndarray) -> int:
    """The register width k of a length-2**k outcome vector."""
    size = probs.size
    if probs.ndim != 1 or size == 0 or size & (size - 1):
        raise ValueError(
            f"expected one value per outcome of a 2**k register, got shape {probs.shape}"
        )
    return size.bit_length() - 1


def _held(values: np.ndarray, floor) -> tuple:
    """(outcomes, weights): the entries of `values` not at or below
    `floor` and their indices. A NaN is held, so the Histogram refuses it."""
    import numpy as np

    kept = np.flatnonzero(~(values <= floor))
    return kept, values[kept]


def histogram_from_probabilities(probs: np.ndarray) -> Histogram:
    """Exact-mode histogram of a length-2**k outcome distribution;
    probabilities at or below PROBABILITY_FLOOR are not held."""
    return Histogram(_width(probs), *_held(probs, PROBABILITY_FLOOR))


def sample_probabilities(probs: np.ndarray, shots: int, seed: int) -> Histogram:
    """Draw `shots` outcomes multinomially from a length-2**k distribution.

    The draw is a single multinomial over the whole vector from numpy's
    default_rng (PCG64) seeded with `seed`; identical inputs give
    identical histograms, which hold the outcomes drawn at least once.
    Kept single-threaded so the draw sequence stays deterministic.
    """
    import numpy as np

    n = _width(probs)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = probs / probs.sum()  # remove float drift before drawing
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    return Histogram(n, *_held(counts, 0), total_shots=shots, seed=seed)


def _exact_readout(config: QpeConfig, triples) -> tuple[list, list]:
    """(outcomes, probabilities) the exact run `config` holds, from a list
    of (m, K(m), K(-m mod 2^n)): P(m) = w_minus K(m) + w_plus K(-m), held
    unless at or below PROBABILITY_FLOOR; as _held, a NaN is held."""
    w_plus, w_minus = _target_overlaps(config)
    outcomes, weights = [], []
    for m, k, k_mirror in triples:
        p = w_minus * k + w_plus * k_mirror
        if not p <= PROBABILITY_FLOOR:
            outcomes.append(m)
            weights.append(p)
    return outcomes, weights


def run_qpe(config: QpeConfig) -> Histogram:
    """The counting-register readout (exact probabilities or a seeded
    sample) of the estimation circuit, from the target's two eigen-overlaps
    and the readout kernel: P(m) = w_minus K(m) + w_plus K(-m mod 2^n).

    An exact run reads its bins from the cached _window_readout. At a
    dyadic angle it builds its Histogram from the K there, its two bins
    (one where they meet), since P is dust at or below PROBABILITY_FLOOR
    at every other outcome, in Python floats with the arrays' two
    products and one sum in their order: the same bits, and no numpy.
    Every other run reads the full cached readout_kernel, which it only
    reads: an exact one holds the outcomes above the floor, and a sampled
    one, which never reads _window_readout, draws from the full vector,
    as the seed contract requires. The angle is keyed as the float the
    kernel reads, so an angle that is no hashable float (a 0-d array,
    say) still runs.
    """
    n, angle = config.run.counting_qubits, float(config.aux.angle)
    if config.run.shots is None:
        bins, _, triples = _window_readout(n, angle)
        if bins.dyadic_exact:
            return Histogram(n, *_exact_readout(config, triples))
    kernel = readout_kernel(n, angle)
    w_plus, w_minus = _target_overlaps(config)
    probs = w_minus * kernel
    probs[0] += w_plus * kernel[0]  # K(-m mod 2^n): 0 is its own mirror,
    probs[1:] += w_plus * kernel[:0:-1]  # and m > 0 mirrors to 2^n - m
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


def exact_histogram(state: StateVector, qubits) -> Histogram:
    """histogram_from_probabilities of the marginal over `qubits`."""
    return histogram_from_probabilities(probabilities(state, qubits))


def sample(state: StateVector, qubits, shots: int, seed: int) -> Histogram:
    """sample_probabilities of the marginal over `qubits`."""
    return sample_probabilities(probabilities(state, qubits), shots, seed)


def window_mass(values) -> float:
    """A window's probabilities `values`, listed in the iteration order of
    its set (ExpectedBins.windows), added left to right, at most 1.
    Records pin the decoded masses to the last bit, and adding in
    ascending order, or compensated as `math.fsum` and the float `sum()`
    of Python 3.12+ do, can change it. A sampled window that holds every
    shot adds count/shots ratios that are each rounded, so their sum can
    round above 1; the window's exact mass is then 1."""
    total = 0.0
    for probability in values:
        total += probability
    return min(total, 1.0)


def decode(hist: Histogram, config: QpeConfig) -> DecodeResult:
    """Total mass around the two expected bins: _decode_windows reads the
    histogram in the bins' `windows()`, and refuses two that overlap."""
    if hist.num_bits != config.run.counting_qubits:
        raise ConfigurationError(
            f"histogram has {hist.num_bits} bits but the configuration "
            f"counts {config.run.counting_qubits}"
        )
    bins = expected_bins(config)
    return _decode_windows(bins, bins.windows(), hist.probabilities)


def _decode_windows(bins: ExpectedBins, windows: tuple, read) -> DecodeResult:
    """The DecodeResult of a readout with these bins and their two windows,
    read(outcomes) listing its probability at each outcome of a window:
    each mass is window_mass in the set's order, and coverage below
    COVERAGE_THRESHOLD is a leakage warning, not an error. Two windows
    that overlap raise ConfigurationError before anything is read."""
    if windows[0] & windows[1]:
        raise ConfigurationError(
            f"decode windows around bins {bins.m_plus} and {bins.m_minus} "
            f"overlap (window={bins.window}); the two eigencomponents are not "
            "separable in this configuration"
        )
    p_plus, p_minus = window_mass(read(windows[0])), window_mass(read(windows[1]))
    coverage = p_plus + p_minus
    warnings = (f"leakage: decoded windows cover {coverage:.6f} < threshold "
                f"{COVERAGE_THRESHOLD}",) if coverage < COVERAGE_THRESHOLD else ()
    return DecodeResult(bins.num_bits, bins.m_plus, bins.m_minus, bins.dyadic_exact,
                        p_plus, p_minus, warnings)


def decode_exact(config: QpeConfig) -> DecodeResult:
    """decode(run_qpe(config), config) for an exact config, bit for bit,
    on either axis: _exact_readout reads the run at the decode windows
    alone, from _window_readout's K there, with no Histogram, kernel or
    numpy."""
    bins, windows, triples = _window_readout(config.run.counting_qubits,
                                             float(config.aux.angle))
    readout = dict(zip(*_exact_readout(config, triples)))
    return _decode_windows(bins, windows, lambda window: [readout.get(m, 0.0) for m in window])


def format_binary(outcome: int, num_bits: int) -> str:
    """Binary-fraction form "0.b1b2...bn" with b1 the most significant bit."""
    if not 0 <= outcome < (1 << num_bits):
        raise ValueError(f"outcome {outcome} out of range for {num_bits} bits")
    return "0." + format(outcome, f"0{num_bits}b")
