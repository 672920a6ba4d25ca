import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqpe import ConfigurationError, Histogram, rx, ry
from spinqpe.gates import hadamard, identity, pauli_x, phase
from spinqpe.qpe import (
    exact_histogram,
    histogram_from_probabilities,
    sample,
    sample_probabilities,
)
from spinqpe.statevector import (
    StateVector,
    apply_controlled,
    apply_single,
    new_state,
    probabilities,
)

from histograms import dense, identical, support

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def bell_state() -> StateVector:
    s = new_state(2)
    s = apply_single(s, hadamard(), 0)
    return apply_controlled(s, pauli_x(), 0, 1)


def random_state(rng, n: int) -> StateVector:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, v / np.linalg.norm(v))


class TestNewState:
    def test_one_qubit(self):
        np.testing.assert_array_equal(new_state(1).amplitudes, [1, 0])

    def test_two_qubits(self):
        s = new_state(2)
        np.testing.assert_array_equal(s.amplitudes, [1, 0, 0, 0])

    def test_eleven_qubits(self):
        s = new_state(11)
        assert s.amplitudes.shape == (2048,)
        assert s.norm() == 1.0

    @pytest.mark.parametrize("n", [0, -1, 25])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            new_state(n)

    def test_non_finite_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([np.nan, 0.0]))

    # the width is checked before the amplitudes are read
    @pytest.mark.parametrize("n, length", [(0, 1), (25, 2)])
    def test_width_out_of_range_rejected(self, n, length):
        with pytest.raises(ValueError, match="num_qubits"):
            StateVector(n, np.zeros(length))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))


class TestApplySingle:
    def test_hadamard_on_zero(self):
        s = apply_single(new_state(1), hadamard(), 0)
        np.testing.assert_allclose(s.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_rx_minus_pi_third(self):
        # oracle: the gate matrix applied to (1, 0) by hand
        expected = np.array([math.cos(math.pi / 6), 1j * math.sin(math.pi / 6)])
        s = apply_single(new_state(1), rx(-math.pi / 3), 0)
        np.testing.assert_allclose(s.amplitudes, expected, atol=1e-15)
        np.testing.assert_allclose(s.amplitudes, [0.8660254037844387, 0.5j], atol=1e-12)

    def test_identity_is_exact(self):
        rng = np.random.default_rng(5)
        s = random_state(rng, 3)
        out = apply_single(s, identity(), 1)
        np.testing.assert_array_equal(out.amplitudes, s.amplitudes)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            apply_single(new_state(2), hadamard(), 2)

    def test_non_unitary_gate_rejected(self):
        with pytest.raises(ValueError):
            apply_single(new_state(1), np.array([[1, 0], [0, 0.5]]), 0)

    def test_input_not_mutated(self):
        s = new_state(2)
        before = s.amplitudes.copy()
        apply_single(s, hadamard(), 0)
        np.testing.assert_array_equal(s.amplitudes, before)


class TestApplyControlled:
    def test_control_zero_leaves_state(self):
        s = new_state(2)  # control qubit 0 is |0>
        out = apply_controlled(s, pauli_x(), 0, 1)
        np.testing.assert_array_equal(out.amplitudes, s.amplitudes)

    def test_cnot_truth_table(self):
        s = StateVector(2, np.array([0, 0, 0, 1.0]))  # |11>
        out = apply_controlled(s, pauli_x(), 0, 1)
        np.testing.assert_array_equal(out.amplitudes, [0, 1.0, 0, 0])  # |01>

    def test_controlled_ry_entangles(self):
        # hand-computed four amplitudes for (H|0>) x |0>, control 0, target 1
        s = apply_single(new_state(2), hadamard(), 0)
        out = apply_controlled(s, ry(math.pi / 4), 0, 1)
        c8 = math.cos(math.pi / 8) * INV_SQRT2
        s8 = math.sin(math.pi / 8) * INV_SQRT2
        np.testing.assert_allclose(out.amplitudes, [INV_SQRT2, c8, 0.0, s8], atol=1e-15)
        np.testing.assert_allclose(
            probabilities(out, [1]),
            [0.5 + math.cos(math.pi / 8) ** 2 / 2, math.sin(math.pi / 8) ** 2 / 2],
            atol=1e-15,
        )

    def test_control_equals_target(self):
        with pytest.raises(ConfigurationError):
            apply_controlled(new_state(2), pauli_x(), 1, 1)

    def test_control_out_of_range(self):
        with pytest.raises(IndexError):
            apply_controlled(new_state(2), pauli_x(), 5, 0)

    def test_matches_single_when_control_is_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = 4
            base = random_state(rng, n - 1)
            control = 2
            # embed with the control qubit forced to |1>
            full = np.zeros(1 << n, dtype=complex)
            for i, a in enumerate(base.amplitudes):
                low = i & ((1 << control) - 1)
                high = i >> control
                full[(high << (control + 1)) | (1 << control) | low] = a
            state = StateVector(n, full)
            gate = ry(rng.uniform(-math.pi, math.pi))
            target = rng.choice([0, 1, 3])
            controlled = apply_controlled(state, gate, control, int(target))
            direct = apply_single(state, gate, int(target))
            np.testing.assert_allclose(
                controlled.amplitudes, direct.amplitudes, atol=1e-12
            )


def dense_operator(n: int, ops: dict) -> np.ndarray:
    """np.kron of `ops` over the register, identity on the other qubits;
    qubit n-1 is the leftmost factor since qubit q has weight 2**q."""
    return reduce(np.kron, [ops.get(q, np.eye(2)) for q in reversed(range(n))])


_ANGLE = st.floats(-2 * math.pi, 2 * math.pi)


@st.composite
def gate_cases(draw):
    n = draw(st.integers(2, 6))
    control = draw(st.integers(0, n - 1))
    target = draw(st.integers(0, n - 1).filter(lambda q: q != control))
    rx_, ry_, phase_ = rx(draw(_ANGLE)), ry(draw(_ANGLE)), phase(draw(_ANGLE))
    gate = np.array(rx_) @ np.array(ry_) @ np.array(phase_)
    state = random_state(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return n, control, target, gate, state


class TestKernelAgainstDenseOperator:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(gate_cases())
    def test_single_and_controlled_match_kron(self, case):
        n, control, target, gate, state = case
        before = state.amplitudes.copy()
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        single = dense_operator(n, {target: gate})
        controlled = (dense_operator(n, {control: p0})
                      + dense_operator(n, {control: p1, target: gate}))
        np.testing.assert_allclose(apply_single(state, gate, target).amplitudes,
                                   single @ before, rtol=0, atol=1e-12)
        np.testing.assert_allclose(apply_controlled(state, gate, control, target).amplitudes,
                                   controlled @ before, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(state.amplitudes, before)


class TestProbabilities:
    def test_ground_state(self):
        np.testing.assert_array_equal(probabilities(new_state(1), [0]), [1, 0])

    def test_bell_marginal(self):
        np.testing.assert_allclose(probabilities(bell_state(), [0]), [0.5, 0.5], atol=1e-15)

    def test_rx_marginal(self):
        s = apply_single(new_state(1), rx(-math.pi / 3), 0)
        np.testing.assert_allclose(probabilities(s, [0]), [0.75, 0.25], atol=1e-15)

    def test_first_listed_qubit_is_msb(self):
        s = apply_single(new_state(2), pauli_x(), 1)  # |10>: qubit 1 set
        np.testing.assert_allclose(probabilities(s, [1, 0]), [0, 0, 1, 0], atol=0)
        np.testing.assert_allclose(probabilities(s, [0, 1]), [0, 1, 0, 0], atol=0)

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigurationError):
            probabilities(new_state(2), [0, 0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            probabilities(new_state(2), [])

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        s = random_state(rng, 5)
        p = probabilities(s, [4, 2, 0])
        assert abs(p.sum() - 1.0) < 1e-10


class TestSample:
    def test_deterministic_state(self):
        hist = sample(new_state(1), [0], 100, seed=42)
        assert np.array_equal(dense(hist), [100, 0])
        assert hist.total_shots == 100
        assert hist.seed == 42

    def test_same_seed_same_histogram(self):
        s = apply_single(new_state(1), rx(-math.pi / 3), 0)
        a = sample(s, [0], 5000, seed=9)
        b = sample(s, [0], 5000, seed=9)
        assert identical(a, b)

    def test_different_seed_differs(self):
        s = apply_single(new_state(1), rx(-math.pi / 3), 0)
        a = sample(s, [0], 5000, seed=9)
        b = sample(s, [0], 5000, seed=10)
        assert not np.array_equal(dense(a), dense(b))

    def test_counts_within_three_sigma_of_skewed_split(self):
        # a state carrying the 0.933/0.067 split on one qubit
        p0 = 0.9330127018922194
        s = StateVector(1, np.array([math.sqrt(p0), math.sqrt(1 - p0)]))
        shots = 10000
        hist = sample(s, [0], shots, seed=12345)
        sigma = math.sqrt(p0 * (1 - p0) * shots)
        counts = dense(hist)
        assert abs(counts[0] - p0 * shots) <= 3 * sigma
        assert abs(counts[1] - (1 - p0) * shots) <= 3 * sigma

    def test_large_shot_convergence_five_sigma(self):
        rng = np.random.default_rng(77)
        s = random_state(rng, 2)
        p = probabilities(s, [1, 0])
        shots = 10 ** 6
        hist = sample(s, [1, 0], shots, seed=2024)
        for pm, freq in zip(p, hist.probabilities([0, 1, 2, 3])):
            sigma = math.sqrt(pm * (1 - pm) / shots)
            assert abs(freq - pm) <= 5 * sigma

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(new_state(1), [0], 0, seed=1)


class TestHistogram:
    def test_sampled_counts_must_match_shots(self):
        with pytest.raises(ValueError, match="expected total_shots"):
            Histogram(1, np.array([0]), np.array([3]), total_shots=4, seed=0)

    @pytest.mark.parametrize("counts, shots", [
        ([2**62] * 3 + [2**62 + 5], 5),
        ([2**63 - 1] * 3 + [2], 2**63 - 1),
    ], ids=["wraps-to-small", "wraps-to-int64-max"])
    def test_count_sum_is_exact(self, counts, shots):
        # both int64 sums wrap around to total_shots; the true sum does not
        assert np.array(counts).sum().item() == shots
        with pytest.raises(ValueError, match=f"counts sum to {sum(counts)},"):
            Histogram(2, np.array([0, 1, 2, 3]), np.array(counts), total_shots=shots, seed=0)

    def test_exact_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to"):
            Histogram(1, np.array([0]), np.array([0.7]))

    @pytest.mark.parametrize("outcomes, weights, shots, seed", [
        ([0, 1], [1.5, -0.5], 0, None),
        ([0, 1], [3, -1], 2, 0),
        ([0, 1], [0.5, 1.5], 2, 0),
        ([0], [True], 0, None),
        ([0], [1 + 0j], 0, None),
        ([0], [1], 0, None),
        ([0], [1], True, 0),
        ([0], [1.0], 0, 5),
        ([0], [1], 1, True),
        ([0], [1], 1, None),
        ([0], [1], 1, -4),
        ([0], [1], 1, 1.5),
    ], ids=["negative-probability", "negative-count", "fractional-count",
            "bool-probability", "complex-probability", "integer-probability",
            "bool-shots", "exact-seed", "bool-seed", "sampled-no-seed",
            "negative-seed", "fractional-seed"])
    def test_impossible_values_refused(self, outcomes, weights, shots, seed):
        with pytest.raises(ValueError):
            Histogram(1, np.array(outcomes), np.array(weights), total_shots=shots, seed=seed)

    @pytest.mark.parametrize("shots", [10.0, 10.5, np.float64(10), -10],
                             ids=["float", "fractional", "numpy-float", "negative"])
    def test_total_shots_must_be_an_integer_at_least_zero(self, shots):
        """The counts are integer draws of total_shots, so a float shot
        count is refused even where it is integral, and the error names
        the field."""
        with pytest.raises(ValueError, match="total_shots"):
            Histogram(1, np.array([0]), np.array([10]), total_shots=shots, seed=0)

    def test_numpy_integer_total_shots_accepted(self):
        hist = Histogram(1, np.array([0]), np.array([10]), total_shots=np.int64(10), seed=0)
        assert hist.is_sampled and hist.probabilities([0]) == [1.0]

    def test_outcome_range_checked(self):
        # an outcome of a 1-bit register is 0 or 1
        for outcome in (-1, 2):
            with pytest.raises(ValueError, match="outside"):
                Histogram(1, np.array([outcome]), np.array([1.0]))
        # the builders take one value per outcome of a 2**k register
        for values in ([], [0.5, 0.25, 0.25], [[1.0, 0.0]]):
            with pytest.raises(ValueError, match="2\\*\\*k register"):
                histogram_from_probabilities(np.array(values))
            with pytest.raises(ValueError, match="2\\*\\*k register"):
                sample_probabilities(np.array(values), 5, 0)

    @pytest.mark.parametrize("num_bits, outcomes, weights, match", [
        (-1, [0], [1.0], "num_bits"),
        (64, [0], [1.0], "num_bits"),
        (True, [0], [1.0], "num_bits"),
        (2.0, [0], [1.0], "num_bits"),
        (None, [0], [1.0], "num_bits"),
        (2, [0.0, 1.0], [0.5, 0.5], "integers"),
        (2, [False, True], [0.5, 0.5], "integers"),
        (2, [1, 0], [0.5, 0.5], "ascending"),
        (2, [1, 1], [0.5, 0.5], "ascending"),
        (2, [0, 4], [0.5, 0.5], "outside"),
        (2, [0, 1], [1.0], "shapes"),
        (2, [[0, 1]], [[0.5, 0.5]], "shapes"),
        (2, [], [], "shapes"),
        (2, [0, 1], [1.0, 0.0], "not positive"),
        (2, [0, 1], [1.0, np.nan], "not positive"),
    ], ids=["negative-width", "too-wide", "bool-width", "float-width", "no-width",
            "float-outcome", "bool-outcome", "descending", "repeated", "out-of-range",
            "length-mismatch", "2-d", "empty", "zero-weight", "nan-weight"])
    def test_support_rules_refused(self, num_bits, outcomes, weights, match):
        with pytest.raises(ValueError, match=match):
            Histogram(num_bits, np.array(outcomes), np.array(weights))

    def test_builders_refuse_nan(self):
        # a NaN is not at or below the dust floor, so it reaches the
        # Histogram, which refuses it, rather than drop out as dust
        with pytest.raises(ValueError, match="not positive"):
            histogram_from_probabilities(np.array([np.nan, 0.5, 0.5, 0.0]))
        with pytest.raises(ValueError):
            sample_probabilities(np.array([np.nan, 0.5, 0.5, 0.0]), 5, 0)

    def test_num_bits_follows_length(self):
        assert histogram_from_probabilities(np.array([0.0, 0.0, 0.0, 1.0])).num_bits == 2
        assert sample_probabilities(np.array([0.0, 0.0, 0.0, 1.0]), 5, 0).num_bits == 2

    def test_probability_lookup(self):
        hist = Histogram(2, np.array([1, 3]), np.array([25, 75]), total_shots=100, seed=0)
        assert hist.probabilities([1, 0]) == [0.25, 0.0]
        assert sum(hist.probabilities([1, 3])) == 1.0
        # an outcome the histogram does not hold reads 0, at either end too
        assert hist.probabilities([2, 0, 3, 1]) == [0.0, 0.0, 0.75, 0.25]
        assert hist.probabilities([]) == []

    def test_no_dense_values(self):
        # the old one-value-per-outcome array is gone, so indexing it fails
        # instead of reading the wrong bin
        hist = Histogram(2, np.array([1, 3]), np.array([0.25, 0.75]))
        with pytest.raises(AttributeError):
            hist.values[1]

    def test_sampled_probability_is_exact_integer_ratio(self):
        # float64(count) / float64(shots) rounds the first ratio differently
        shots = 2**63 - 1
        counts = np.array([2**62 + 10752, shots - (2**62 + 10752)])
        hist = Histogram(1, np.array([0, 1]), counts, total_shots=shots, seed=0)
        assert hist.probabilities([0, 1]) == [int(c) / shots for c in counts]

    def test_exact_histogram_drops_dust(self):
        s = apply_single(new_state(2), hadamard(), 0)
        hist = exact_histogram(s, [1, 0])
        assert support(hist)[0] == [0, 1]
        assert not hist.is_sampled
        dusty = histogram_from_probabilities(np.array([1.0 - 1e-16, 1e-16]))
        assert support(dusty) == ([0], [1.0 - 1e-16])
        assert dense(dusty).tolist() == [1.0 - 1e-16, 0.0]


def _exact_and_sampled():
    return [Histogram(2, np.array([0, 3]), np.array([0.25, 0.75])),
            Histogram(2, np.array([0, 3]), np.array([1, 3]), total_shots=4, seed=2)]


class TestFrozenHistogram:
    """A Histogram keeps its checks for its whole life."""

    @pytest.mark.parametrize("hist", _exact_and_sampled(), ids=["exact", "sampled"])
    def test_fields_cannot_be_assigned(self, hist):
        for name, value in (("num_bits", 3), ("outcomes", np.array([1])),
                            ("weights", np.array([1.0])), ("total_shots", 0), ("seed", None)):
            with pytest.raises(AttributeError):
                setattr(hist, name, value)

    @pytest.mark.parametrize("hist", _exact_and_sampled(), ids=["exact", "sampled"])
    def test_arrays_are_read_only(self, hist):
        # the support is held as immutable sequences, not as arrays
        for held in (hist.outcomes, hist.weights):
            assert type(held) in (tuple, range)
            with pytest.raises(TypeError):
                held[0] = 2

    def test_caller_arrays_are_copied(self):
        outcomes, weights = np.array([0, 3]), np.array([0.25, 0.75])
        hist = Histogram(2, outcomes, weights)
        outcomes[...] = [2, 1]
        weights[...] = -1.0
        assert support(hist) == ([0, 3], [0.25, 0.75])
        assert outcomes.flags.writeable and weights.flags.writeable

    def test_equality_is_identity(self):
        a, b = _exact_and_sampled()[0], _exact_and_sampled()[0]
        assert a == a and a != b


class TestInvariants:
    def _random_circuit(self, rng, n, gates):
        s = random_state(rng, n)
        for _ in range(gates):
            kind = rng.integers(4)
            theta = rng.uniform(-2 * math.pi, 2 * math.pi)
            target = int(rng.integers(n))
            if kind == 0:
                s = apply_single(s, rx(theta), target)
            elif kind == 1:
                s = apply_single(s, ry(theta), target)
            elif kind == 2:
                s = apply_single(s, hadamard(), target)
            else:
                control = int(rng.integers(n))
                if control == target:
                    control = (control + 1) % n
                s = apply_controlled(s, phase(theta), control, target)
            assert abs(s.norm() ** 2 - 1.0) <= 1e-10
        return s

    def test_norm_conserved_over_random_circuits(self):
        rng = np.random.default_rng(1234)
        for n in (2, 6, 12):
            s = self._random_circuit(rng, n, 100)
            assert abs(s.norm() ** 2 - 1.0) <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = 3
            s1 = random_state(rng, n)
            s2 = random_state(rng, n)
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            gate = ry(rng.uniform(-math.pi, math.pi))
            target = int(rng.integers(n))
            mixed = StateVector(n, alpha * s1.amplitudes + beta * s2.amplitudes)
            left = apply_single(mixed, gate, target).amplitudes
            right = (alpha * apply_single(s1, gate, target).amplitudes
                     + beta * apply_single(s2, gate, target).amplitudes)
            np.testing.assert_allclose(left, right, atol=1e-12)

    def test_reversibility(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = 4
            s = random_state(rng, n)
            gate = np.array(rx(rng.uniform(-2 * math.pi, 2 * math.pi)))
            target = int(rng.integers(n))
            back = apply_single(apply_single(s, gate, target),
                                gate.conj().T, target)
            np.testing.assert_allclose(back.amplitudes, s.amplitudes, atol=1e-12)
