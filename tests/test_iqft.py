import math

import numpy as np
import pytest

from spinqpe import ConfigurationError
from spinqpe.iqft import IqftPlan, PlanStep, apply_iqft, build_iqft, dense_iqft_reference
from spinqpe.statevector import StateVector, new_state, probabilities


def run_circuit(vector: np.ndarray, qubits_msb_first) -> np.ndarray:
    n = int(np.log2(len(vector)))
    state = StateVector(n, vector)
    return apply_iqft(state, build_iqft(qubits_msb_first)).amplitudes


class TestPlan:
    def test_single_qubit_is_one_hadamard(self):
        plan = build_iqft([0])
        assert [op.kind for op in plan.ops] == ["hadamard"]
        assert plan.ops[0].qubits == (0,)

    def test_two_qubits_matches_textbook_order(self):
        plan = build_iqft([1, 0])
        kinds = [op.kind for op in plan.ops]
        assert kinds == ["hadamard", "cphase", "hadamard", "swap"]
        cphase = plan.ops[1]
        assert cphase.angle == -math.pi / 2
        assert set(plan.ops[3].qubits) == {0, 1}

    def test_phase_angles_are_exact_negative_powers(self):
        plan = build_iqft([3, 2, 1, 0])
        angles = sorted({op.angle for op in plan.ops if op.kind == "cphase"})
        assert angles == [-math.pi / 2, -math.pi / 4, -math.pi / 8]

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ConfigurationError):
            build_iqft([0, 0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            build_iqft([])

    def test_unknown_step_rejected(self):
        plan = IqftPlan((PlanStep("bogus", (0,)),))
        with pytest.raises(ConfigurationError, match="unknown plan step"):
            apply_iqft(new_state(2), plan)


class TestDenseReference:
    def test_one_qubit(self):
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(dense_iqft_reference(1), expected, atol=1e-15)

    def test_two_qubit_entries(self):
        f = dense_iqft_reference(2)
        for j in range(4):
            for k in range(4):
                np.testing.assert_allclose(
                    f[j, k], np.exp(-2j * np.pi * j * k / 4) / 2, atol=1e-15)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            dense_iqft_reference(11)

    def test_unitary(self):
        f = dense_iqft_reference(5)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(32), atol=1e-12)


class TestCircuitEqualsDense:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_basis_states(self, n):
        dim = 1 << n
        reference = dense_iqft_reference(n)
        qubits = list(range(n - 1, -1, -1))
        worst = 0.0
        for j in range(dim):
            basis = np.zeros(dim, dtype=complex)
            basis[j] = 1.0
            out = run_circuit(basis, qubits)
            worst = max(worst, np.abs(out - reference[:, j]).max())
        assert worst <= 1e-12

    def test_uniform_superposition_collapses_to_zero(self):
        n = 5
        dim = 1 << n
        out = run_circuit(np.full(dim, 1 / math.sqrt(dim), dtype=complex),
                          list(range(n - 1, -1, -1)))
        np.testing.assert_allclose(out[0], 1.0, atol=1e-12)
        assert np.abs(out[1:]).max() <= 1e-12

    def test_kickback_pattern_lands_on_its_bin(self):
        # amplitudes exp(2 pi i m j / 2^n)/sqrt(2^n) must decode to outcome m
        n, m = 4, 3
        dim = 1 << n
        j = np.arange(dim)
        vector = np.exp(2j * np.pi * m * j / dim) / math.sqrt(dim)
        state = StateVector(n, vector)
        out = apply_iqft(state, build_iqft(list(range(n - 1, -1, -1))))
        p = probabilities(out, list(range(n - 1, -1, -1)))
        np.testing.assert_allclose(p[m], 1.0, atol=1e-12)

    def test_round_trip_with_dense_forward_transform(self):
        rng = np.random.default_rng(17)
        for n in (1, 3, 6):
            dim = 1 << n
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            forward = dense_iqft_reference(n).conj().T @ v  # dense QFT
            back = run_circuit(forward, list(range(n - 1, -1, -1)))
            np.testing.assert_allclose(back, v, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(23)
        n = 7
        dim = 1 << n
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        out = run_circuit(v, list(range(n - 1, -1, -1)))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_acts_only_on_plan_qubits(self):
        # IQFT on qubits (2, 1) of a 3-qubit register must commute with
        # the marginal on qubit 0
        rng = np.random.default_rng(29)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        state = StateVector(3, v)
        out = apply_iqft(state, build_iqft([2, 1]))
        np.testing.assert_allclose(
            probabilities(out, [0]), probabilities(state, [0]), atol=1e-12)
