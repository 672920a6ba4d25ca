import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqpe.gates import (
    UNITARY_ATOL,
    Axis,
    RotationSpec,
    axis_eigenvectors,
    hadamard,
    pauli_x,
    phase,
    require_gate,
    rotation,
    rotation_power,
    rx,
    ry,
)

I2 = np.eye(2)


def angles(count, seed=0):
    return np.random.default_rng(seed).uniform(-2 * math.pi, 2 * math.pi, count)


def test_rx_zero_is_identity():
    np.testing.assert_allclose(rx(0.0), I2, atol=0)


def test_rx_full_turn_is_minus_identity():
    np.testing.assert_allclose(rx(2 * math.pi), -I2, atol=1e-15)


def test_rx_matrix_entries():
    g = rx(-math.pi / 3)
    np.testing.assert_allclose(g[0][0], math.cos(math.pi / 6), atol=0)
    np.testing.assert_allclose(g[0][1], 1j * math.sin(math.pi / 6), atol=1e-16)


def test_ry_zero_is_identity():
    np.testing.assert_allclose(ry(0.0), I2, atol=0)


def test_ry_pi_flips_zero_to_one():
    out = np.array(ry(math.pi)) @ np.array([1.0, 0.0])
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)


def test_ry_half_pi_makes_plus_state():
    out = np.array(ry(math.pi / 2)) @ np.array([1.0, 0.0])
    np.testing.assert_allclose(out, np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-15)


def test_hadamard_squares_to_identity():
    h = np.array(hadamard())
    np.testing.assert_allclose(h @ h, I2, atol=1e-15)


def test_phase_gate():
    np.testing.assert_allclose(phase(0.0), I2, atol=0)
    np.testing.assert_allclose(phase(math.pi), np.diag([1.0, -1.0]), atol=1e-15)


def test_pauli_x_and_identity():
    x = np.array(pauli_x())
    np.testing.assert_array_equal(x, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(x @ x, I2)


@pytest.mark.parametrize("builder", [rx, ry])
def test_unitarity_sweep(builder):
    for theta in angles(100, seed=1):
        g = np.array(builder(theta))
        np.testing.assert_allclose(g.conj().T @ g, I2, atol=1e-12)


@pytest.mark.parametrize("builder", [rx, ry])
def test_angle_additivity(builder):
    rng = np.random.default_rng(2)
    for _ in range(100):
        a, b = rng.uniform(-2 * math.pi, 2 * math.pi, 2)
        np.testing.assert_allclose(np.array(builder(a)) @ np.array(builder(b)), builder(a + b),
                                   atol=1e-12)


@pytest.mark.parametrize("builder", [rx, ry])
def test_special_unitary(builder):
    for theta in angles(50, seed=3):
        np.testing.assert_allclose(np.linalg.det(builder(theta)), 1.0, atol=1e-12)


@pytest.mark.parametrize("builder,axis", [(rx, Axis.X), (ry, Axis.Y)])
def test_eigenvector_phase_conventions(builder, axis):
    plus, minus = map(np.array, axis_eigenvectors(axis))
    for theta in angles(50, seed=4):
        gate = np.array(builder(theta))
        np.testing.assert_allclose(gate @ plus, np.exp(-0.5j * theta) * plus, atol=1e-12)
        np.testing.assert_allclose(gate @ minus, np.exp(+0.5j * theta) * minus, atol=1e-12)


def test_rotation_dispatch():
    np.testing.assert_array_equal(rotation(RotationSpec(Axis.X, 0.3)), rx(0.3))
    np.testing.assert_array_equal(rotation(RotationSpec(Axis.Y, 0.3)), ry(0.3))


class TestRotationPower:
    def test_doubling(self):
        np.testing.assert_array_equal(
            rotation_power(RotationSpec(Axis.Y, math.pi / 4), 2), ry(math.pi / 2))

    def test_zeroth_power_is_identity(self):
        np.testing.assert_allclose(
            rotation_power(RotationSpec(Axis.X, 1.234), 0), I2, atol=0)

    def test_against_iterated_product(self):
        # oracle: multiply sixteen copies the slow way
        spec = RotationSpec(Axis.Y, math.pi / 4)
        product = np.eye(2, dtype=complex)
        for _ in range(16):
            product = np.array(ry(math.pi / 4)) @ product
        np.testing.assert_allclose(rotation_power(spec, 16), product, atol=1e-12)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            rotation_power(RotationSpec(Axis.X, 0.1), -1)


class TestRotationSpec:
    def test_angle_must_be_finite(self):
        with pytest.raises(ValueError):
            RotationSpec(Axis.X, math.inf)

    def test_axis_must_be_axis(self):
        with pytest.raises(ValueError):
            RotationSpec("x", 0.1)

    def test_raw_angle_preserved(self):
        assert RotationSpec(Axis.X, 5 * math.pi).angle == 5 * math.pi


def numpy_gate_check(gate):
    """require_gate's predicate as numpy array operations, the form it had
    before it moved to Python complex numbers: (error text or None, the
    deviation max |U+ U - I| or None)."""
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (2, 2):
        return f"gate must be 2x2, got shape {gate.shape}", None
    if not np.all(np.isfinite(gate)):
        return "gate contains non-finite entries", None
    deviation = np.abs(gate.conj().T @ gate - np.eye(2)).max()
    if deviation > UNITARY_ATOL:
        return f"gate is not unitary within {UNITARY_ATOL}", deviation
    return None, deviation


_ANGLE = st.floats(-2 * math.pi, 2 * math.pi)


@st.composite
def unitaries(draw):
    """exp(i a) [[cos t e^(i p), sin t e^(i q)], [-sin t e^(-i q), cos t e^(-i p)]]"""
    a, t, p, q = (draw(_ANGLE) for _ in range(4))
    c, s = math.cos(t), math.sin(t)
    return np.exp(1j * a) * np.array([[c * np.exp(1j * p), s * np.exp(1j * q)],
                                       [-s * np.exp(-1j * q), c * np.exp(-1j * p)]])


@st.composite
def candidate_gates(draw):
    """A unitary, one perturbed by about 1e-16 to 1e-8 (so across the
    tolerance), one with a non-finite entry, or an array of another shape."""
    gate = draw(unitaries())
    kind = draw(st.sampled_from(["unitary", "perturbed", "non-finite", "shape"]))
    if kind == "perturbed":
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        direction = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        gate = gate + 10.0 ** draw(st.floats(-16, -8)) * direction
    elif kind == "non-finite":
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf),
                                    complex(np.nan, 0)]))
        gate[draw(st.integers(0, 1)), draw(st.integers(0, 1))] = bad
    elif kind == "shape":
        shape = draw(st.sampled_from([(2,), (4,), (3, 3), (2, 2, 1), (1, 2, 2), (2, 3)]))
        gate = np.resize(gate, shape)
    return gate


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(candidate_gates(), st.booleans())
def test_gate_check_matches_the_numpy_form(gate, as_list):
    """require_gate accepts and refuses as the numpy form does, with the
    same error text, outside a +-1e-15 band around the tolerance, where
    the two may round the deviation differently."""
    want, deviation = numpy_gate_check(gate)
    if deviation is not None and abs(deviation - UNITARY_ATOL) <= 1e-15:
        return
    candidate = gate.tolist() if as_list else gate
    if want is None:
        got = require_gate(candidate)
        assert isinstance(got, tuple) and all(type(z) is complex for row in got for z in row)
        assert [list(row) for row in got] == gate.tolist()
    else:
        with pytest.raises(ValueError) as refused:
            require_gate(candidate)
        assert str(refused.value).startswith(want)
