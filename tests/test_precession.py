import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinqpe import (
    AmplitudePair,
    ComplexPair,
    PathParams,
    PhysicalParams,
    UndefinedPhaseError,
    amplitudes_AB,
    amplitudes_CS,
    angles_from_physical,
    path1_phase,
    psi1,
    psi2,
    rx,
    ry,
    time_for_angle,
    total_phase,
    wrap_angle,
)

PI = math.pi
E0 = np.array([1.0, 0.0], dtype=complex)


def evolve(eta: float, delta: float) -> np.ndarray:
    """Matrix-product oracle for the two-segment evolution."""
    return np.array(ry(delta)) @ np.array(rx(-eta)) @ E0


#: angles within 1e-6 of a multiple of pi, where S + C, Re <0|psi2> or the
#: overlap itself vanishes
NEAR_SINGULAR = st.builds(lambda k, offset: k * PI + offset,
                          st.integers(-3, 3), st.floats(-1e-6, 1e-6))


def random_params(count, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-PI, PI, (count, 2))


class TestAmplitudesCS:
    def test_symmetric_at_zero(self):
        cs = amplitudes_CS(0.0)
        assert cs.C == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert cs.S == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_pi_third_angle(self):
        cs = amplitudes_CS(PI / 3)
        assert cs.C ** 2 == pytest.approx(0.9330127018922194, abs=1e-12)
        assert cs.S ** 2 == pytest.approx(0.0669872981077806, abs=1e-12)

    def test_half_pi_saturates(self):
        cs = amplitudes_CS(PI / 2)
        assert cs.C == pytest.approx(1.0, abs=1e-15)
        assert abs(cs.S) <= 1e-15

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            AmplitudePair(1.0, 1.0)


class TestPsi1:
    def test_zero_angle(self):
        np.testing.assert_array_equal(psi1(0.0), E0)

    def test_pi_third_angle(self):
        np.testing.assert_allclose(
            psi1(PI / 3),
            [math.cos(PI / 6), 1j * math.sin(PI / 6)],
            atol=1e-15,
        )

    def test_half_turn(self):
        np.testing.assert_allclose(psi1(PI), [0.0, 1j], atol=1e-15)

    def test_plain_complex_pair(self):
        for state in (psi1(0.3), psi2(PathParams(0.3, -0.7))):
            assert type(state) is np.ndarray
            assert (state.shape, state.dtype) == ((2,), np.complex128)

    @pytest.mark.parametrize("eta", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_refused(self, eta):
        with pytest.raises(ValueError, match="finite"):
            psi1(eta)

    def test_matches_circuit_everywhere(self):
        rng = np.random.default_rng(41)
        for eta in rng.uniform(-PI, PI, 200):
            np.testing.assert_allclose(
                psi1(eta), np.array(rx(-eta)) @ E0, atol=1e-12)


class TestPsi2:
    def test_zero_angles(self):
        # cos(pi/4) and sin(pi/4) differ by one ulp in doubles, so the
        # excited amplitude carries ~1e-17 dust rather than an exact zero
        np.testing.assert_allclose(psi2(PathParams(0.0, 0.0)), E0,
                                   atol=1e-15)

    def test_pi_third_angles(self):
        np.testing.assert_allclose(
            psi2(PathParams(PI / 3, PI / 3)),
            [0.75 - 0.25j, 0.4330127018922193 + 0.4330127018922193j],
            atol=1e-12,
        )

    def test_matches_circuit_no_global_phase_slack(self):
        for eta, delta in random_params(1000, seed=43):
            np.testing.assert_allclose(
                psi2(PathParams(eta, delta)),
                evolve(eta, delta),
                atol=1e-12,
            )

    def test_x_basis_expansion_agrees(self):
        inv_sqrt2 = 1 / math.sqrt(2)
        plus_x = np.array([inv_sqrt2, inv_sqrt2])
        minus_x = np.array([inv_sqrt2, -inv_sqrt2])
        for eta, delta in random_params(100, seed=47):
            ab = amplitudes_AB(PathParams(eta, delta))
            rebuilt = (ab.A * plus_x + ab.B * minus_x) / math.sqrt(2)
            np.testing.assert_allclose(
                rebuilt, psi2(PathParams(eta, delta)), atol=1e-12)

    def test_segments_do_not_commute(self):
        forward = evolve(PI / 3, PI / 3)
        swapped = np.array(rx(-PI / 3)) @ np.array(ry(PI / 3)) @ E0
        assert np.abs(forward - swapped).max() > 1e-6
        # either angle at zero restores commutation
        np.testing.assert_allclose(
            evolve(0.0, 0.7), np.array(rx(0.0)) @ np.array(ry(0.7)) @ E0, atol=1e-15)
        np.testing.assert_allclose(
            evolve(0.7, 0.0), np.array(rx(-0.7)) @ np.array(ry(0.0)) @ E0, atol=1e-15)


class TestAmplitudesAB:
    def test_pi_third_angles(self):
        ab = amplitudes_AB(PathParams(PI / 3, PI / 3))
        assert abs(ab.A) ** 2 / 2 == pytest.approx(0.7165063509461096, abs=1e-12)
        assert abs(ab.B) ** 2 / 2 == pytest.approx(0.2834936490538904, abs=1e-12)
        assert ab.gamma1 == pytest.approx(0.15348385102237702, abs=1e-12)
        assert ab.gamma2 == pytest.approx(-1.136277574269706, abs=1e-12)

    def test_unit_modulus_at_zero_delta(self):
        for eta in np.random.default_rng(53).uniform(-PI, PI, 50):
            ab = amplitudes_AB(PathParams(eta, 0.0))
            assert abs(ab.A) == pytest.approx(1.0, abs=1e-12)

    def test_modulus_identities(self):
        for eta, delta in random_params(500, seed=59):
            cs = amplitudes_CS(eta)
            ab = amplitudes_AB(PathParams(eta, delta))
            assert abs(ab.A) ** 2 + abs(ab.B) ** 2 == pytest.approx(2.0, abs=1e-12)
            assert abs(ab.A) ** 2 == pytest.approx(
                1.0 + 2.0 * cs.S * cs.C * math.sin(delta), abs=1e-10)

    def test_pair_invariant_enforced(self):
        with pytest.raises(ValueError):
            ComplexPair(A=1.0 + 0j, B=0.5 + 0j, gamma1=0.0, gamma2=0.0)


class TestTotalPhase:
    def test_pi_third_angles(self):
        tp = total_phase(PathParams(PI / 3, PI / 3))
        assert tp.magnitude == pytest.approx(math.sqrt(0.625), abs=1e-12)
        assert tp.theta == pytest.approx(math.atan(-1 / 3), abs=1e-12)
        assert tp.theta_arctan == pytest.approx(tp.theta, abs=1e-10)

    def test_zero_delta_gives_zero_phase(self):
        for eta in (0.3, -1.2, 1.5):
            assert total_phase(PathParams(eta, 0.0)).theta == pytest.approx(0.0, abs=1e-15)

    def test_zero_eta_gives_zero_phase(self):
        for delta in (0.4, PI / 2, -2.0):
            assert total_phase(PathParams(0.0, delta)).theta == pytest.approx(0.0, abs=1e-15)

    def test_magnitude_identity(self):
        for eta, delta in random_params(500, seed=61):
            cs = amplitudes_CS(eta)
            expected = 0.5 + cs.S * cs.C * math.cos(delta)
            if expected < 1e-12:
                continue
            tp = total_phase(PathParams(eta, delta))
            assert tp.magnitude ** 2 == pytest.approx(expected, abs=1e-10)

    def test_theta_equals_overlap_argument(self):
        for eta, delta in random_params(500, seed=67):
            params = PathParams(eta, delta)
            overlap = complex(np.vdot(E0, evolve(eta, delta)))
            if abs(overlap) < 1e-6:
                continue
            tp = total_phase(params)
            assert tp.theta == pytest.approx(math.atan2(overlap.imag, overlap.real),
                                             abs=1e-10)

    def test_arctan_agrees_on_principal_branch(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            eta = rng.uniform(-PI / 2, PI / 2)
            delta = rng.uniform(-PI / 2, PI / 2)
            tp = total_phase(PathParams(eta, delta))
            assert abs(tp.theta - tp.theta_arctan) <= 1e-10

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.floats(-1e3, 1e3), NEAR_SINGULAR),
           st.one_of(st.floats(-1e3, 1e3), NEAR_SINGULAR))
    @example(eta=PI - 1e-9, delta=PI / 3)
    @example(eta=0.3, delta=PI - 1e-9)
    def test_arctan_form_is_the_overlap_argument(self, eta, delta):
        """Where Re <0|psi2> > 0 both forms take atan of one quotient of
        the same S + C and S - C floats, so they agree to rounding."""
        cs = amplitudes_CS(eta)
        assume(abs(cs.S + cs.C) >= 1e-12)
        try:
            tp = total_phase(PathParams(eta, delta))
        except UndefinedPhaseError:
            assume(False)
        assume(tp.magnitude * math.cos(tp.theta) > 1e-12)
        assert abs(tp.theta - tp.theta_arctan) <= 1e-12

    def test_vanishing_overlap_is_an_error(self):
        with pytest.raises(UndefinedPhaseError):
            total_phase(PathParams(0.0, PI))

    def test_arctan_undefined_when_s_plus_c_vanishes(self):
        tp = total_phase(PathParams(PI, PI / 3))
        assert math.isnan(tp.theta_arctan)
        assert len(tp.warnings) == 1 and "S + C vanishes" in tp.warnings[0]
        assert tp.theta == pytest.approx(-PI / 2, abs=1e-12)


class TestPath1Phase:
    def test_pi_third_angle(self):
        assert path1_phase(PI / 3) == 0.0

    def test_zero(self):
        assert path1_phase(0.0) == 0.0

    def test_negative_angle(self):
        assert path1_phase(-PI / 2) == 0.0

    def test_identically_zero_inside_branch(self):
        for eta in np.linspace(-PI + 1e-9, PI - 1e-9, 100):
            assert path1_phase(eta) == 0.0

    def test_branch_warning_beyond_pi(self):
        assert path1_phase(1.5 * PI) == pytest.approx(PI)


class TestPhysicalConversion:
    def test_zero_time(self):
        p = PhysicalParams(alpha=1e-11, k=1e8, t=0.0, hbar=1.0)
        assert angles_from_physical(p, p) == PathParams(0.0, 0.0)

    def test_sign_asymmetry_and_magnitude(self):
        # omega = 2 alpha k / hbar = 1, so a traversal of pi/3 seconds
        # precesses by pi/3 on each segment
        p = PhysicalParams(alpha=0.5, k=1.0, t=PI / 3, hbar=1.0)
        params = angles_from_physical(p, p)
        assert params.eta == pytest.approx(-PI / 3, abs=1e-15)
        assert params.delta == pytest.approx(+PI / 3, abs=1e-15)

    def test_linearity_in_time(self):
        p1 = PhysicalParams(alpha=0.5, k=1.0, t=0.2, hbar=1.0)
        p2 = PhysicalParams(alpha=0.5, k=1.0, t=0.4, hbar=1.0)
        a = angles_from_physical(p1, p1)
        b = angles_from_physical(p2, p2)
        assert b.eta == pytest.approx(2 * a.eta, abs=1e-15)
        assert b.delta == pytest.approx(2 * a.delta, abs=1e-15)

    def test_omega_nonnegative(self):
        p = PhysicalParams(alpha=1e-11, k=1e8, t=1e-12)
        assert p.omega >= 0.0

    def test_time_for_angle_round_trip(self):
        p = PhysicalParams(alpha=0.5, k=1.0, t=0.0, hbar=1.0)
        t = time_for_angle(PI / 4, p)
        tuned = PhysicalParams(alpha=0.5, k=1.0, t=t, hbar=1.0)
        assert tuned.omega * tuned.t == pytest.approx(PI / 4, abs=1e-15)

    def test_time_for_angle_zero_omega(self):
        with pytest.raises(ZeroDivisionError):
            time_for_angle(PI / 4, PhysicalParams(alpha=0.0, k=1.0, t=0.0))


class TestPathParams:
    def test_wrap_angle_range(self):
        for x in np.linspace(-10, 10, 101):
            w = wrap_angle(x)
            assert -PI < w <= PI

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PathParams(math.nan, 0.0)
