import math
import statistics

import numpy as np
import pytest

from spinqpe import (
    AmplitudePair,
    Axis,
    ConfigurationError,
    EstimateClampedWarning,
    InconsistentAmplitudesError,
    PathParams,
    QpeConfig,
    RotationSpec,
    SingularConfigurationError,
    UndefinedPhaseError,
    amplitudes_CS,
    full_pipeline,
    infer_sin_delta,
    reconstruct_absA,
    reconstruct_CS,
    theta_from_estimates,
    total_phase,
)

PI = math.pi
THETA_PI_THIRD = math.atan(-1 / 3)


def vertical_config(**kw):
    return QpeConfig(aux=RotationSpec(Axis.Y, PI / 4), **kw)


def horizontal_config(**kw):
    return QpeConfig(aux=RotationSpec(Axis.X, PI / 4), **kw)


def exact_pipeline(eta, delta, branch="principal"):
    return full_pipeline(PathParams(eta, delta), vertical_config(),
                         horizontal_config(), branch=branch)


class TestReconstructCS:
    def test_table_probabilities(self):
        cs = reconstruct_CS(0.933, 0.066)
        # oracle: the defining square roots after renormalization
        assert cs.C == pytest.approx(math.sqrt(0.933 / 0.999), abs=1e-15)
        assert cs.S == pytest.approx(math.sqrt(0.066 / 0.999), abs=1e-15)
        # close to the analytic cos/sin at eta = pi/3
        assert cs.C == pytest.approx(math.cos(PI / 12), abs=2e-3)
        assert cs.S == pytest.approx(math.sin(PI / 12), abs=2e-3)

    def test_symmetric_split(self):
        cs = reconstruct_CS(0.5, 0.5)
        assert cs.C == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert cs.S == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_saturated_split(self):
        cs = reconstruct_CS(1.0, 0.0)
        assert (cs.C, cs.S) == (1.0, 0.0)

    def test_empty_histogram(self):
        with pytest.raises(ConfigurationError):
            reconstruct_CS(0.0, 0.0)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_CS(-0.1, 0.5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            p, q = rng.uniform(0.01, 1.0, 2)
            c = rng.uniform(0.1, 10.0)
            base = reconstruct_CS(p, q)
            scaled = reconstruct_CS(c * p, c * q)
            assert scaled.C == pytest.approx(base.C, abs=1e-12)
            assert scaled.S == pytest.approx(base.S, abs=1e-12)


class TestReconstructAbsA:
    def test_reference_masses(self):
        assert reconstruct_absA(0.7165) == pytest.approx(1.1971, abs=1e-4)
        assert reconstruct_absA(0.7146) == pytest.approx(1.1955, abs=1e-4)
        assert reconstruct_absA(0.7165) == math.sqrt(2 * 0.7165)

    def test_unit_modulus(self):
        assert reconstruct_absA(0.5) == 1.0

    def test_range_checked(self):
        with pytest.raises(ValueError):
            reconstruct_absA(1.5)
        with pytest.raises(ValueError):
            reconstruct_absA(-0.1)


class TestInferSinDelta:
    def test_worked_example(self):
        cs = AmplitudePair(math.cos(PI / 12), math.sin(PI / 12))  # S*C = 1/4
        value, raw = infer_sin_delta(math.sqrt(1.4330), cs)
        assert value == pytest.approx(0.8660, abs=1e-12)
        assert raw == value

    def test_unit_modulus_means_zero(self):
        cs = AmplitudePair(math.cos(0.4), math.sin(0.4))
        value, _ = infer_sin_delta(1.0, cs)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_singular_product(self):
        with pytest.raises(SingularConfigurationError):
            infer_sin_delta(1.0, AmplitudePair(1.0, 0.0))

    def test_marginal_excess_clamped_with_warning(self):
        cs = AmplitudePair(math.cos(PI / 12), math.sin(PI / 12))
        absA = math.sqrt(1.0 + 0.5 * 1.01)  # sin(delta) would be 1.01
        with pytest.warns(EstimateClampedWarning):
            value, raw = infer_sin_delta(absA, cs)
        assert value == 1.0
        assert raw == pytest.approx(1.01, abs=1e-12)

    def test_large_excess_is_an_error(self):
        cs = AmplitudePair(math.cos(PI / 12), math.sin(PI / 12))
        absA = math.sqrt(1.0 + 0.5 * 1.05)
        with pytest.raises(InconsistentAmplitudesError):
            infer_sin_delta(absA, cs)


class TestThetaFromEstimates:
    def test_pi_third_point(self):
        cs = AmplitudePair(math.cos(PI / 12), math.sin(PI / 12))
        assert theta_from_estimates(cs, PI / 3) == pytest.approx(THETA_PI_THIRD, abs=1e-12)

    def test_zero_delta(self):
        cs = AmplitudePair(math.cos(0.3), math.sin(0.3))
        assert theta_from_estimates(cs, 0.0) == 0.0

    def test_equal_amplitudes(self):
        cs = AmplitudePair(1 / math.sqrt(2), 1 / math.sqrt(2))
        for delta in (0.1, 1.0, PI / 2):
            assert theta_from_estimates(cs, delta) == pytest.approx(0.0, abs=1e-15)

    def test_nonpositive_sum_rejected(self):
        cs = AmplitudePair(-1 / math.sqrt(2), -1 / math.sqrt(2))
        with pytest.raises(UndefinedPhaseError):
            theta_from_estimates(cs, 0.5)


class TestFullPipeline:
    def test_pi_third_exact(self):
        result = exact_pipeline(PI / 3, PI / 3)
        assert result.theta_est == pytest.approx(THETA_PI_THIRD, abs=1e-9)
        assert abs(result.residual_theta) <= 1e-9
        assert result.C_est == pytest.approx(math.cos(PI / 12), abs=1e-10)
        assert result.S_est == pytest.approx(math.sin(PI / 12), abs=1e-10)
        assert result.sin_delta_est == pytest.approx(math.sin(PI / 3), abs=1e-9)
        assert result.delta_est == pytest.approx(PI / 3, abs=1e-9)
        assert result.decode_v.coverage == pytest.approx(1.0, abs=1e-10)
        assert result.decode_h.coverage == pytest.approx(1.0, abs=1e-10)
        assert result.phase_analytic.theta == pytest.approx(THETA_PI_THIRD, abs=1e-12)

    def test_zero_eta_gives_zero_theta(self):
        result = exact_pipeline(0.0, 0.9)
        assert result.theta_est == pytest.approx(0.0, abs=1e-10)

    def test_axis_preconditions(self):
        params = PathParams(PI / 3, PI / 3)
        with pytest.raises(ConfigurationError):
            full_pipeline(params, horizontal_config(), horizontal_config())
        with pytest.raises(ConfigurationError):
            full_pipeline(params, vertical_config(), vertical_config())

    def test_branch_name_checked(self):
        with pytest.raises(ConfigurationError):
            exact_pipeline(PI / 3, PI / 3, branch="other")

    def test_singular_at_half_pi(self):
        with pytest.raises(SingularConfigurationError):
            exact_pipeline(PI / 2, PI / 3)

    def test_reflected_branch(self):
        # delta beyond pi/2: the principal branch folds, the reflected one
        # recovers the true angle
        delta = 2.0
        principal = exact_pipeline(0.6, delta, branch="principal")
        reflected = exact_pipeline(0.6, delta, branch="reflected")
        assert reflected.delta_est == pytest.approx(delta, abs=1e-8)
        assert abs(reflected.residual_theta) <= 1e-8
        assert principal.delta_est == pytest.approx(PI - delta, abs=1e-8)
        assert abs(principal.residual_theta) > 1e-3

    def test_branch_ambiguity_flagged_outside_half_pi(self):
        result = exact_pipeline(2.0, 0.4)
        assert any("branch ambiguity" in w for w in result.warnings)

    def test_exact_grid_round_trip(self):
        for eta in np.linspace(0.2, 1.3, 5):
            for delta in np.linspace(0.2, 1.3, 5):
                result = exact_pipeline(float(eta), float(delta))
                assert abs(result.residual_theta) <= 1e-8
                assert result.sin_delta_est == pytest.approx(
                    math.sin(delta), abs=1e-9)

    def test_sampled_fixed_seed_residual_bound(self):
        result = full_pipeline(
            PathParams(PI / 3, PI / 3),
            vertical_config(shots=10000, seed=1),
            horizontal_config(shots=10000, seed=1),
        )
        assert abs(result.residual_theta) <= 0.03

    def test_monotone_degradation_with_shots(self):
        def median_residual(shots):
            residuals = []
            for seed in range(20):
                try:
                    result = full_pipeline(
                        PathParams(PI / 3, PI / 3),
                        vertical_config(shots=shots, seed=seed),
                        horizontal_config(shots=shots, seed=seed),
                    )
                except InconsistentAmplitudesError:
                    # noise pushed sin(delta) past the clamp band; count the
                    # run as unusable rather than dropping it from the median
                    residuals.append(math.inf)
                    continue
                residuals.append(abs(result.residual_theta))
            return statistics.median(residuals)

        m3, m4, m5 = (median_residual(s) for s in (10 ** 3, 10 ** 4, 10 ** 5))
        assert m3 > m4 > m5

    def test_pipeline_determinism(self):
        a = full_pipeline(
            PathParams(PI / 3, PI / 3),
            vertical_config(shots=5000, seed=11),
            horizontal_config(shots=5000, seed=12),
        )
        b = full_pipeline(
            PathParams(PI / 3, PI / 3),
            vertical_config(shots=5000, seed=11),
            horizontal_config(shots=5000, seed=12),
        )
        assert a.theta_est == b.theta_est
        assert np.array_equal(a.hist_v.values, b.hist_v.values)
        assert np.array_equal(a.hist_h.values, b.hist_h.values)
        assert a.warnings == b.warnings

    def test_analytic_reference_uses_overlap_argument(self):
        result = exact_pipeline(0.8, 1.1)
        assert result.phase_analytic.theta == pytest.approx(
            total_phase(PathParams(0.8, 1.1)).theta, abs=0)

    def test_cs_mass_recorded_before_renormalization(self):
        result = exact_pipeline(PI / 3, PI / 3)
        assert result.decode_v.p_plus + result.decode_v.p_minus == pytest.approx(
            1.0, abs=1e-10)
        cs = amplitudes_CS(PI / 3)
        assert result.C_est ** 2 + result.S_est ** 2 == pytest.approx(1.0, abs=1e-12)
        assert result.C_est == pytest.approx(cs.C, abs=1e-10)
