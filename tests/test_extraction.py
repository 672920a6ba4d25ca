import contextlib
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqpe import (
    AmplitudePair,
    Axis,
    ConfigurationError,
    InconsistentAmplitudesError,
    PathParams,
    QpeConfig,
    RotationSpec,
    RunSettings,
    SingularConfigurationError,
    UndefinedPhaseError,
    amplitudes_CS,
    decode,
    full_pipeline,
    infer_sin_delta,
    reconstruct_absA,
    reconstruct_CS,
    run_qpe,
    rx,
    ry,
    theta_from_estimates,
    total_phase,
)
from spinqpe import extraction
from spinqpe.extraction import window_sweep
from spinqpe.qpe import _window_readout, readout_kernel

from histograms import identical

PI = math.pi
THETA_PI_THIRD = math.atan(-1 / 3)


def exact_pipeline(eta, delta, branch="principal"):
    return full_pipeline(PathParams(eta, delta), RunSettings(), PI / 4, PI / 4, branch=branch)


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
            RunSettings(shots=10000, seed=1), PI / 4, PI / 4,
        )
        assert abs(result.residual_theta) <= 0.03

    def test_monotone_degradation_with_shots(self):
        def median_residual(shots):
            residuals = []
            for seed in range(20):
                try:
                    result = full_pipeline(
                        PathParams(PI / 3, PI / 3),
                        RunSettings(shots=shots, seed=seed), PI / 4, PI / 4,
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
            RunSettings(shots=5000, seed=11), PI / 4, PI / 4,
        )
        b = full_pipeline(
            PathParams(PI / 3, PI / 3),
            RunSettings(shots=5000, seed=11), PI / 4, PI / 4,
        )
        assert a.theta_est == b.theta_est
        assert identical(a.hist_v, b.hist_v)
        assert identical(a.hist_h, b.hist_h)
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


@st.composite
def pipeline_auxes(draw, n):
    """(aux_v, aux_h): each dyadic (4 pi k / 2^n with two distinct bins)
    or arbitrary, and equal in about half the draws."""
    def aux():
        if draw(st.booleans()):
            k = draw(st.integers(1, (1 << (n - 1)) - 1)) * draw(st.sampled_from([1, -1]))
            return 4 * PI * k / (1 << n)
        return draw(st.floats(-4 * PI, 4 * PI))
    aux_v = aux()
    return aux_v, aux_v if draw(st.booleans()) else aux()


class TestSharedKernel:
    """full_pipeline builds one readout kernel per distinct angle and
    reads out exactly what two separately built runs read out."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), eta=st.floats(-1.4, 1.4), delta=st.floats(-PI, PI),
           n=st.integers(2, 16), sampled=st.booleans(), seed=st.integers(0, 2**32))
    def test_pipeline_equals_separate_runs(self, data, eta, delta, n, sampled, seed):
        aux_v, aux_h = data.draw(pipeline_auxes(n))
        run = RunSettings(n, 10_000, seed) if sampled else RunSettings(n)
        params = PathParams(eta, delta)
        config_v = QpeConfig(run, RotationSpec(Axis.Y, aux_v), (rx(-eta),))
        config_h = QpeConfig(run, RotationSpec(Axis.X, aux_h), (rx(-eta), ry(delta)))
        hist_v, hist_h = run_qpe(config_v), run_qpe(config_h)
        try:
            decode_v, decode_h = decode(hist_v, config_v), decode(hist_h, config_h)
            cs = reconstruct_CS(decode_v.p_plus, decode_v.p_minus)
            absA = reconstruct_absA(decode_h.p_plus)
            sin_delta, raw = infer_sin_delta(absA, cs)
            theta = theta_from_estimates(cs, math.asin(sin_delta))
            phase = total_phase(params)
        except ConfigurationError as err:  # the pipeline stops where these do
            with pytest.raises(type(err)):
                full_pipeline(params, run, aux_v, aux_h)
            return
        result = full_pipeline(params, run, aux_v, aux_h)
        for got, want in ((result.hist_v, hist_v), (result.hist_h, hist_h)):
            assert identical(got, want)
        assert (result.decode_v, result.decode_h) == (decode_v, decode_h)
        assert (result.C_est, result.S_est, result.absA_est) == (cs.C, cs.S, absA)
        assert (result.sin_delta_est, result.sin_delta_raw) == (sin_delta, raw)
        assert result.theta_est == theta
        notes = " | ".join(result.warnings)
        assert ("clamped to" in notes) == (sin_delta != raw)
        assert ("S + C vanishes" in notes) == math.isnan(phase.theta_arctan)

    @pytest.mark.parametrize("shots", [None, 1000])
    @pytest.mark.parametrize("aux_h, builds", [(PI / 4, 1), (PI / 2, 2), (1.0, 2)])
    def test_one_kernel_per_distinct_angle(self, shots, aux_h, builds):
        """One build per distinct angle, and none for a second identical
        pipeline, which reads what the first left cached. A sampled run
        builds the full kernel and no window readout; an exact one builds
        the window readout of its angle, and the full kernel only at a
        leaky angle, here 1.0."""
        args = (PathParams(0.4, -0.7), RunSettings(8, shots, 3), PI / 4, aux_h)
        want = (builds, 0) if shots else (int(aux_h == 1.0), builds)
        first = full_pipeline(*args)
        assert (readout_kernel.cache_info().misses, _window_readout.cache_info().misses) == want
        second = full_pipeline(*args)
        assert (readout_kernel.cache_info().misses, _window_readout.cache_info().misses) == want
        for got, want in ((second.hist_v, first.hist_v), (second.hist_h, first.hist_h)):
            assert identical(got, want)


class TestWindowSweep:
    """window_sweep reads the decode windows alone and makes, at every
    point, the estimates full_pipeline makes from whole histograms."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(4, 16),
           points=st.lists(st.tuples(st.floats(-PI, PI), st.floats(-PI, PI)),
                           min_size=1, max_size=4))
    def test_estimates_equal_full_pipeline(self, data, n, points):
        aux = data.draw(pipeline_auxes(n))[0]
        points = [PathParams(eta, delta) for eta, delta in points]
        swept = window_sweep(points, n, aux)
        for params in points:
            try:
                want = full_pipeline(params, RunSettings(n), aux, aux)
            except ConfigurationError as err:  # the sweep stops where the pipeline does
                with pytest.raises(type(err)) as refused:
                    next(swept)
                assert str(refused.value) == str(err)
                return
            got = next(swept)
            assert (got["theta_est"], got["residual_theta"]) == (
                want.theta_est, want.residual_theta)
            assert got == {key: getattr(want, key) for key in got}
        assert next(swept, None) is None

    @staticmethod
    def assert_sweep_is_pipeline(points, n, aux):
        """window_sweep(points) yields what full_pipeline makes at each
        point, to the sign of a zero (repr), and stops with its error."""
        swept = window_sweep(points, n, aux)
        for params in points:
            try:
                want = full_pipeline(params, RunSettings(n), aux, aux)
            except ConfigurationError as err:
                with pytest.raises(type(err)) as refused:
                    next(swept)
                assert str(refused.value) == str(err)
                return
            got = next(swept)
            assert repr(got) == repr({key: getattr(want, key) for key in got})
        assert next(swept, None) is None

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(4, 12),
           etas=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.4, -1.2]),
                                   st.floats(-PI, PI)), min_size=1, max_size=4),
           deltas=st.lists(st.one_of(st.sampled_from([0.0, -0.0, PI, 3.0]),
                                     st.floats(-PI, PI)), min_size=1, max_size=4),
           by_delta=st.booleans())
    def test_grid_equals_full_pipeline(self, data, n, etas, deltas, by_delta):
        """Grids whose eta values repeat, 0.0 beside -0.0, in row or
        column order: the vertical run read once per eta changes nothing."""
        aux = data.draw(pipeline_auxes(n))[0]
        if by_delta:
            points = [PathParams(eta, delta) for delta in deltas for eta in etas]
        else:
            points = [PathParams(eta, delta) for eta in etas for delta in deltas]
        self.assert_sweep_is_pipeline(points, n, aux)

    def test_leaky_point_carries_the_pipeline_notes(self):
        """At aux 0.3 both runs leak, so the notes do not rest on what
        hypothesis draws: the sweep's decode results and two coverage
        notes are full_pipeline's."""
        params = PathParams(PI / 3, PI / 3)
        self.assert_sweep_is_pipeline([params], 10, 0.3)
        want = full_pipeline(params, RunSettings(10), 0.3, 0.3)
        assert want.warnings[:2] == [
            f"{run}: leakage: decoded windows cover 0.920047 < threshold 0.98"
            for run in ("qpev", "qpeh")]

    def test_vertical_run_is_read_once_per_eta(self, monkeypatch):
        """At eta = 0 the closed-form overlap vanishes at delta = pi, so that
        row raises only at its third point; -0.0 is an eta of its own."""
        etas = [0.4, -0.0, 0.4, 0.0]
        points = [PathParams(eta, delta) for eta in etas for delta in (0.0, 3.0, PI)]
        with pytest.raises(UndefinedPhaseError):
            full_pipeline(points[5], RunSettings(10), PI / 4, PI / 4)

        def built_for(points):
            """The eta of each vertical run window_sweep builds over `points`."""
            built, build = [], extraction._vertical

            def vertical(eta, *rest):
                built.append(repr(eta))
                return build(eta, *rest)

            with monkeypatch.context() as patch:
                patch.setattr(extraction, "_vertical", vertical)
                with contextlib.suppress(UndefinedPhaseError):
                    for _ in window_sweep(points, 10, PI / 4):
                        pass
            return built

        self.assert_sweep_is_pipeline(points, 10, PI / 4)
        assert built_for(points) == ["0.4", "-0.0"]
        points = points[:5] + points[6:]
        self.assert_sweep_is_pipeline(points, 10, PI / 4)
        assert built_for(points) == ["0.4", "-0.0", "0.0"]


def test_exact_dyadic_pipeline_allocates_no_register_vector():
    """An exact run at a dyadic angle holds two outcomes, so an exact
    n = 16 pipeline allocates no vector over its 2^16 outcomes: the traced
    peak stays far below the 512 KiB of one float64 vector of that size."""
    args = (PathParams(PI / 3, PI / 3), RunSettings(16), PI / 4, PI / 4)
    full_pipeline(*args)  # imports and first-call caches are not the pipeline's
    tracemalloc.start()
    try:
        full_pipeline(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
