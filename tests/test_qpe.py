import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinqpe import (
    Axis,
    ConfigurationError,
    PathParams,
    QpeConfig,
    RotationSpec,
    RunSettings,
    axis_eigenvectors,
    decode,
    expected_bins,
    format_binary,
    full_pipeline,
    run_qpe,
    rx,
    ry,
)
from spinqpe.qpe import readout_kernel, run_circuit
from spinqpe.records import decode_payload

PI = math.pi
C2 = math.cos(PI / 12) ** 2  # 0.9330127...
S2 = math.sin(PI / 12) ** 2  # 0.0669872...
HALF_A2 = 0.7165063509461096  # (1 + sqrt(3)/4) / 2
HALF_B2 = 1.0 - HALF_A2

#: (shots, seed) pairs no sampled run accepts
BAD_SAMPLING = [(5, -1), (2**63, 1), (5, 1.5), (5.0, 1), (True, 1), (5, True)]


def qpev_config(eta=PI / 3, aux=PI / 4, n=10, **kw):
    return QpeConfig(RunSettings(n, **kw), RotationSpec(Axis.Y, aux), (rx(-eta),))


def qpeh_config(eta=PI / 3, delta=PI / 3, aux=PI / 4, n=10, **kw):
    return QpeConfig(RunSettings(n, **kw), RotationSpec(Axis.X, aux), (rx(-eta), ry(delta)))


def prep_vector(gates) -> np.ndarray:
    v = np.array([1.0, 0.0], dtype=complex)
    for g in gates:
        v = g @ v
    return v


def estimation_distribution(config: QpeConfig) -> np.ndarray:
    """Independent oracle: the closed-form outcome distribution.

    Each auxiliary-rotation eigencomponent contributes its squared overlap
    times the Dirichlet kernel |sin(pi x) / (2^n sin(pi x / 2^n))|^2
    centered on its eigenphase bin.
    """
    n = config.run.counting_qubits
    dim = 1 << n
    target = prep_vector(config.target_prep)
    plus, minus = axis_eigenvectors(config.aux.axis)
    weights = [abs(np.vdot(plus, target)) ** 2, abs(np.vdot(minus, target)) ** 2]
    phis = [(-config.aux.angle / (4 * PI)) % 1.0, (config.aux.angle / (4 * PI)) % 1.0]
    m = np.arange(dim)
    total = np.zeros(dim)
    for phi, weight in zip(phis, weights):
        x = (phi * dim - m) % dim
        x = np.where(x > dim / 2, x - dim, x)
        with np.errstate(invalid="ignore", divide="ignore"):
            kernel = (np.sin(PI * x) / (dim * np.sin(PI * x / dim))) ** 2
        kernel = np.where(np.abs(x) < 1e-9, 1.0, kernel)
        total += weight * kernel
    return total


class TestExpectedBins:
    def test_default_configuration(self):
        bins = expected_bins(qpev_config())
        assert (bins.m_plus, bins.m_minus) == (960, 64)
        assert bins.dyadic_exact
        assert 960 / 1024 == 15 / 16 and 64 / 1024 == 1 / 16

    def test_four_bit_register(self):
        bins = expected_bins(qpev_config(n=4))
        assert (bins.m_plus, bins.m_minus) == (15, 1)

    def test_zero_angle_degenerates(self):
        bins = expected_bins(qpev_config(aux=0.0))
        assert (bins.m_plus, bins.m_minus) == (0, 0)
        assert bins.dyadic_exact

    def test_non_dyadic_flagged(self):
        assert not expected_bins(qpev_config(aux=1.0, n=6)).dyadic_exact

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 16), sign=st.sampled_from([1, -1]),
           u=st.floats(-3, 300))
    @example(n=6, sign=1, u=math.log10(3.3e15))
    def test_bins_follow_the_kernel_peak(self, n, sign, u):
        """The expected bins sit where readout_kernel peaks, also once
        2^n a / (4 pi) is too large for a float to keep its fraction."""
        aux = sign * 10.0 ** u
        try:
            config = qpev_config(n=n, aux=aux)
        except ConfigurationError:
            assume(False)
        kernel = readout_kernel(n, aux)
        second, first = np.sort(kernel)[-2:]
        assume(first - second >= 1e-9)
        bins = expected_bins(config)
        assert bins.m_minus == int(np.argmax(kernel))
        if bins.dyadic_exact:
            assert kernel[bins.m_minus] >= 1 - 1e-9


class TestRunQpe:
    def test_vertical_exact_two_bins(self):
        hist = run_qpe(qpev_config())
        assert hist.values[960] == pytest.approx(C2, abs=1e-10)
        assert hist.values[64] == pytest.approx(S2, abs=1e-10)
        assert np.delete(hist.values, [960, 64]).sum() <= 1e-12

    def test_horizontal_exact_two_bins(self):
        hist = run_qpe(qpeh_config())
        assert hist.values[960] == pytest.approx(HALF_A2, abs=1e-10)
        assert hist.values[64] == pytest.approx(HALF_B2, abs=1e-10)

    def test_vertical_sampled_within_three_sigma(self):
        shots = 10000
        hist = run_qpe(qpev_config(shots=shots, seed=7))
        sigma = math.sqrt(C2 * (1 - C2) / shots)
        p960, p64 = hist.probabilities([960, 64])
        assert abs(p960 - C2) <= 3 * sigma
        assert abs(p64 - S2) <= 3 * sigma
        # frequencies reported by other seeded runs sit inside the same band
        assert abs(0.9319 - C2) <= 3 * sigma
        assert abs(0.0681 - S2) <= 3 * sigma

    def test_horizontal_sampled_within_three_sigma(self):
        shots = 10000
        hist = run_qpe(qpeh_config(shots=shots, seed=7))
        sigma = math.sqrt(HALF_A2 * (1 - HALF_A2) / shots)
        assert abs(hist.probabilities([960])[0] - HALF_A2) <= 3 * sigma
        assert abs(0.7146 - HALF_A2) <= 3 * sigma
        assert abs(0.2854 - HALF_B2) <= 3 * sigma

    def test_dyadic_support_for_arbitrary_preparations(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            prep = (rx(rng.uniform(-PI, PI)), ry(rng.uniform(-PI, PI)))
            config = QpeConfig(RunSettings(8), RotationSpec(Axis.X, PI / 2), prep)
            hist = run_qpe(config)
            bins = expected_bins(config)
            assert np.delete(hist.values, [bins.m_plus, bins.m_minus]).sum() <= 1e-12

    def test_decoded_masses_equal_eigenbasis_overlaps(self):
        rng = np.random.default_rng(37)
        for axis in (Axis.X, Axis.Y):
            for _ in range(5):
                prep = (ry(rng.uniform(-PI, PI)), rx(rng.uniform(-PI, PI)))
                config = QpeConfig(RunSettings(6), RotationSpec(axis, PI / 4), prep)
                result = decode(run_qpe(config), config)
                plus, minus = axis_eigenvectors(axis)
                target = prep_vector(prep)
                assert result.p_plus == pytest.approx(
                    abs(np.vdot(plus, target)) ** 2, abs=1e-10)
                assert result.p_minus == pytest.approx(
                    abs(np.vdot(minus, target)) ** 2, abs=1e-10)

    def test_auxiliary_angle_is_irrelevant_when_dyadic(self):
        a = decode(run_qpe(qpev_config(aux=PI / 4)), qpev_config(aux=PI / 4))
        b = decode(run_qpe(qpev_config(aux=PI / 2)), qpev_config(aux=PI / 2))
        assert a.p_plus == pytest.approx(b.p_plus, abs=1e-10)
        assert a.p_minus == pytest.approx(b.p_minus, abs=1e-10)

    def test_shot_convergence_rates(self):
        for shots, seed in ((10 ** 3, 5), (10 ** 4, 6), (10 ** 5, 7)):
            hist = run_qpe(qpev_config(shots=shots, seed=seed))
            sigma = math.sqrt(C2 * (1 - C2) / shots)
            assert abs(hist.probabilities([960])[0] - C2) <= 5 * sigma

    def test_global_phase_transparency(self):
        base = run_qpe(qpev_config())
        phased = run_qpe(QpeConfig(
            aux=RotationSpec(Axis.Y, PI / 4),
            target_prep=(np.exp(0.7j) * rx(-PI / 3),),
        ))
        np.testing.assert_allclose(phased.values, base.values, rtol=0, atol=1e-12)

    def test_eigencomponent_phase_transparency(self):
        # an extra rotation about the auxiliary axis only multiplies the
        # eigencomponents by phases; the histogram cannot change
        base = run_qpe(qpeh_config())
        dressed = run_qpe(QpeConfig(
            aux=RotationSpec(Axis.X, PI / 4),
            target_prep=(rx(-PI / 3), ry(PI / 3), rx(0.913)),
        ))
        np.testing.assert_allclose(dressed.values, base.values, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        axis=st.sampled_from(Axis),
        prep_x=st.floats(-2 * PI, 2 * PI),
        prep_y=st.floats(-2 * PI, 2 * PI),
        aux=st.floats(-4 * PI, 4 * PI, exclude_min=True, exclude_max=True),
        n=st.integers(1, 10),
    )
    @example(axis=Axis.Y, prep_x=-PI / 3, prep_y=0.0, aux=1.0, n=6)
    @example(axis=Axis.X, prep_x=0.7, prep_y=-2.1, aux=100.1, n=16)
    @example(axis=Axis.Y, prep_x=0.7, prep_y=-2.1, aux=1000.3, n=16)
    def test_full_histogram_matches_closed_form(self, axis, prep_x, prep_y, aux, n):
        """run_qpe agrees per bin with the gate-by-gate circuit and with
        the closed-form oracle, also at the large auxiliary angles where an
        FFT of the kickback phases drifts."""
        config = QpeConfig(RunSettings(n), RotationSpec(axis, aux), (rx(prep_x), ry(prep_y)))
        probs = run_qpe(config).values
        np.testing.assert_allclose(probs, run_circuit(config).values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(probs, estimation_distribution(config), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [4, 10])
    @pytest.mark.parametrize("aux", [PI / 4, 1.0], ids=["dyadic", "leaky"])
    def test_sampled_readout_equals_circuit_per_seed(self, n, aux):
        for seed in range(50):
            config = qpev_config(n=n, aux=aux, shots=10_000, seed=seed)
            assert np.array_equal(run_qpe(config).values, run_circuit(config).values)

    @pytest.mark.parametrize("engine", [run_qpe, run_circuit])
    @pytest.mark.parametrize("gate", [2 * rx(0.3), np.full((2, 2), np.nan), np.eye(3)],
                             ids=["non-unitary", "non-finite", "not-2x2"])
    def test_bad_prep_gate_refused(self, engine, gate):
        with pytest.raises(ValueError, match="^gate "):
            engine(QpeConfig(RunSettings(3), target_prep=(ry(0.2), gate)))

    @pytest.mark.parametrize("step", [
        run_qpe,
        run_circuit,
        lambda config: decode(run_qpe(qpev_config(n=3, aux=PI)), config),
    ], ids=["run_qpe", "run_circuit", "decode"])
    def test_altered_config_rechecked(self, step):
        config = qpev_config(n=3, aux=PI, shots=5, seed=1)
        run, prep = config.run, config.target_prep
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.run.shots = 2**64
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.target_prep = (np.eye(2) * 2,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.run = RunSettings()
        assert config.run is run and config.run.shots == 5
        assert config.target_prep is prep
        step(config)


class TestDecode:
    def test_exact_vertical_window_zero(self):
        config = qpev_config()
        result = decode(run_qpe(config), config)
        assert result.p_plus == pytest.approx(C2, abs=1e-10)
        assert result.p_minus == pytest.approx(S2, abs=1e-10)
        assert result.coverage == pytest.approx(1.0, abs=1e-10)
        assert result.window == 0
        assert not result.warnings

    def test_peaks_carry_table_notation(self):
        config = qpev_config()
        result = decode(run_qpe(config), config)
        peak_plus, peak_minus = decode_payload(result, 10)["peaks"]
        assert peak_plus["m"] == 960
        assert peak_plus["bits"] == "0.1111000000"
        assert peak_plus["fraction"] == 15 / 16
        assert peak_plus["probability"] == result.p_plus
        assert peak_plus["signed_angle"] == pytest.approx(-PI / 8, abs=1e-12)
        assert peak_minus["signed_angle"] == pytest.approx(+PI / 8, abs=1e-12)
        assert peak_minus["probability"] == result.p_minus
        assert -PI < peak_plus["signed_angle"] <= PI

    def test_window_sums_keep_set_order(self):
        # both windows straddle a multiple of 32 (bins 32 and 992), where a
        # set iterates out of ascending order; summing in ascending order
        # changes the last bit of each mass
        config = qpev_config(eta=0.5, aux=0.392, n=10)
        result = decode(run_qpe(config), config)
        assert (result.m_plus, result.m_minus, result.window) == (992, 32, 2)
        assert result.p_plus == 0.7378370152070765
        assert result.p_minus == 0.25962977903025597

    def test_degenerate_bins_rejected(self):
        config = qpev_config(aux=0.0)
        hist = run_qpe(config)
        with pytest.raises(ConfigurationError):
            decode(hist, config)

    def test_overlapping_windows_rejected(self):
        # leaky, so window 2: bins 5 and 3 of 8 share bins 3, 4 and 5
        config = qpev_config(n=3, aux=1.6 * PI)
        hist = run_qpe(config)
        with pytest.raises(ConfigurationError):
            decode(hist, config)

    def test_histogram_width_must_match_config(self):
        with pytest.raises(ConfigurationError):
            decode(run_qpe(qpev_config(n=6)), qpev_config(n=10))

    def test_leaky_configuration_against_window_oracle(self):
        config = qpev_config(aux=1.0, n=6)
        hist = run_qpe(config)
        result = decode(hist, config)
        oracle = estimation_distribution(config)
        size = 1 << 6
        bins = expected_bins(config)
        expected_plus = sum(oracle[(bins.m_plus + d) % size] for d in range(-2, 3))
        expected_minus = sum(oracle[(bins.m_minus + d) % size] for d in range(-2, 3))
        assert result.p_plus == pytest.approx(expected_plus, abs=1e-10)
        assert result.p_minus == pytest.approx(expected_minus, abs=1e-10)
        assert 0.90 <= result.coverage < 1.0
        assert result.window == 2

    def test_leakage_warning_below_threshold(self):
        # eigenphases half a bin off center: coverage 0.923 < 0.98
        config = qpev_config(aux=11 * PI / 32, n=6)
        result = decode(run_qpe(config), config)
        assert result.coverage < 0.98
        assert any("leakage" in w for w in result.warnings)

    def test_auto_window_defaults(self):
        dyadic = qpev_config()
        assert decode(run_qpe(dyadic), dyadic).window == 0
        leaky = qpev_config(aux=1.0, n=6)
        assert decode(run_qpe(leaky), leaky).window == 2


class TestFormatBinary:
    def test_fraction_strings(self):
        assert format_binary(64, 10) == "0.0001000000"
        assert format_binary(960, 10) == "0.1111000000"
        assert format_binary(2, 5) == "0.00010"

    def test_range_checked(self):
        with pytest.raises(ValueError):
            format_binary(32, 5)
        with pytest.raises(ValueError):
            format_binary(-1, 5)


class TestQpeConfig:
    """A config's register width, shots and seed are its RunSettings,
    which checks them; the config checks its run, aux and prep gates."""

    @pytest.mark.parametrize("n", [0, 17, True])
    def test_counting_width_bounds(self, n):
        with pytest.raises(ConfigurationError):
            RunSettings(counting_qubits=n)

    def test_sampled_needs_seed(self):
        with pytest.raises(ConfigurationError):
            RunSettings(shots=100, seed=None)

    def test_sampled_needs_positive_shots(self):
        with pytest.raises(ConfigurationError):
            RunSettings(seed=1, shots=0)

    def test_mode_follows_shots(self):
        assert RunSettings().mode == "exact"
        assert RunSettings(shots=5, seed=1).mode == "sampled"

    @pytest.mark.parametrize("shots, seed", BAD_SAMPLING)
    def test_bad_sampling_refused_at_construction(self, shots, seed):
        with pytest.raises(ConfigurationError):
            RunSettings(shots=shots, seed=seed)

    @pytest.mark.parametrize("shots, seed", BAD_SAMPLING)
    def test_full_pipeline_refuses_bad_sampling(self, shots, seed):
        with pytest.raises(ConfigurationError):
            full_pipeline(PathParams(PI / 3, PI / 3),
                          RunSettings(4, shots, seed), PI / 4, PI / 4)

    def test_full_pipeline_rechecks_an_altered_config(self):
        aux = RotationSpec(Axis.Y, PI / 4)
        config = QpeConfig(RunSettings(4, 5, 1), aux)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.aux = RotationSpec(Axis.X, 1.0)
        assert config.aux is aux

    def test_exact_config_drops_seed(self):
        assert RunSettings(seed=3).seed is None

    # a whole QpeConfig first: its aux and prep would take no effect
    @pytest.mark.parametrize("run", [QpeConfig(aux=RotationSpec(Axis.X, 1.0)), 4, None])
    def test_full_pipeline_refuses_a_whole_config(self, run):
        with pytest.raises(ConfigurationError, match="RunSettings"):
            full_pipeline(PathParams(PI / 3, PI / 3), run, PI / 4, PI / 4)

    @pytest.mark.parametrize("shots", [None, 500])
    def test_prep_gates_are_frozen_copies(self, shots):
        gate = np.array(rx(-PI / 3), dtype=np.complex128)
        config = QpeConfig(RunSettings(6, shots, 3), RotationSpec(Axis.Y, 1.0), (gate, ry(0.4)))
        before = (run_qpe(config).values, run_circuit(config).values,
                  decode(run_qpe(config), config))
        gate[...] = 2 * rx(0.3)
        after = (run_qpe(config).values, run_circuit(config).values,
                 decode(run_qpe(config), config))
        assert np.array_equal(after[0], before[0])
        assert np.array_equal(after[1], before[1])
        assert after[2] == before[2]
        assert all(not g.flags.writeable for g in config.target_prep)
        assert all(g.dtype == np.complex128 for g in config.target_prep)

    def test_sampling_determinism(self):
        config = qpev_config(shots=2000, seed=99)
        assert np.array_equal(run_qpe(config).values, run_qpe(config).values)
