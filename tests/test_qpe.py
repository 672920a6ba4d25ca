import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinqpe import (
    Axis,
    ConfigurationError,
    ExpectedBins,
    Histogram,
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
from spinqpe.qpe import (
    PROBABILITY_FLOOR,
    _target_overlaps,
    _window_readout,
    histogram_from_probabilities,
    readout_kernel,
    run_circuit,
    sample_probabilities,
)
from spinqpe.records import decode_payload

from histograms import dense, identical, support

PI = math.pi
#: pi to 100 digits, exact as a rational
EXACT_PI = Fraction("3.14159265358979323846264338327950288419716939937510"
                    "58209749445923078164062862089986280348253421170679")
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
        v = np.array(g) @ v
    return v


@st.composite
def kernel_angles(draw, n):
    """A dyadic angle, one near it, an arbitrary (leaky) one or a huge one."""
    k = draw(st.integers(-(1 << 20), 1 << 20))
    return draw(st.sampled_from([
        4 * PI * k / (1 << n),
        4 * PI * k / (1 << n) + draw(st.floats(-1e-6, 1e-6)),
        draw(st.floats(-4 * PI, 4 * PI)),
        draw(st.sampled_from([1, -1])) * 10.0 ** draw(st.floats(3, 15)),
    ]))


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

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=st.integers(1, 16).flatmap(lambda n: st.tuples(st.just(n), kernel_angles(n))))
    @example(case=(1, 6146664.256825195))  # 9.98e-10 from its bin: dyadic
    @example(case=(1, 2690981.4529147884))  # 1.026e-9 from its bin: leaky
    def test_bins_match_an_exact_rational_reference(self, case):
        """m_minus is x = 2^n a / (4 pi) rounded, and the run is dyadic
        exactly when x is within 1e-9 of it, with x computed in rationals.
        Draws within float error of a half-integer or of the tolerance
        are skipped: there a float x cannot decide."""
        n, aux = case
        x = Fraction(aux) * 2**n / (4 * EXACT_PI)
        distance = abs(x - round(x))
        margin = 2**n * 1e-15
        assume(abs(distance - Fraction(1, 2)) > margin and abs(distance - 1e-9) > margin)
        bins = expected_bins(qpev_config(n=n, aux=aux))
        assert bins.m_minus == round(x) % 2**n
        assert bins.dyadic_exact == (distance <= 1e-9)


class TestRunQpe:
    def test_vertical_exact_two_bins(self):
        probs = dense(run_qpe(qpev_config()))
        assert probs[960] == pytest.approx(C2, abs=1e-10)
        assert probs[64] == pytest.approx(S2, abs=1e-10)
        assert np.delete(probs, [960, 64]).sum() <= 1e-12

    def test_horizontal_exact_two_bins(self):
        probs = dense(run_qpe(qpeh_config()))
        assert probs[960] == pytest.approx(HALF_A2, abs=1e-10)
        assert probs[64] == pytest.approx(HALF_B2, abs=1e-10)

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
            assert np.delete(dense(hist), [bins.m_plus, bins.m_minus]).sum() <= 1e-12

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
            target_prep=(np.exp(0.7j) * np.array(rx(-PI / 3)),),
        ))
        np.testing.assert_allclose(dense(phased), dense(base), rtol=0, atol=1e-12)

    def test_eigencomponent_phase_transparency(self):
        # an extra rotation about the auxiliary axis only multiplies the
        # eigencomponents by phases; the histogram cannot change
        base = run_qpe(qpeh_config())
        dressed = run_qpe(QpeConfig(
            aux=RotationSpec(Axis.X, PI / 4),
            target_prep=(rx(-PI / 3), ry(PI / 3), rx(0.913)),
        ))
        np.testing.assert_allclose(dense(dressed), dense(base), rtol=0, atol=1e-12)

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
        probs = dense(run_qpe(config))
        np.testing.assert_allclose(probs, dense(run_circuit(config)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(probs, estimation_distribution(config), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [4, 10])
    @pytest.mark.parametrize("aux", [PI / 4, 1.0], ids=["dyadic", "leaky"])
    def test_sampled_readout_equals_circuit_per_seed(self, n, aux):
        for seed in range(50):
            config = qpev_config(n=n, aux=aux, shots=10_000, seed=seed)
            assert identical(run_qpe(config), run_circuit(config))

    @pytest.mark.parametrize("engine", [run_qpe, run_circuit])
    @pytest.mark.parametrize("gate",
                             [2 * np.array(rx(0.3)), np.full((2, 2), np.nan), np.eye(3)],
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
        with pytest.raises(AttributeError):
            config.run.shots = 2**64
        with pytest.raises(AttributeError):
            config.target_prep = (np.eye(2) * 2,)
        with pytest.raises(AttributeError):
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
        peak_plus, peak_minus = decode_payload(result)["peaks"]
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

    def test_result_is_its_bins_plus_the_measured_masses(self):
        config = qpev_config(aux=1.0, n=6)
        result = decode(run_qpe(config), config)
        assert isinstance(result, ExpectedBins)
        assert result._fields == (
            "num_bits", "m_plus", "m_minus", "dyadic_exact", "p_plus", "p_minus", "warnings")
        bins = expected_bins(config)
        assert bins._values() == result._values()[:len(bins._fields)]
        assert result.coverage == result.p_plus + result.p_minus
        for name in ("num_bits", "p_plus", "window", "coverage"):
            with pytest.raises(AttributeError):
                setattr(result, name, 0)

    @pytest.mark.parametrize("shots", [None, 20])
    def test_window_bins_not_held_read_zero(self, shots):
        # leaky, so window 2: the windows are bins 57..61 around m_plus 59
        # and 3..7 around m_minus 5; the histogram holds one bin of each,
        # and bins 0 and 63 outside both
        config = qpev_config(aux=1.0, n=6)
        assert (expected_bins(config).m_plus, expected_bins(config).m_minus) == (59, 5)
        outcomes = np.array([0, 6, 60, 63])
        if shots is None:
            hist = Histogram(6, outcomes, np.array([0.125, 0.25, 0.5, 0.125]))
        else:
            hist = Histogram(6, outcomes, np.array([4, 5, 10, 1]), total_shots=20, seed=0)
        result = decode(hist, config)
        assert (result.p_plus, result.p_minus) == (0.5, 0.25)
        assert result.warnings  # coverage 0.75

    def test_window_holding_every_shot_has_mass_one(self):
        # the 20 rounded count/shots ratios of the plus window add up to
        # 1.0000000000000002
        config = QpeConfig(RunSettings(5, 20, 24), RotationSpec(Axis.X, 1.0),
                           (rx(-0.4), ry(PI / 2)))
        result = decode(run_qpe(config), config)
        assert result.p_plus == 1.0
        assert result.p_minus == 0.0


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
        with pytest.raises(AttributeError):
            config.aux = RotationSpec(Axis.X, 1.0)
        assert config.aux is aux

    def test_aux_must_be_a_rotation_spec(self):
        with pytest.raises(ConfigurationError, match="aux must be a RotationSpec"):
            QpeConfig(aux=0.3)

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
        before = (run_qpe(config), run_circuit(config), decode(run_qpe(config), config))
        gate[...] = 2 * np.array(rx(0.3))
        after = (run_qpe(config), run_circuit(config), decode(run_qpe(config), config))
        assert identical(after[0], before[0])
        assert identical(after[1], before[1])
        assert after[2] == before[2]
        assert all(type(g) is tuple and all(type(row) is tuple for row in g)
                   for g in config.target_prep)

    def test_sampling_determinism(self):
        config = qpev_config(shots=2000, seed=99)
        assert identical(run_qpe(config), run_qpe(config))


def broadcast_kernel(n, angle):
    """readout_kernel as a fresh broadcast product per bit over every
    outcome: the form its values must reproduce bit for bit."""
    ramp = np.arange(1 << n, dtype=np.float64)
    kernel = np.ones(1)
    for l in range(n - 1, -1, -1):
        c = math.ldexp(angle, l - 2)
        span = 1 << (n - l)
        factor = ramp[:span] * (-PI / span)
        factor += math.atan2(math.sin(c), math.cos(c))
        np.cos(factor, out=factor)
        factor *= factor
        kernel = (factor.reshape(2, -1) * kernel).reshape(-1)
    return kernel


def reference_probabilities(config):
    """P(m) = w_minus K(m) + w_plus K(-m) over every outcome, from the
    full kernel."""
    kernel = broadcast_kernel(config.run.counting_qubits, config.aux.angle)
    w_plus, w_minus = _target_overlaps(config)
    probs = w_minus * kernel
    probs[0] += w_plus * kernel[0]
    probs[1:] += w_plus * kernel[:0:-1]
    return probs


@st.composite
def aux_angles(draw, n):
    """A dyadic angle (4 pi k / 2^n, a bin centre) or an arbitrary one."""
    if draw(st.booleans()):
        k = draw(st.integers(1, (1 << (n - 1)) - 1)) * draw(st.sampled_from([1, -1]))
        return 4 * PI * k / (1 << n)
    return draw(st.floats(-4 * PI, 4 * PI))


class TestSharedKernel:
    """One readout kernel serves every run of its width and angle, exact
    or sampled: a process builds it once and keeps the last two,
    read-only. An exact run's window readout, the bins, their windows and
    K there, is cached the same way."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(2, 16), axis=st.sampled_from(Axis),
           prep=st.lists(st.tuples(st.sampled_from([rx, ry]), st.floats(-2 * PI, 2 * PI)),
                         max_size=3),
           sampled=st.booleans(), seed=st.integers(0, 2**32))
    def test_warm_cache_gives_the_cold_readout(self, data, n, axis, prep, sampled, seed):
        aux = data.draw(aux_angles(n))
        run = RunSettings(n, 10_000, seed) if sampled else RunSettings(n)
        config = QpeConfig(run, RotationSpec(axis, aux), tuple(g(a) for g, a in prep))
        run_qpe(config)
        warm = run_qpe(config)
        assert readout_kernel.cache_info().hits + _window_readout.cache_info().hits >= 1
        readout_kernel.cache_clear()
        _window_readout.cache_clear()
        assert identical(warm, run_qpe(config))

    @pytest.mark.parametrize("n", [1, 2, 10, 16])
    @pytest.mark.parametrize("aux", [PI / 4, 0.3, -0.0, 3.3e5])
    def test_in_place_build_is_bit_identical(self, n, aux):
        reference = broadcast_kernel(n, aux)
        kernel = readout_kernel(n, aux)
        assert kernel.dtype == reference.dtype
        assert kernel.tobytes() == reference.tobytes()

    def test_kernel_is_read_only(self):
        """Read-only as built, and as a cache hit returns it."""
        dyadic, leaky = readout_kernel(6, PI / 4), readout_kernel(6, 1.0)
        assert readout_kernel.cache_info().misses == 2
        hit = readout_kernel(6, 1.0)
        assert readout_kernel.cache_info().hits == 1 and hit is leaky
        assert dyadic.shape == hit.shape == (64,)
        for array in (dyadic, hit):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 2

    @pytest.mark.parametrize("shots", [None, 500])
    def test_run_leaves_the_cached_kernel_unchanged(self, shots):
        for aux in (1.0, PI / 4):
            config = qpeh_config(n=8, aux=aux, shots=shots, seed=4)
            kernel = readout_kernel(8, aux)
            before = kernel.copy()
            run_qpe(config)
            assert readout_kernel(8, aux) is kernel
            assert np.array_equal(kernel, before)
            assert not kernel.flags.writeable

    def test_exact_and_sampled_runs_share_a_kernel(self):
        """At a leaky angle an exact and a sampled run read one kernel:
        one build between them."""
        for shots in (None, 500, None):
            run_qpe(qpeh_config(n=8, aux=1.0, shots=shots, seed=4))
        info = readout_kernel.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_cache_is_bounded(self):
        """A stream of distinct leaky angles, each a new key, keeps at most
        two kernels: what tracemalloc sees held after 64 runs is within
        three kernels' bytes of what it sees held after one."""
        angles = [0.3 + 0.01 * k for k in range(64)]
        configs = [qpev_config(n=12, aux=aux) for aux in angles]
        run_qpe(configs[0])  # imports and first-call caches are not the stream's
        readout_kernel.cache_clear()
        tracemalloc.start()
        try:
            run_qpe(configs[0])
            after_one = tracemalloc.get_traced_memory()[0]
            for config in configs[1:]:
                run_qpe(config)
            after_all = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        kernel = readout_kernel(12, angles[-1])
        assert kernel.size == 1 << 12
        assert after_all - after_one <= 3 * kernel.nbytes
        info = readout_kernel.cache_info()
        assert (info.maxsize, info.misses) == (2, 64) and info.currsize <= 2

    @pytest.mark.parametrize("n", [1, 10, 16])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("first", [-0.0, 0.0])
    def test_signed_zeros_share_a_kernel(self, n, mode, first):
        """-0.0 and 0.0 are one cache key, in either call order, for the
        window readout an exact run reads there and for the full kernel a
        sampled run reads, and either gets what a cold build of it makes."""
        cache, built = ((_window_readout, lambda zero: repr(_window_readout(n, zero)))
                        if mode == "exact" else
                        (readout_kernel, lambda zero: readout_kernel(n, zero).tobytes()))
        cold = {}  # keyed by repr: -0.0 and 0.0 are one dict key as well
        for zero in (-0.0, 0.0):
            cache.cache_clear()
            cold[repr(zero)] = built(zero)
        cache.cache_clear()
        for zero in (first, -first):
            assert built(zero) == cold[repr(zero)]
        assert cache.cache_info().misses == 1

    def test_angle_need_not_be_hashable(self):
        """run_qpe keys the kernel by the angle as a float, so a 0-d array
        angle reads what the float angle reads."""
        array, scalar = (QpeConfig(RunSettings(6), RotationSpec(Axis.Y, angle))
                         for angle in (np.array(0.3), 0.3))
        assert identical(run_qpe(array), run_qpe(scalar))


class TestKeptOutcomes:
    """The kernel lists every outcome, and the readout holds the outcomes
    of the dense readout that are not 0, byte for byte."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 16))
    def test_kept_values_are_the_full_kernel(self, data, n):
        aux = data.draw(kernel_angles(n))
        kernel = readout_kernel(n, aux)
        reference = broadcast_kernel(n, aux)
        assert kernel.dtype == reference.dtype and kernel.shape == (1 << n,)
        assert kernel.tobytes() == reference.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 16))
    def test_kept_values_follow_the_fejer_closed_form(self, data, n):
        """K(m) = sin^2(2^n x / 2) / (4^n sin^2(x / 2)), x = h - 2 pi m / 2^n
        with h the half angle reduced into (-pi, pi], and 1 where the
        denominator is 0: an oracle for the kernel that needs no engine
        and no product over the bits."""
        aux = data.draw(kernel_angles(n))
        kernel = readout_kernel(n, aux)
        h = math.atan2(math.sin(aux / 2), math.cos(aux / 2))
        x = h - 2 * PI * np.arange(1 << n) / (1 << n)
        numerator = np.sin(math.ldexp(1.0, n - 1) * x) ** 2
        denominator = 4.0**n * np.sin(x / 2) ** 2
        with np.errstate(invalid="ignore", divide="ignore"):
            fejer = np.where(denominator == 0, 1.0, numerator / denominator)
        assert np.abs(kernel - fejer).max() <= 1e-10

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 16), axis=st.sampled_from(Axis),
           prep=st.lists(st.tuples(st.sampled_from([rx, ry]), st.floats(-2 * PI, 2 * PI)),
                         max_size=3),
           shots=st.one_of(st.none(), st.integers(1, 10**5)), seed=st.integers(0, 2**32))
    def test_readout_equals_the_full_kernel_readout(self, data, n, axis, prep, shots, seed):
        aux = data.draw(kernel_angles(n))
        try:
            config = QpeConfig(RunSettings(n, shots, seed), RotationSpec(axis, aux),
                               tuple(g(a) for g, a in prep))
        except ConfigurationError:
            assume(False)
        probs = reference_probabilities(config)
        if shots is None:
            want = histogram_from_probabilities(probs)
            vector = probs * (probs > PROBABILITY_FLOOR)
        else:
            want = sample_probabilities(probs, shots, seed)
            vector = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
        got = run_qpe(config)
        assert identical(got, want)
        # spread over every outcome, the histogram is the dense readout
        assert dense(got).dtype == vector.dtype
        assert dense(got).tobytes() == vector.tobytes()
        assert support(got)[0] == np.flatnonzero(vector).tolist()

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_dust_at_a_kept_outcome_is_not_held(self, n):
        # the target is |+x> to about 1e-8, so its |-x> component puts about
        # 2.5e-17 at m_minus, one of the two bins the dyadic run reads: dust,
        # not held
        config = QpeConfig(RunSettings(n), RotationSpec(Axis.X, PI), (ry(PI / 2 + 1e-8),))
        probs = reference_probabilities(config)
        assert 0 < probs[expected_bins(config).m_minus] <= PROBABILITY_FLOOR
        hist = run_qpe(config)
        assert dense(hist).tobytes() == (probs * (probs > PROBABILITY_FLOOR)).tobytes()
        assert support(hist)[0] == [expected_bins(config).m_plus]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 16), k=st.integers(-(1 << 20), 1 << 20))
    @example(n=16, k=1 << 12)  # pi/4, the default auxiliary angle
    @example(n=1, k=1)
    def test_dyadic_angle_keeps_at_most_two_outcomes(self, n, k):
        """The readout of a dyadic angle fills two bins, its decode windows,
        and an exact run reads K at those alone: no 2^n-wide work."""
        aux = 4 * PI * k / (1 << n)
        bins = expected_bins(qpev_config(n=n, aux=aux))
        _, windows, triples = _window_readout(n, aux)
        assert windows == ({bins.m_plus}, {bins.m_minus})
        assert [m for m, _, _ in triples] == sorted({bins.m_minus, bins.m_plus})
