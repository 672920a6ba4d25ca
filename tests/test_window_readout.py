"""An exact run reads its bins, their decode windows and the kernel at
every window outcome from one cached window readout per (width, angle).
At a dyadic angle it builds its histogram from those two bins in Python
floats, and every other run reads the full kernel: both give the
histogram of the dense readout over every outcome, bit for bit, and a
dyadic exact request makes no numpy call. decode_exact reads any exact
run at its windows from the same cache, as decode reads its histogram,
and a sampled run never reads the cache."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinqpe.cli as cli
import spinqpe.extraction as extraction
import spinqpe.qpe as qpe
from spinqpe import Axis, PathParams, QpeConfig, RotationSpec, RunSettings, full_pipeline, rx, ry
from spinqpe.cli import main
from spinqpe.errors import ConfigurationError
from spinqpe.qpe import (ExpectedBins, _window_readout, decode, decode_exact, expected_bins,
                         histogram_from_probabilities, readout_kernel, run_qpe,
                         sample_probabilities)

from histograms import identical
from test_qpe import kernel_angles, reference_probabilities

PI = math.pi

#: angles whose two bins are one, so their decode windows overlap
ONE_BIN_ANGLES = [0.0, -0.0, 2 * PI, -2 * PI, 4 * PI]


def _array_readout(config: QpeConfig):
    """run_qpe with the window readout reporting a leaky angle, so the
    full kernel's arrays are read."""
    leaky = (ExpectedBins(config.run.counting_qubits, 0, 0, False), None, None)
    with mock.patch.object(qpe, "_window_readout", lambda n, angle: leaky):
        return run_qpe(config)


def _refused(*key):
    """Stands in for a function that the run must not call."""
    raise AssertionError("called a function the run must not call")


def _dense_readout(config: QpeConfig):
    """histogram_from_probabilities of the readout over every outcome, from
    the independent per-bit broadcast kernel."""
    return histogram_from_probabilities(reference_probabilities(config))


@st.composite
def readout_angles(draw, n):
    """A dyadic angle, one near it, or a leaky one."""
    k = draw(st.integers(-(1 << 20), 1 << 20))
    dyadic = 4 * PI * k / (1 << n)
    return draw(st.sampled_from([dyadic, dyadic + draw(st.floats(-1e-7, 1e-7)),
                                 draw(st.floats(-4 * PI, 4 * PI))]))


@st.composite
def preps(draw):
    """A target preparation of up to three rx and ry gates."""
    gates = draw(st.lists(st.tuples(st.sampled_from([rx, ry]), st.floats(-2 * PI, 2 * PI)),
                          max_size=3))
    return tuple(gate(angle) for gate, angle in gates)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 16), axis=st.sampled_from(Axis), prep=preps())
def test_scalar_readout_is_the_array_readout(data, n, axis, prep):
    """An exact run is the readout of the full dense kernel, bit for bit,
    and at a dyadic angle, where it reads two bins in Python floats, it is
    also the array readout of the full cached kernel."""
    aux = data.draw(readout_angles(n))
    config = QpeConfig(RunSettings(n), RotationSpec(axis, aux), prep)
    got = run_qpe(config)
    assert type(got.outcomes) in (tuple, range) and type(got.weights) is tuple
    assert identical(got, _dense_readout(config))
    if expected_bins(config).dyadic_exact:
        assert identical(got, _array_readout(config))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 16), k=st.integers(-(1 << 20), 1 << 20),
       axis=st.sampled_from(Axis), prep=preps())
@example(n=16, k=1 << 12, axis=Axis.Y, prep=())  # pi/4, the default auxiliary angle
def test_dyadic_exact_run_builds_no_kernel(n, k, axis, prep):
    """An exact run at a dyadic angle never calls readout_kernel, and
    holds at most its two bins, the outcomes its window readout lists."""
    aux = 4 * PI * k / (1 << n)
    config = QpeConfig(RunSettings(n), RotationSpec(axis, aux), prep)
    with mock.patch.object(qpe, "readout_kernel", _refused):
        hist = run_qpe(config)
    bins = expected_bins(config)
    listed = {m for m, _, _ in _window_readout(n, aux)[2]}
    assert set(hist.outcomes) <= listed == {bins.m_minus, bins.m_plus}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 16), axis=st.sampled_from(Axis), prep=preps())
def test_decode_exact_is_decode_of_the_run(data, n, axis, prep):
    """decode_exact's result for an exact run is decode's result for the
    run's histogram, to the sign of a zero (repr), on either axis and at
    dyadic, near-dyadic, leaky and one-bin angles; where the windows
    overlap, both refuse with one message, and a one-bin angle's run
    still holds its one bin."""
    aux = data.draw(st.one_of(readout_angles(n), st.sampled_from(ONE_BIN_ANGLES)))
    config = QpeConfig(RunSettings(n), RotationSpec(axis, aux), prep)
    hist = run_qpe(config)
    if aux in ONE_BIN_ANGLES:
        bins = expected_bins(config)
        assert bins.m_plus == bins.m_minus and hist.outcomes == (bins.m_minus,)
    try:
        want = decode(hist, config)
    except ConfigurationError as err:
        with pytest.raises(ConfigurationError) as refused:
            decode_exact(config)
        assert str(refused.value) == str(err)
        return
    assert repr(decode_exact(config)) == repr(want)


def test_one_bin_angle_holds_its_bin_and_refuses_to_decode():
    """At a one-bin angle, at every width and on either axis, the exact
    run holds that bin alone, read from the cached window readout with no
    kernel, and decode and decode_exact refuse it with one message."""
    for aux in ONE_BIN_ANGLES:
        for n in range(1, 17):
            for axis in Axis:
                config = QpeConfig(RunSettings(n), RotationSpec(axis, aux), (rx(0.3),))
                bins = expected_bins(config)
                with mock.patch.object(qpe, "readout_kernel", _refused):
                    hist = run_qpe(config)
                assert bins.dyadic_exact and bins.m_plus == bins.m_minus
                assert hist.outcomes == (bins.m_minus,)
                with pytest.raises(ConfigurationError, match="overlap") as refused:
                    decode(hist, config)
                with pytest.raises(ConfigurationError) as refused_exact:
                    decode_exact(config)
                assert str(refused_exact.value) == str(refused.value)


def mirrors_itself(windows, n) -> bool:
    """Whether the mirror -m mod 2^n of every outcome m of the two
    windows is an outcome of the two windows, as the window readout,
    which reads every K(-m) from the K it computed at them, needs."""
    outcomes = windows[0] | windows[1]
    return {-m % (1 << n) for m in outcomes} == outcomes


def window_angles(n):
    """An angle of every family a window readout is read at: dyadic, near
    dyadic, leaky, huge or one-bin."""
    return st.one_of(readout_angles(n), kernel_angles(n), st.sampled_from(ONE_BIN_ANGLES))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 16))
def test_short_list_is_the_kernel(data, n):
    """The window readout holds the bins, their windows and, at every
    window outcome m, ascending, K(m) and K(-m): the full kernel's own
    values as Python numbers, bit for bit, though it computes them with
    math.cos and the kernel with np.cos. The window outcomes are their
    own mirrors, and at a dyadic angle the windows are the two bins."""
    aux = data.draw(window_angles(n))
    kernel = readout_kernel(n, aux).tolist()
    want = expected_bins(QpeConfig(RunSettings(n), RotationSpec(Axis.Y, aux)))
    bins, windows, triples = _window_readout(n, aux)
    assert repr(bins) == repr(want) and windows == want.windows()
    assert [m for m, _, _ in triples] == sorted(windows[0] | windows[1])
    assert mirrors_itself(windows, n)
    if bins.dyadic_exact:
        assert windows == ({bins.m_plus}, {bins.m_minus})
    for m, value, mirror in triples:
        assert (type(m), type(value), type(mirror)) == (int, float, float)
        assert (value.hex(), mirror.hex()) == (kernel[m].hex(), kernel[-m % (1 << n)].hex())


def test_overlapping_and_one_bin_windows_mirror_each_other():
    """Closed under the mirror too where the two windows overlap: at a
    one-bin angle, and at a leaky angle whose bins are close, as near 0
    or 2 pi or at any angle on a narrow register."""
    for n in range(1, 17):
        step = 4 * PI / (1 << n)  # one bin
        leaky = [0.3 * step, -1.7 * step, 2 * PI + 0.4 * step, -2 * PI - 1.2 * step]
        for aux in ONE_BIN_ANGLES + leaky + ([1.234, -2.5] if n <= 2 else []):
            bins = expected_bins(QpeConfig(RunSettings(n), RotationSpec(Axis.Y, aux)))
            windows = bins.windows()
            assert windows[0] & windows[1]
            assert (aux in ONE_BIN_ANGLES) == (windows[0] == windows[1] == {bins.m_minus})
            assert mirrors_itself(windows, n)


def test_nan_reaches_the_histogram():
    """A NaN readout is not dust: it is held, and the Histogram refuses it,
    read from two bins or from the full kernel."""
    config = QpeConfig(RunSettings(1), RotationSpec(Axis.Y, 0.0))
    nan_bins = ((0, math.nan, math.nan), (1, 0.5, 0.5))
    readout = (ExpectedBins(1, 1, 0, True), ({1}, {0}), nan_bins)
    with mock.patch.object(qpe, "_window_readout", lambda n, angle: readout):
        with pytest.raises(ValueError, match="not positive"):
            run_qpe(config)
    nan_kernel = np.array([math.nan, 0.5])
    with mock.patch.object(qpe, "readout_kernel", lambda n, angle: nan_kernel):
        with pytest.raises(ValueError, match="not positive"):
            _array_readout(config)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 16), axis=st.sampled_from(Axis), prep=preps(),
       shots=st.integers(1, 10**5), seed=st.integers(0, 2**32))
def test_sampled_run_never_reads_the_window_readout(data, n, axis, prep, shots, seed):
    """A sampled run, at a dyadic angle or a leaky one, runs with the
    window readout refusing every call, and draws from the full vector
    for its seed: no sampled request computes K at the windows."""
    aux = data.draw(readout_angles(n))
    config = QpeConfig(RunSettings(n, shots, seed), RotationSpec(axis, aux), prep)
    with mock.patch.object(qpe, "_window_readout", _refused):
        got = run_qpe(config)
    assert identical(got, sample_probabilities(reference_probabilities(config), shots, seed))


def test_leaky_exact_pipeline_builds_one_window_readout():
    """An exact pipeline at one leaky angle computes its window readout
    once, for the vertical run, and the horizontal run reads it cached."""
    full_pipeline(PathParams(0.4, -0.7), RunSettings(12), 1.0, 1.0)
    info = _window_readout.cache_info()
    assert (info.misses, info.hits) == (1, 1)


#: dyadic exact requests at the default auxiliary angle pi/4
EXACT_REQUESTS = [
    ["pipeline", "--eta", "0.4", "--delta=-0.7", "--exact", "--n", "16"],
    ["qpev", "--eta", "0.4", "--exact", "--n", "16"],
    ["qpeh", "--eta", "0.4", "--delta", "0.3", "--exact", "--n", "16"],
]


@pytest.mark.parametrize("argv", EXACT_REQUESTS, ids=[argv[0] for argv in EXACT_REQUESTS])
def test_warm_exact_request_makes_no_numpy_call(capsys, monkeypatch, argv):
    """A dyadic exact request runs, decodes and writes its record with
    numpy unimportable, cold and then warm, byte for byte as with numpy;
    it builds no readout kernel, and its histograms hold tuples."""
    assert main(argv) == 0  # with numpy importable
    want = capsys.readouterr()
    _window_readout.cache_clear()
    hists = []

    def recording(config):
        hists.append(run_qpe(config))
        return hists[-1]

    for module in (cli, extraction):
        monkeypatch.setattr(module, "run_qpe", recording)
    monkeypatch.setitem(sys.modules, "numpy", None)
    for _ in range(2):  # cold, then warm
        assert main(argv) == 0
        assert capsys.readouterr() == want
    assert len(hists) == 2 * (2 if argv[0] == "pipeline" else 1)
    assert _window_readout.cache_info().hits >= 1
    assert readout_kernel.cache_info().misses == 0
    for hist in hists:
        assert type(hist.outcomes) is tuple and type(hist.weights) is tuple
        assert all(type(w) is float for w in hist.weights)
    with pytest.raises(ImportError):
        import numpy  # noqa: F401
