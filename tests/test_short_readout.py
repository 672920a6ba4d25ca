"""An exact run at a dyadic angle reads the kernel at its two bins alone,
from kernel_at in Python floats, and every other run reads the full
kernel: both give the histogram of the dense readout over every outcome,
bit for bit, and a dyadic exact request makes no numpy call."""

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
from spinqpe import Axis, QpeConfig, RotationSpec, RunSettings, rx, ry
from spinqpe.cli import main
from spinqpe.errors import ConfigurationError
from spinqpe.qpe import (_dyadic_triples, decode, expected_bins, histogram_from_probabilities,
                         readout_kernel, run_qpe, window_decoder)

from histograms import identical
from test_qpe import reference_probabilities

PI = math.pi


def _array_readout(config: QpeConfig):
    """run_qpe with the two-bin read of a dyadic angle turned off, so the
    full kernel's arrays are read."""
    with mock.patch.object(qpe, "_dyadic_triples", lambda n, angle: None):
        return run_qpe(config)


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
    holds at most its two bins."""
    config = QpeConfig(RunSettings(n), RotationSpec(axis, 4 * PI * k / (1 << n)), prep)

    def refused(*key):
        raise AssertionError("a dyadic exact run built a readout kernel")

    with mock.patch.object(qpe, "readout_kernel", refused):
        hist = run_qpe(config)
    bins = expected_bins(config)
    assert set(hist.outcomes) <= {bins.m_minus, bins.m_plus}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 16), axis=st.sampled_from(Axis), prep=preps())
def test_window_decoder_is_decode_of_the_run(data, n, axis, prep):
    """window_decoder's result for an exact run is decode's result for
    the run's histogram, to the sign of a zero (repr), on either axis and
    at dyadic, near-dyadic and leaky angles; where the windows overlap,
    both refuse with one message."""
    aux = data.draw(readout_angles(n))
    config = QpeConfig(RunSettings(n), RotationSpec(axis, aux), prep)
    try:
        want = decode(run_qpe(config), config)
    except ConfigurationError as err:
        with pytest.raises(ConfigurationError) as refused:
            window_decoder(n, aux)
        assert str(refused.value) == str(err)
        return
    assert repr(window_decoder(n, aux)(config)) == repr(want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 16), k=st.integers(-(1 << 20), 1 << 20))
def test_short_list_is_the_kernel(n, k):
    """The short list a dyadic exact run reads holds its two bins, each
    with K(m) and K(-m): the full kernel's own values as Python numbers.
    A leaky angle has no such list."""
    aux = 4 * PI * k / (1 << n)
    kernel = readout_kernel(n, aux).tolist()
    bins = expected_bins(QpeConfig(RunSettings(n), RotationSpec(Axis.Y, aux)))
    triples = _dyadic_triples(n, aux)
    assert [m for m, _, _ in triples] == sorted({bins.m_minus, bins.m_plus})
    for m, value, mirror in triples:
        assert (type(m), type(value), type(mirror)) == (int, float, float)
        assert (value.hex(), mirror.hex()) == (kernel[m].hex(), kernel[-m % (1 << n)].hex())
    assert _dyadic_triples(6, 1.0) is None


def test_nan_reaches_the_histogram():
    """A NaN readout is not dust: it is held, and the Histogram refuses it,
    read from two bins or from the full kernel."""
    config = QpeConfig(RunSettings(1), RotationSpec(Axis.Y, 0.0))
    nan_bins = ((0, math.nan, math.nan), (1, 0.5, 0.5))
    with mock.patch.object(qpe, "_dyadic_triples", lambda n, angle: nan_bins):
        with pytest.raises(ValueError, match="not positive"):
            run_qpe(config)
    nan_kernel = np.array([math.nan, 0.5])
    with mock.patch.object(qpe, "readout_kernel", lambda n, angle: nan_kernel):
        with pytest.raises(ValueError, match="not positive"):
            _array_readout(config)


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
    _dyadic_triples.cache_clear()
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
    assert _dyadic_triples.cache_info().hits >= 1
    assert readout_kernel.cache_info().misses == 0
    for hist in hists:
        assert type(hist.outcomes) is tuple and type(hist.weights) is tuple
        assert all(type(w) is float for w in hist.weights)
    with pytest.raises(ImportError):
        import numpy  # noqa: F401
