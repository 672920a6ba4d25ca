"""An exact run on a short kernel, one that keeps at most SHORT_KERNEL
outcomes as a dyadic readout does, reads the kernel's `short` list in
Python floats: the histogram is the one the kernel's arrays give, bit for
bit, and a warm exact request makes no numpy call."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinqpe.cli as cli
import spinqpe.extraction as extraction
import spinqpe.qpe as qpe
from spinqpe import Axis, QpeConfig, RotationSpec, RunSettings, rx, ry
from spinqpe.cli import main
from spinqpe.errors import ConfigurationError
from spinqpe.qpe import (SHORT_KERNEL, ReadoutKernel, _target_overlaps, decode,
                         histogram_from_probabilities, readout_kernel, run_qpe, window_decoder)

from histograms import identical

PI = math.pi

#: (n, angle, outcomes its exact kernel keeps): every outcome of a 6-bit
#: leaky readout, and a near-dyadic 10-bit one whose kernel drops all but
#: just over SHORT_KERNEL
EDGE_KERNELS = [(6, 1.0, 64), (10, 4 * PI * 3 / 1024 + 8.05e-9, 65)]


def _array_readout(config: QpeConfig):
    """run_qpe on the config's exact kernel with its `short` list
    dropped, so the kernel's arrays are read."""
    kernel = readout_kernel(config.run.counting_qubits, config.aux.angle, "exact")
    long = ReadoutKernel(kernel.values, kernel.bins)
    with mock.patch.object(qpe, "readout_kernel", lambda *key: long):
        return run_qpe(config)


def _dense_readout(config: QpeConfig):
    """histogram_from_probabilities of the full kernel's readout over every
    outcome: the sampled kernel keeps every outcome, with the exact
    kernel's values."""
    full = readout_kernel(config.run.counting_qubits, config.aux.angle, "sampled").values
    w_plus, w_minus = _target_overlaps(config)
    probs = w_minus * full
    probs += w_plus * np.concatenate((full[:1], full[:0:-1]))
    return histogram_from_probabilities(probs)


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
    """The Python-float readout of a short kernel and the array readout
    of the same kernel hold the same outcomes and the same float bits,
    and both are the readout of the full dense kernel."""
    aux = data.draw(readout_angles(n))
    config = QpeConfig(RunSettings(n), RotationSpec(axis, aux), prep)
    kernel = readout_kernel(n, aux, "exact")
    assert (kernel.short is None) == (kernel.bins.size > SHORT_KERNEL)
    scalar = run_qpe(config)
    assert type(scalar.outcomes) in (tuple, range) and type(scalar.weights) is tuple
    assert identical(scalar, _array_readout(config))
    assert identical(scalar, _dense_readout(config))


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


@pytest.mark.parametrize("n, aux, kept", EDGE_KERNELS, ids=["64-kept", "65-kept"])
@pytest.mark.parametrize("axis", list(Axis))
def test_readout_at_the_short_kernel_bound(n, aux, kept, axis):
    config = QpeConfig(RunSettings(n), RotationSpec(axis, aux), (rx(-0.7), ry(0.4)))
    kernel = readout_kernel(n, aux, "exact")
    assert kernel.bins.size == kept
    assert (kernel.short is None) == (kept > SHORT_KERNEL)
    assert identical(run_qpe(config), _array_readout(config))
    assert identical(run_qpe(config), _dense_readout(config))


def test_short_list_is_the_kernel():
    """`short` lists each kept outcome with K(m) and K(-m), the kernel's
    own values as Python numbers."""
    kernel = readout_kernel(6, 1.0, "exact")
    values = dict(zip(kernel.bins.tolist(), kernel.values.tolist()))
    assert [m for m, _, _ in kernel.short] == kernel.bins.tolist()
    for m, k, k_mirror in kernel.short:
        assert (type(m), type(k), type(k_mirror)) == (int, float, float)
        assert (k.hex(), k_mirror.hex()) == (values[m].hex(), values[-m % 64].hex())
    assert readout_kernel(6, 1.0, "sampled").short is None


def test_nan_reaches_the_histogram():
    """A NaN readout is not dust: it is held, and the Histogram refuses it."""
    nan = ReadoutKernel(np.array([math.nan, 0.5]), np.array([0, 1]),
                        ((0, math.nan, math.nan), (1, 0.5, 0.5)))
    with mock.patch.object(qpe, "readout_kernel", lambda *key: nan):
        with pytest.raises(ValueError, match="not positive"):
            run_qpe(QpeConfig(RunSettings(1), RotationSpec(Axis.Y, 0.0)))


#: dyadic exact requests at the default auxiliary angle pi/4
EXACT_REQUESTS = [
    ["pipeline", "--eta", "0.4", "--delta=-0.7", "--exact", "--n", "16"],
    ["qpev", "--eta", "0.4", "--exact", "--n", "16"],
    ["qpeh", "--eta", "0.4", "--delta", "0.3", "--exact", "--n", "16"],
]


@pytest.mark.parametrize("argv", EXACT_REQUESTS, ids=[argv[0] for argv in EXACT_REQUESTS])
def test_warm_exact_request_makes_no_numpy_call(capsys, monkeypatch, argv):
    """Once its kernels are cached, a dyadic exact request runs, decodes
    and writes its record with numpy unimportable, byte for byte as with
    numpy, and its histograms hold tuples."""
    readout_kernel.cache_clear()
    assert main(argv) == 0  # builds the kernels, with numpy
    warm = capsys.readouterr()
    assert readout_kernel.cache_info().currsize >= 1
    hists = []

    def recording(config):
        hists.append(run_qpe(config))
        return hists[-1]

    for module in (cli, extraction):
        monkeypatch.setattr(module, "run_qpe", recording)
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert main(argv) == 0
    assert capsys.readouterr() == warm
    assert len(hists) == (2 if argv[0] == "pipeline" else 1)
    for hist in hists:
        assert type(hist.outcomes) is tuple and type(hist.weights) is tuple
        assert all(type(w) is float for w in hist.weights)
    with pytest.raises(ImportError):
        import numpy  # noqa: F401
