"""The value classes of the package, each built with __slots__ and its own
__init__: what equality, hashing, assignment and repr promise."""

import copy
import math
import pickle

import numpy as np
import pytest

from spinqpe.extraction import ExtractionResult, full_pipeline
from spinqpe.gates import Axis, RotationSpec, rx
from spinqpe.iqft import IqftPlan, PlanStep
from spinqpe.precession import AmplitudePair, ComplexPair, PathParams, PhysicalParams
from spinqpe.qpe import (DecodeResult, ExpectedBins, Histogram, QpeConfig, RunSettings,
                         decode, run_qpe)
from spinqpe.statevector import StateVector


def _pipeline_fields() -> dict:
    result = full_pipeline(PathParams(math.pi / 3, math.pi / 3), RunSettings(4),
                           math.pi / 4, math.pi / 4)
    return {name: getattr(result, name) for name in (
        "C_est", "S_est", "absA_est", "sin_delta_raw", "sin_delta_est", "delta_est",
        "theta_est", "phase_analytic", "residual_theta", "decode_v", "decode_h",
        "hist_v", "hist_h", "warnings")}


#: (class, a function giving its fields by name, in order, equality:
#: "value", "identity" or "mutable" (by value, with no hash), frozen)
CASES = [
    (RotationSpec, lambda: {"axis": Axis.X, "angle": 0.5}, "value", True),
    (StateVector, lambda: {"num_qubits": 1, "amplitudes": np.array([1, 0], dtype=complex)},
     "mutable", False),
    (PlanStep, lambda: {"kind": "cphase", "qubits": (0, 1), "angle": -math.pi / 2},
     "value", True),
    (IqftPlan, lambda: {"ops": (PlanStep("hadamard", (0,)),)}, "value", True),
    (PathParams, lambda: {"eta": 0.3, "delta": -0.4}, "value", True),
    (PhysicalParams, lambda: {"alpha": 0.5, "k": 1.0, "t": 0.2, "hbar": 1.0}, "value", True),
    (AmplitudePair, lambda: {"C": 0.6, "S": 0.8}, "value", True),
    (ComplexPair, lambda: {"A": 1 + 0j, "B": 1j, "gamma1": 0.0, "gamma2": math.pi / 2},
     "value", True),
    (ExtractionResult, _pipeline_fields, "mutable", False),
    (Histogram, lambda: {"num_bits": 2, "outcomes": np.array([0, 3]),
                         "weights": np.array([1, 3]), "total_shots": 4, "seed": 2},
     "identity", True),
    (RunSettings, lambda: {"counting_qubits": 4, "shots": 10, "seed": 1}, "value", True),
    (QpeConfig, lambda: {"run": RunSettings(3), "aux": RotationSpec(Axis.X, 1.0),
                         "target_prep": ()}, "identity", True),
    (ExpectedBins, lambda: {"num_bits": 3, "m_plus": 7, "m_minus": 1, "dyadic_exact": True},
     "value", True),
    (DecodeResult, lambda: {"num_bits": 3, "m_plus": 7, "m_minus": 1, "dyadic_exact": True,
                            "p_plus": 0.25, "p_minus": 0.75, "warnings": ["leakage"]},
     "value", True),
]


@pytest.mark.parametrize("cls, fields, equality, frozen", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, fields, equality, frozen):
    fields = fields()
    a, b = cls(**fields), cls(*fields.values())
    assert a._fields == tuple(fields)
    if equality == "identity":
        assert a == a and a != b and hash(a) != hash(b)
    else:
        assert a == b and not a != b
        assert a != tuple(fields.values())
        if equality == "value":
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)
    for name in fields:
        if frozen:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
        else:
            setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError):
        a.unknown_field = 0
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{cls.__name__}({shown})"
    assert repr(copy.deepcopy(a)) == repr(pickle.loads(pickle.dumps(a))) == repr(a)


def test_decode_result_is_a_whole_value():
    """decode builds its warnings before the result, as a tuple, so two
    decodes of one leaky readout are equal and hash equal."""
    # eigenphases half a bin off center: coverage 0.923 < 0.98
    config = QpeConfig(RunSettings(6), RotationSpec(Axis.Y, 11 * math.pi / 32), (rx(-0.7),))
    hist = run_qpe(config)
    a, b = decode(hist, config), decode(hist, config)
    assert a.warnings and isinstance(a.warnings, tuple)
    assert a == b and hash(a) == hash(b)
