"""Statevector phase-estimation toolkit for two-segment spin-precession
phase readout.

The package simulates small quantum registers, runs quantum phase
estimation against single-qubit axis rotations, and reconstructs the
phase a spin accumulates along two non-commuting precession segments from
the resulting histograms.
"""

from .angles import parse_angle
from .errors import (
    AngleParseError,
    ConfigurationError,
    InconsistentAmplitudesError,
    SingularConfigurationError,
    UndefinedPhaseError,
)
from .extraction import (
    ExtractionResult,
    full_pipeline,
    infer_sin_delta,
    reconstruct_absA,
    reconstruct_CS,
    theta_from_estimates,
)
from .gates import (
    Axis,
    RotationSpec,
    axis_eigenvectors,
    hadamard,
    identity,
    pauli_x,
    phase,
    rotation,
    rotation_power,
    rx,
    ry,
)
from .iqft import IqftPlan, PlanStep, apply_iqft, build_iqft, dense_iqft_reference
from .precession import (
    HBAR,
    AmplitudePair,
    ComplexPair,
    PathParams,
    PhysicalParams,
    TotalPhase,
    amplitudes_AB,
    amplitudes_CS,
    angles_from_physical,
    path1_phase,
    psi1,
    psi2,
    time_for_angle,
    total_phase,
    wrap_angle,
)
from .qpe import (
    DecodeResult,
    ExpectedBins,
    QpeConfig,
    RunSettings,
    decode,
    expected_bins,
    format_binary,
    run_qpe,
)
from .records import RUN_RECORD_SCHEMA, TOOL_VERSION
from .statevector import (
    Histogram,
    StateVector,
    apply_controlled,
    apply_single,
    exact_histogram,
    new_state,
    probabilities,
    sample,
)

__version__ = TOOL_VERSION

__all__ = [
    "AngleParseError",
    "AmplitudePair",
    "Axis",
    "ComplexPair",
    "ConfigurationError",
    "DecodeResult",
    "ExpectedBins",
    "ExtractionResult",
    "HBAR",
    "Histogram",
    "InconsistentAmplitudesError",
    "IqftPlan",
    "PathParams",
    "PhysicalParams",
    "PlanStep",
    "QpeConfig",
    "RotationSpec",
    "RUN_RECORD_SCHEMA",
    "RunSettings",
    "SingularConfigurationError",
    "StateVector",
    "TOOL_VERSION",
    "TotalPhase",
    "UndefinedPhaseError",
    "amplitudes_AB",
    "amplitudes_CS",
    "angles_from_physical",
    "apply_controlled",
    "apply_iqft",
    "apply_single",
    "axis_eigenvectors",
    "build_iqft",
    "decode",
    "dense_iqft_reference",
    "exact_histogram",
    "expected_bins",
    "format_binary",
    "full_pipeline",
    "hadamard",
    "identity",
    "infer_sin_delta",
    "new_state",
    "parse_angle",
    "path1_phase",
    "pauli_x",
    "phase",
    "probabilities",
    "psi1",
    "psi2",
    "reconstruct_absA",
    "reconstruct_CS",
    "rotation",
    "rotation_power",
    "run_qpe",
    "rx",
    "ry",
    "sample",
    "theta_from_estimates",
    "time_for_angle",
    "total_phase",
    "wrap_angle",
]
