"""Quantum phase estimation for two-segment spin-precession phase readout.

The package runs quantum phase estimation against single-qubit axis
rotations and reconstructs the phase a spin accumulates along two
non-commuting precession segments from the resulting histograms.

The gate-level reference engine that the tests check the spectral
`run_qpe` against is not exported here: it is `spinqpe.qpe.run_circuit`,
with the simulator in `spinqpe.statevector` and the inverse Fourier
transform plan in `spinqpe.iqft`.
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
from .gates import Axis, RotationSpec, axis_eigenvectors, rx, ry
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
    Histogram,
    QpeConfig,
    RunSettings,
    decode,
    expected_bins,
    format_binary,
    run_qpe,
)
from .records import RUN_RECORD_SCHEMA, TOOL_VERSION

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
    "PathParams",
    "PhysicalParams",
    "QpeConfig",
    "RotationSpec",
    "RUN_RECORD_SCHEMA",
    "RunSettings",
    "SingularConfigurationError",
    "TOOL_VERSION",
    "TotalPhase",
    "UndefinedPhaseError",
    "amplitudes_AB",
    "amplitudes_CS",
    "angles_from_physical",
    "axis_eigenvectors",
    "decode",
    "expected_bins",
    "format_binary",
    "full_pipeline",
    "infer_sin_delta",
    "parse_angle",
    "path1_phase",
    "psi1",
    "psi2",
    "reconstruct_absA",
    "reconstruct_CS",
    "run_qpe",
    "rx",
    "ry",
    "theta_from_estimates",
    "time_for_angle",
    "total_phase",
    "wrap_angle",
]
