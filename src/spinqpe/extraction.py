"""Reconstruct segment amplitudes and the accumulated phase from the two
estimation readouts.

The vertical run (auxiliary axis Y, target prepared by rx(-eta)) measures
C^2 and S^2; the horizontal run (auxiliary axis X, target prepared by
ry(delta) rx(-eta)) measures |A|^2 / 2 and |B|^2 / 2. From those,

    sin(delta) = (|A|^2 - 1) / (2 S C)
    theta      = atan( (S-C)/(S+C) * tan(delta/2) )

sin(delta) only fixes delta up to the reflection delta <-> pi - delta, so
the caller picks a branch explicitly; "principal" (delta = asin(...))
covers |delta| <= pi/2.
"""

import math
from dataclasses import dataclass, field

from .errors import (
    ConfigurationError,
    InconsistentAmplitudesError,
    SingularConfigurationError,
    UndefinedPhaseError,
)
from .gates import Axis, RotationSpec, rx, ry
from .precession import AmplitudePair, PathParams, TotalPhase, total_phase, wrap_angle
from .qpe import DecodeResult, QpeConfig, RunSettings, decode, readout_kernel, run_qpe
from .statevector import Histogram

BRANCHES = ("principal", "reflected")

#: below this, 2*S*C is too small for the sin(delta) inversion to mean anything
SC_MIN = 1e-6

#: |sin(delta)| may exceed 1 by at most this much before it is an error
TOL_CLAMP = 0.02


def reconstruct_CS(p_plus: float, p_minus: float) -> AmplitudePair:
    """Amplitudes from the vertical readout's two window masses.

    The inputs are renormalized so C^2 + S^2 = 1 (removing common-mode
    loss in leaky or sampled runs) and the nonnegative roots are taken,
    valid while eta stays within (-pi/2, pi/2].
    """
    if p_plus < 0.0 or p_minus < 0.0:
        raise ValueError(f"window masses must be >= 0, got ({p_plus!r}, {p_minus!r})")
    total = p_plus + p_minus
    if total <= 0.0:
        raise ConfigurationError("both window masses are zero; empty histogram")
    return AmplitudePair(C=math.sqrt(p_plus / total), S=math.sqrt(p_minus / total))


def reconstruct_absA(p_plus: float) -> float:
    """|A| from the horizontal readout's plus-window mass |A|^2 / 2."""
    if not 0.0 <= p_plus <= 1.0:
        raise ValueError(f"window mass must be in [0, 1], got {p_plus!r}")
    return math.sqrt(2.0 * p_plus)


def infer_sin_delta(absA: float, cs: AmplitudePair) -> tuple[float, float]:
    """(sin(delta), raw) with raw = (|A|^2 - 1) / (2 S C).

    sin(delta) is raw, except that a raw value within TOL_CLAMP outside
    [-1, 1] is clamped (sampling noise), so the two differ exactly when it
    clamps; anything further out is an inconsistency error. A 2*S*C below
    SC_MIN (eta near pi/2, where the first segment lands on an eigenvector)
    makes the inversion uninformative and is an error.
    """
    twice_sc = 2.0 * cs.S * cs.C
    if abs(twice_sc) < SC_MIN:
        raise SingularConfigurationError(
            f"2*S*C = {twice_sc:.3e} below {SC_MIN}; sin(delta) cannot be "
            "inferred near eta = +-pi/2"
        )
    raw = (absA * absA - 1.0) / twice_sc
    if abs(raw) > 1.0 + TOL_CLAMP:
        raise InconsistentAmplitudesError(
            f"sin(delta) = {raw!r} exceeds [-1, 1] by more than "
            f"{TOL_CLAMP}; the readouts are mutually inconsistent"
        )
    if abs(raw) > 1.0:
        return math.copysign(1.0, raw), raw
    return raw, raw


def theta_from_estimates(cs: AmplitudePair, delta: float) -> float:
    """Principal-branch atan( (S-C)/(S+C) * tan(delta/2) )."""
    s_plus_c = cs.S + cs.C
    if s_plus_c <= 0.0:
        raise UndefinedPhaseError(
            f"S + C = {s_plus_c!r} is not positive; the arctan form has no "
            "principal branch here"
        )
    return math.atan((cs.S - cs.C) / s_plus_c * math.tan(delta / 2.0))


@dataclass
class ExtractionResult:
    """The estimates of one pipeline run, with the histograms and decode
    results they came from. The decode results hold each readout's window
    masses and coverage; phase_analytic.theta is the closed-form phase."""

    C_est: float
    S_est: float
    absA_est: float
    sin_delta_raw: float
    sin_delta_est: float
    delta_est: float
    theta_est: float
    phase_analytic: TotalPhase  # closed-form total_phase(params)
    residual_theta: float
    decode_v: DecodeResult
    decode_h: DecodeResult
    hist_v: Histogram
    hist_h: Histogram
    warnings: list = field(default_factory=list)


def full_pipeline(
    params: PathParams,
    run: RunSettings,
    aux_v: float,
    aux_h: float,
    branch: str = "principal",
) -> ExtractionResult:
    """Run both estimation circuits and reconstruct delta and theta.

    `run` supplies the register width, shots and seed of both runs (no
    shots means exact probabilities). The vertical run rotates the
    auxiliary about Y by aux_v on the target rx(-eta)|0>, the horizontal
    run about X by aux_h on ry(delta) rx(-eta)|0>; both configs are
    checked by QpeConfig, which refuses a `run` that is not a
    RunSettings. The readout kernel depends only on the width and the
    angle, so it is built once per distinct angle: one shared, read-only
    kernel when aux_h == aux_v (the default), two otherwise. Both readouts
    are decoded with decode's window and coverage threshold; the warnings
    of decoding, clamping and the closed form are collected into the
    result's `warnings`.
    """
    if branch not in BRANCHES:
        raise ConfigurationError(f"branch must be one of {BRANCHES}, got {branch!r}")

    config_v = QpeConfig(run, RotationSpec(Axis.Y, aux_v), (rx(-params.eta),))
    config_h = QpeConfig(run, RotationSpec(Axis.X, aux_h), (rx(-params.eta), ry(params.delta)))

    kernel = readout_kernel(run.counting_qubits, aux_v)
    hist_v = run_qpe(config_v, kernel=kernel)
    if aux_h != aux_v:
        kernel = readout_kernel(run.counting_qubits, aux_h)
    hist_h = run_qpe(config_h, kernel=kernel)
    decode_v = decode(hist_v, config_v)
    decode_h = decode(hist_h, config_h)

    notes = [f"qpev: {w}" for w in decode_v.warnings]
    notes += [f"qpeh: {w}" for w in decode_h.warnings]

    canonical_eta = wrap_angle(params.eta)
    if not -math.pi / 2.0 <= canonical_eta <= math.pi / 2.0:
        notes.append(
            f"branch ambiguity: eta = {params.eta!r} lies outside "
            "[-pi/2, pi/2], where the nonnegative C, S roots are not valid"
        )

    cs = reconstruct_CS(decode_v.p_plus, decode_v.p_minus)
    absA_est = reconstruct_absA(decode_h.p_plus)
    sin_delta_est, sin_delta_raw = infer_sin_delta(absA_est, cs)
    if sin_delta_est != sin_delta_raw:
        notes.append(f"sin(delta) = {sin_delta_raw!r} clamped to {sin_delta_est}")

    if branch == "principal":
        delta_est = math.asin(sin_delta_est)
    else:
        delta_est = math.pi - math.asin(sin_delta_est)
    theta_est = theta_from_estimates(cs, delta_est)

    phase_analytic = total_phase(params)
    notes += phase_analytic.warnings

    return ExtractionResult(
        C_est=cs.C,
        S_est=cs.S,
        absA_est=absA_est,
        sin_delta_raw=sin_delta_raw,
        sin_delta_est=sin_delta_est,
        delta_est=delta_est,
        theta_est=theta_est,
        phase_analytic=phase_analytic,
        residual_theta=wrap_angle(theta_est - phase_analytic.theta),
        decode_v=decode_v,
        decode_h=decode_h,
        hist_v=hist_v,
        hist_h=hist_h,
        warnings=notes,
    )
