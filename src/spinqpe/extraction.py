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

full_pipeline runs both circuits and decodes their histograms; the two
runs share one cached readout kernel when their angles are equal.
window_sweep decodes the same runs at many (eta, delta) points of one
width and auxiliary angle with qpe's decode_exact, which reads them at
their decode windows through qpe's one cached window readout: no
histogram, and no numpy. Both make their estimates from the two decode
results in one function, so the two agree bit for bit.
"""

import math

from .errors import (
    ConfigurationError,
    InconsistentAmplitudesError,
    SingularConfigurationError,
    UndefinedPhaseError,
)
from .gates import Axis, RotationSpec, Value, rx, ry
from .precession import AmplitudePair, PathParams, TotalPhase, total_phase, wrap_angle
from .qpe import DecodeResult, Histogram, QpeConfig, RunSettings, decode, decode_exact, run_qpe

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


class ExtractionResult(Value):
    """The estimates of one pipeline run, with the histograms and decode
    results they came from. The decode results hold each readout's window
    masses and coverage; phase_analytic is the closed-form
    total_phase(params), and its theta the closed-form phase."""

    __slots__ = ("C_est", "S_est", "absA_est", "sin_delta_raw", "sin_delta_est",
                 "delta_est", "theta_est", "phase_analytic", "residual_theta",
                 "decode_v", "decode_h", "hist_v", "hist_h", "warnings")

    def __init__(self, C_est: float, S_est: float, absA_est: float, sin_delta_raw: float,
                 sin_delta_est: float, delta_est: float, theta_est: float,
                 phase_analytic: TotalPhase, residual_theta: float, decode_v: DecodeResult,
                 decode_h: DecodeResult, hist_v: Histogram, hist_h: Histogram,
                 warnings: list | None = None) -> None:
        self._set(C_est, S_est, absA_est, sin_delta_raw, sin_delta_est, delta_est, theta_est,
                  phase_analytic, residual_theta, decode_v, decode_h, hist_v, hist_h,
                  [] if warnings is None else warnings)


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
    RunSettings. Both readouts are decoded with decode's window and
    coverage threshold; the warnings of decoding, clamping and the closed
    form are collected into the result's `warnings`. A sampled vertical
    run that drew no shot in one of its two windows raises
    SingularConfigurationError naming that window and the shot count.
    """
    if branch not in BRANCHES:
        raise ConfigurationError(f"branch must be one of {BRANCHES}, got {branch!r}")

    config_v, config_h = _vertical(params.eta, run, aux_v), _horizontal(params, run, aux_h)

    hist_v, hist_h = run_qpe(config_v), run_qpe(config_h)
    decode_v = decode(hist_v, config_v)
    decode_h = decode(hist_h, config_h)
    if run.shots is not None and (decode_v.p_plus == 0.0) != (decode_v.p_minus == 0.0):
        # C or S is then 0, so 2*S*C is too, and infer_sin_delta would
        # blame eta for what can be a window that the shots missed
        empty = "plus" if decode_v.p_plus == 0.0 else "minus"
        raise SingularConfigurationError(
            f"the qpev {empty} window drew 0 of {run.shots} shots, so 2*S*C = 0 and "
            "sin(delta) cannot be inferred; more shots may fill it (at eta = +-pi/2 "
            "it stays empty)"
        )

    return ExtractionResult(**_estimates(params, branch, decode_v, decode_h),
                            hist_v=hist_v, hist_h=hist_h)


def _vertical(eta: float, run: RunSettings, aux: float) -> QpeConfig:
    """The pipeline's vertical run, which depends on eta alone."""
    return QpeConfig(run, RotationSpec(Axis.Y, aux), (rx(-eta),))


def _horizontal(params: PathParams, run: RunSettings, aux: float) -> QpeConfig:
    """The pipeline's horizontal run at `params`."""
    return QpeConfig(run, RotationSpec(Axis.X, aux), (rx(-params.eta), ry(params.delta)))


def _estimates(params: PathParams, branch: str, decode_v: DecodeResult,
               decode_h: DecodeResult) -> dict:
    """An ExtractionResult's fields but the histograms, by name, from the
    vertical decode's two window masses and the horizontal plus-window
    mass. `warnings` lists the decode warnings, as "qpev: ..." and
    "qpeh: ...", then the branch, clamp and closed-form notes."""
    notes = [f"qpev: {w}" for w in decode_v.warnings] + [f"qpeh: {w}" for w in decode_h.warnings]
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

    return {
        "C_est": cs.C,
        "S_est": cs.S,
        "absA_est": absA_est,
        "sin_delta_raw": sin_delta_raw,
        "sin_delta_est": sin_delta_est,
        "delta_est": delta_est,
        "theta_est": theta_est,
        "phase_analytic": phase_analytic,
        "residual_theta": wrap_angle(theta_est - phase_analytic.theta),
        "decode_v": decode_v,
        "decode_h": decode_h,
        "warnings": notes,
    }


def window_sweep(points, n: int, aux: float):
    """Yield, for each PathParams of `points` in order, the fields but the
    histograms of the exact full_pipeline(params, RunSettings(n), aux, aux)
    result, bit for bit, as a dict keyed by field name. Both runs decode
    through decode_exact, which raises decode's ConfigurationError where
    the windows of (n, aux) overlap. Each QpeConfig is built and checked as
    full_pipeline builds it, in its order, but the vertical one, which
    depends on eta alone, only once per distinct eta (0.0 and -0.0 apart).
    """
    run = RunSettings(n)
    vertical = {}  # (eta, its sign) -> the vertical run's decode result
    for params in points:
        key = params.eta, math.copysign(1.0, params.eta)
        decode_v = vertical.get(key)
        if decode_v is None:
            decode_v = vertical[key] = decode_exact(_vertical(params.eta, run, aux))
        yield _estimates(params, "principal", decode_v,
                         decode_exact(_horizontal(params, run, aux)))
