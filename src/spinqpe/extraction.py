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
window_sweep reads the same window masses at many (eta, delta) points of
one width and auxiliary angle from the readout kernel's values at the
window outcomes alone: no histogram, and no numpy. Both hand the masses
to one function that makes the estimates, so the two agree bit for bit.
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
from .qpe import (PROBABILITY_FLOOR, DecodeResult, Histogram, QpeConfig, RunSettings,
                  _target_overlaps, decode, expected_bins, kernel_at, leakage_warnings,
                  run_qpe, window_mass)

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

    estimates = _estimates(params, branch, decode_v.p_plus, decode_v.p_minus,
                           decode_h.p_plus, _notes(decode_v.warnings, decode_h.warnings))
    return ExtractionResult(**estimates, decode_v=decode_v, decode_h=decode_h,
                            hist_v=hist_v, hist_h=hist_h)


def _vertical(eta: float, run: RunSettings, aux: float) -> QpeConfig:
    """The pipeline's vertical run, which depends on eta alone."""
    return QpeConfig(run, RotationSpec(Axis.Y, aux), (rx(-eta),))


def _horizontal(params: PathParams, run: RunSettings, aux: float) -> QpeConfig:
    """The pipeline's horizontal run at `params`."""
    return QpeConfig(run, RotationSpec(Axis.X, aux), (rx(-params.eta), ry(params.delta)))


def _notes(warnings_v: list, warnings_h: list) -> list:
    """The two readouts' decode warnings as a result's first notes."""
    return [f"qpev: {w}" for w in warnings_v] + [f"qpeh: {w}" for w in warnings_h]


def _estimates(params: PathParams, branch: str, p_plus_v: float, p_minus_v: float,
               p_plus_h: float, notes: list) -> dict:
    """The estimates of an ExtractionResult, by field name, from the
    vertical readout's two window masses and the horizontal readout's
    plus-window mass. `notes` holds the readouts' notes; the branch,
    clamp and closed-form notes are appended, and it becomes `warnings`."""
    canonical_eta = wrap_angle(params.eta)
    if not -math.pi / 2.0 <= canonical_eta <= math.pi / 2.0:
        notes.append(
            f"branch ambiguity: eta = {params.eta!r} lies outside "
            "[-pi/2, pi/2], where the nonnegative C, S roots are not valid"
        )

    cs = reconstruct_CS(p_plus_v, p_minus_v)
    absA_est = reconstruct_absA(p_plus_h)
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
        "warnings": notes,
    }


def window_sweep(points, n: int, aux: float):
    """Yield, for each PathParams of `points` in order, the estimates that
    the exact full_pipeline(params, RunSettings(n), aux, aux) makes, as a
    dict keyed by the ExtractionResult fields, bit for bit, reading only
    the decode windows.

    Every point runs both circuits at one width and angle, so their bins,
    windows and the readout kernel's values at the window outcomes
    (kernel_at) are found once. The vertical run depends on eta alone, so
    its QpeConfig is built and checked, and its masses read, once per
    distinct eta (0.0 and -0.0 apart); the horizontal QpeConfig is built
    and checked at every point. Both are built as full_pipeline builds
    them, in its order, and the masses are read as _window_masses reads
    them. No Histogram is built and numpy is not imported.
    """
    run = RunSettings(n)
    windows = expected_bins(QpeConfig(run, RotationSpec(Axis.Y, aux))).windows()
    # m_plus = -m_minus, so each window is the other's mirror image and
    # together they list K(-m) for each of their outcomes m
    outcomes = sorted(set().union(*windows))
    kernel = dict(zip(outcomes, kernel_at(n, aux, outcomes)))
    vertical = {}  # (eta, its sign) -> the vertical run's two window masses
    for params in points:
        key = params.eta, math.copysign(1.0, params.eta)
        masses_v = vertical.get(key)
        if masses_v is None:
            masses_v = vertical[key] = _window_masses(_vertical(params.eta, run, aux),
                                                      kernel, windows)
        p_plus_v, p_minus_v = masses_v
        p_plus_h, p_minus_h = _window_masses(_horizontal(params, run, aux), kernel, windows)
        notes = _notes(leakage_warnings(p_plus_v + p_minus_v),
                       leakage_warnings(p_plus_h + p_minus_h))
        yield _estimates(params, "principal", p_plus_v, p_minus_v, p_plus_h, notes)


def _window_masses(config: QpeConfig, kernel: dict, windows: tuple) -> list:
    """decode's mass in each of `windows` for the exact run `config`, from
    `kernel`, its K(m) at every window outcome m. An outcome reads
    P(m) = w_minus K(m) + w_plus K(-m mod 2^n), or 0 where that is at or
    below PROBABILITY_FLOOR: what run_qpe's histogram holds there."""
    size = 1 << config.run.counting_qubits
    w_plus, w_minus = _target_overlaps(config)
    masses = []
    for window in windows:
        readout = []
        for m in window:
            p = w_minus * kernel[m] + w_plus * kernel[-m % size]
            readout.append(p if p > PROBABILITY_FLOOR else 0.0)
        masses.append(window_mass(readout))
    return masses
