"""Analytic model of spin precession along a two-segment path.

Segment 1 precesses the spin by eta about the negative x axis, modeled by
the gate rx(-eta); segment 2 by delta about the positive y axis, modeled
by ry(delta). Because the two rotation axes do not commute, the order
matters and the overall overlap <0| ry(delta) rx(-eta) |0> picks up a
nonzero argument theta, the quantity the estimation pipeline reconstructs.

Closed forms used throughout (C = cos(pi/4 - eta/2), S = sin(pi/4 - eta/2)):

    after segment 1:   C |+y> + S |-y>                (up to the x-basis phases)
    after segment 2:   (A |+x> + B |-x>) / sqrt(2)
    A = (C+S) cos(pi/4 - delta/2) + i (C-S) sin(pi/4 - delta/2)
    B = (C+S) sin(pi/4 - delta/2) - i (C-S) cos(pi/4 - delta/2)
    |A|^2 = 1 + 2 S C sin(delta)
    <0|psi2> = (A+B)/2,  |<0|psi2>|^2 = 1/2 + S C cos(delta)
    theta = arg <0|psi2> = atan( (S-C)/(S+C) * tan(delta/2) )

All functions here are pure.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UndefinedPhaseError

#: reduced Planck constant, J s (2018 CODATA exact value)
HBAR = 1.054571817e-34

_SQRT2 = math.sqrt(2.0)

#: overlaps smaller than this have no meaningful argument
OVERLAP_FLOOR = 1e-9


def wrap_angle(x: float) -> float:
    """Fold an angle into (-pi, pi]."""
    y = x % (2.0 * math.pi)
    if y > math.pi:
        y -= 2.0 * math.pi
    return y


@dataclass(frozen=True)
class PathParams:
    """Precession angles of the two segments, radians. Any finite values
    are accepted; wrap_angle folds one into (-pi, pi]."""

    eta: float
    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and math.isfinite(self.delta)):
            raise ValueError(f"angles must be finite, got ({self.eta!r}, {self.delta!r})")


@dataclass(frozen=True)
class PhysicalParams:
    """Spin-orbit traversal parameters for one segment.

    alpha: coupling constant (energy * length), k: carrier momentum
    component (1/length), t: traversal time (s). The momentum factor also
    absorbs any dimensionless band factor. omega = 2 alpha k / hbar is the
    precession (Larmor) rate, so the precession angle per traversal is
    omega * t.
    """

    alpha: float
    k: float
    t: float
    hbar: float = HBAR

    @property
    def omega(self) -> float:
        return 2.0 * self.alpha * self.k / self.hbar


def angles_from_physical(segment1: PhysicalParams, segment2: PhysicalParams) -> PathParams:
    """Precession angles from physical parameters.

    Segment 1 runs against its effective field (eta = -omega1 * t1) while
    segment 2 runs with it (delta = +omega2 * t2); the sign asymmetry is
    the x-versus-y path geometry and is preserved exactly.
    """
    return PathParams(
        eta=-segment1.omega * segment1.t,
        delta=+segment2.omega * segment2.t,
    )


def time_for_angle(angle: float, params: PhysicalParams) -> float:
    """Traversal time that yields a given precession angle magnitude.

    This is the tuning knob used to dial in auxiliary rotation angles.
    """
    if params.omega == 0.0:
        raise ZeroDivisionError("omega is zero; no finite time reaches the angle")
    return angle / params.omega


@dataclass(frozen=True)
class AmplitudePair:
    """y-basis amplitudes after segment 1: C on |+y>, S on |-y>."""

    C: float
    S: float

    def __post_init__(self) -> None:
        if abs(self.C * self.C + self.S * self.S - 1.0) > 1e-12:
            raise ValueError(f"C^2 + S^2 must be 1, got {self.C**2 + self.S**2!r}")


@dataclass(frozen=True)
class ComplexPair:
    """x-basis amplitudes after both segments, with their arguments."""

    A: complex
    B: complex
    gamma1: float
    gamma2: float

    def __post_init__(self) -> None:
        if abs(abs(self.A) ** 2 + abs(self.B) ** 2 - 2.0) > 1e-12:
            raise ValueError("|A|^2 + |B|^2 must be 2")


def amplitudes_CS(eta: float) -> AmplitudePair:
    """C = cos(pi/4 - eta/2), S = sin(pi/4 - eta/2)."""
    half = math.pi / 4.0 - eta / 2.0
    return AmplitudePair(C=math.cos(half), S=math.sin(half))


def amplitudes_AB(params: PathParams) -> ComplexPair:
    """x-basis amplitudes A, B after both segments (closed form)."""
    cs = amplitudes_CS(params.eta)
    half = math.pi / 4.0 - params.delta / 2.0
    plus = cs.C + cs.S
    minus = cs.C - cs.S
    a = complex(plus * math.cos(half), minus * math.sin(half))
    b = complex(plus * math.sin(half), -minus * math.cos(half))
    return ComplexPair(
        A=a, B=b,
        gamma1=math.atan2(a.imag, a.real),
        gamma2=math.atan2(b.imag, b.real),
    )


def psi1(eta: float) -> np.ndarray:
    """State after segment 1, rx(-eta)|0> exactly, as a complex128 pair;
    ValueError unless eta is finite.

    In the x eigenbasis this is (e^{+i eta/2} |+x> + e^{-i eta/2} |-x>)
    / sqrt(2); in the computational basis (cos(eta/2), i sin(eta/2)).
    """
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta!r}")
    return np.array([math.cos(eta / 2.0), 1j * math.sin(eta / 2.0)], dtype=np.complex128)


def psi2(params: PathParams) -> np.ndarray:
    """State after both segments, ry(delta) rx(-eta) |0> exactly with no
    global-phase slack, as a complex128 pair."""
    cs = amplitudes_CS(params.eta)
    e_minus = np.exp(-0.5j * params.delta)
    e_plus = np.exp(+0.5j * params.delta)
    a0 = (cs.C * e_minus + cs.S * e_plus) / _SQRT2
    a1 = 1j * (cs.C * e_minus - cs.S * e_plus) / _SQRT2
    return np.array([a0, a1], dtype=np.complex128)


class TotalPhase(NamedTuple):
    magnitude: float
    theta: float  # arg <0|psi2>, principal value in (-pi, pi]
    theta_arctan: float  # arctan form, principal branch in (-pi/2, pi/2); NaN if undefined

    @property
    def warnings(self) -> list:
        """The note a record carries when the arctan form is undefined, else none."""
        if math.isnan(self.theta_arctan):
            return [
                "S + C vanishes (eta = pi mod 2 pi); the arctan form is "
                "undefined, reporting the overlap argument only"
            ]
        return []


def total_phase(params: PathParams) -> TotalPhase:
    """Overlap magnitude and accumulated phase after both segments.

    theta is the argument of <0|psi2> = (A+B)/2 and is authoritative; the
    arctan form is computed alongside from the same S + C and S - C, so
    the two agree wherever Re <0|psi2> > 0. When S + C vanishes the arctan
    form is undefined: it is NaN, and the result's `warnings` says so.
    """
    cs = amplitudes_CS(params.eta)
    half = params.delta / 2.0
    re = (cs.C + cs.S) * math.cos(half) / _SQRT2
    im = -(cs.C - cs.S) * math.sin(half) / _SQRT2
    magnitude = math.hypot(re, im)
    if magnitude < OVERLAP_FLOOR:
        raise UndefinedPhaseError(
            f"overlap magnitude {magnitude:.3e} below {OVERLAP_FLOOR}; "
            "the accumulated phase is undefined"
        )
    theta = math.atan2(im, re)
    s_plus_c = cs.S + cs.C
    if abs(s_plus_c) < 1e-12:
        theta_arctan = math.nan
    else:
        theta_arctan = math.atan((cs.S - cs.C) / s_plus_c * math.tan(half))
    return TotalPhase(magnitude=magnitude, theta=theta, theta_arctan=theta_arctan)


def path1_phase(eta: float) -> float:
    """Argument of <0| rx(-eta) |0> = cos(eta/2).

    Identically zero while cos(eta/2) > 0: a single-axis precession
    accumulates no overlap phase. Beyond |eta| = pi the overlap goes
    negative and the argument folds to pi; that return value is the only
    signal of the fold.
    """
    return math.atan2(0.0, math.cos(eta / 2.0))
