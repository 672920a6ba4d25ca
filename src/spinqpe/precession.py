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
from collections import namedtuple

from .errors import UndefinedPhaseError
from .gates import FrozenValue

_SQRT2 = math.sqrt(2.0)

#: overlaps smaller than this have no meaningful argument
OVERLAP_FLOOR = 1e-9


def wrap_angle(x: float) -> float:
    """Fold an angle into (-pi, pi]."""
    y = x % (2.0 * math.pi)
    if y > math.pi:
        y -= 2.0 * math.pi
    return y


class PathParams(FrozenValue):
    """Precession angles of the two segments, radians. Any finite values
    are accepted; wrap_angle folds one into (-pi, pi]."""

    __slots__ = ("eta", "delta")

    def __init__(self, eta: float, delta: float) -> None:
        self._set(eta, delta)
        if not (math.isfinite(self.eta) and math.isfinite(self.delta)):
            raise ValueError(f"angles must be finite, got ({self.eta!r}, {self.delta!r})")


class AmplitudePair(FrozenValue):
    """y-basis amplitudes after segment 1: C on |+y>, S on |-y>."""

    __slots__ = ("C", "S")

    def __init__(self, C: float, S: float) -> None:
        self._set(C, S)
        if abs(self.C * self.C + self.S * self.S - 1.0) > 1e-12:
            raise ValueError(f"C^2 + S^2 must be 1, got {self.C**2 + self.S**2!r}")


class ComplexPair(FrozenValue):
    """x-basis amplitudes after both segments, with their arguments."""

    __slots__ = ("A", "B", "gamma1", "gamma2")

    def __init__(self, A: complex, B: complex, gamma1: float, gamma2: float) -> None:
        self._set(A, B, gamma1, gamma2)
        if abs(abs(self.A) ** 2 + abs(self.B) ** 2 - 2.0) > 1e-12:
            raise ValueError("|A|^2 + |B|^2 must be 2")


def amplitudes_CS(eta: float) -> AmplitudePair:
    """C = cos(pi/4 - eta/2), S = sin(pi/4 - eta/2)."""
    half = math.pi / 4.0 - eta / 2.0
    return AmplitudePair(C=math.cos(half), S=math.sin(half))


def amplitude_pair(params: PathParams) -> tuple[complex, complex]:
    """(A, B), the x-basis amplitudes after both segments (closed form),
    without the arguments or the norm check of amplitudes_AB."""
    cs = amplitudes_CS(params.eta)
    half = math.pi / 4.0 - params.delta / 2.0
    plus = cs.C + cs.S
    minus = cs.C - cs.S
    return (complex(plus * math.cos(half), minus * math.sin(half)),
            complex(plus * math.sin(half), -minus * math.cos(half)))


def amplitudes_AB(params: PathParams) -> ComplexPair:
    """x-basis amplitudes A, B after both segments (closed form)."""
    a, b = amplitude_pair(params)
    return ComplexPair(
        A=a, B=b,
        gamma1=math.atan2(a.imag, a.real),
        gamma2=math.atan2(b.imag, b.real),
    )


class TotalPhase(namedtuple("TotalPhase", ("magnitude", "theta", "theta_arctan"))):
    """The overlap magnitude; theta, arg <0|psi2>, principal value in
    (-pi, pi]; and theta_arctan, the arctan form, principal branch in
    (-pi/2, pi/2), NaN if undefined."""

    __slots__ = ()

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
