"""Seeded request streams for the three benchmark workloads.

Every workload is a closed loop with one client: requests are issued one
after another from a single process. A request is one CLI invocation,
given here as its argument list; the benchmark derives every argument
from the workload seed, so the same seed always yields the same stream.
"""

from dataclasses import dataclass
from itertools import count

import numpy as np

#: (eta, delta) range of the exact and leaky workloads; inside (-pi/2, pi/2)
#: so the nonnegative C, S roots and the principal delta branch both hold
ANGLE_LIMIT = 1.3

#: leaky auxiliary angles; at n = 12 their bins stay far from 0 and 2^11,
#: so the two width-2 decode windows never overlap
LEAKY_AUX = (0.2, 3.0)

LEAKY_SHOTS = 100000

SWEEP_STEPS = 12


@dataclass(frozen=True)
class Request:
    """One CLI invocation: `argv` as passed to `spinqpe.cli.main`."""

    argv: tuple
    kind: str  # "pipeline" | "qpev" | "qpeh" | "sweep"
    n: int
    shots: int | None = None  # sampled requests only
    seed: int | None = None
    steps: int = 0  # sweep only

    @property
    def circuits(self) -> int:
        """Phase-estimation circuits the request runs: a pipeline runs
        QPEV and QPEH, a sweep runs one pipeline per grid point."""
        if self.kind == "sweep":
            return 2 * self.steps * self.steps
        return 2 if self.kind == "pipeline" else 1


@dataclass(frozen=True)
class Workload:
    name: str
    #: False: each request is a fresh `python -m spinqpe` process
    in_process: bool
    #: the first `prefix` timed requests feed the digests and
    #: estimate_err_rms, so those repeat exactly for a given seed
    prefix: int
    #: every request is an exact pipeline at a dyadic auxiliary angle, so its
    #: decoded masses and theta must match the closed form to rounding
    closed_form: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-n16", in_process=True, prefix=8, closed_form=True),
        Workload("sweep-n10-cold", in_process=False, prefix=4),
        Workload("leaky-n12", in_process=True, prefix=24),
    )
}


def _angle(rng: np.random.Generator, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.6f}"


def _exact_n16(rng: np.random.Generator, i: int) -> Request:
    eta = _angle(rng, -ANGLE_LIMIT, ANGLE_LIMIT)
    delta = _angle(rng, -ANGLE_LIMIT, ANGLE_LIMIT)
    argv = ("pipeline", "--eta", eta, "--delta", delta, "--exact", "--n", "16")
    return Request(argv, "pipeline", 16)


def _sweep_n10(rng: np.random.Generator, i: int) -> Request:
    # endpoints scatter around the documented 0.2:1.3 grid; the grid shape,
    # and so the work per request, is the same for every seed
    ranges = [f"{_angle(rng, 0.1, 0.3)}:{_angle(rng, 1.2, 1.4)}" for _ in range(2)]
    argv = ("sweep", "--eta-range", ranges[0], "--delta-range", ranges[1],
            "--steps", str(SWEEP_STEPS), "--n", "10")
    return Request(argv, "sweep", 10, steps=SWEEP_STEPS)


def _leaky_n12(rng: np.random.Generator, i: int) -> Request:
    # qpev and qpeh alternate, and one request in three is exact. Exact
    # leaky requests (4096-bin records) take about three times as long as
    # sampled ones, so request times have two modes; with this mix the
    # median falls in the upper part of the sampled mode and the tail in the
    # exact one, where run-to-run spread is small. A 1:1 mix would put the
    # median in the gap between the modes, where it jumps from run to run.
    kind = ("qpev", "qpeh")[i % 2]
    eta = _angle(rng, -ANGLE_LIMIT, ANGLE_LIMIT)
    delta = _angle(rng, -ANGLE_LIMIT, ANGLE_LIMIT)
    aux = _angle(rng, *LEAKY_AUX)
    seed = int(rng.integers(0, 2**31))
    argv = [kind, "--eta", eta]
    if kind == "qpeh":
        argv += ["--delta", delta]
    argv += ["--aux", aux, "--n", "12", "--allow-leakage"]
    if i % 3 == 0:
        return Request(tuple(argv + ["--exact"]), kind, 12)
    argv += ["--shots", str(LEAKY_SHOTS), "--seed", str(seed)]
    return Request(tuple(argv), kind, 12, shots=LEAKY_SHOTS, seed=seed)


_GENERATORS = {
    "exact-n16": _exact_n16,
    "sweep-n10-cold": _sweep_n10,
    "leaky-n12": _leaky_n12,
}


def requests(workload: str, seed: int):
    """The endless request stream of `workload` for `seed`."""
    make = _GENERATORS[workload]
    rng = np.random.default_rng([seed, sorted(_GENERATORS).index(workload)])
    for i in count():
        yield make(rng, i)
