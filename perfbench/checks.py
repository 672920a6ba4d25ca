"""Per-request correctness checks, estimate errors and output digests.

A request passes when the CLI exited 0 with nothing on stderr and its
output holds the documented promises:

* every JSON record validates against `spinqpe.RUN_RECORD_SCHEMA`, and its
  config echoes the request's n, mode, shots and seed;
* exact-mode histograms sum to 1, sampled ones to the shot count;
* on a workload whose pipelines are exact and dyadic (`closed_form`),
  residual_theta and the decoded C^2, S^2 and |A|^2/2 match the closed form
  within `FLOAT_TOL`;
* a sweep CSV has the documented columns, steps^2 rows, the requested grid
  corners and every residual_theta within `FLOAT_TOL`.

Spectral leakage biases the leaky estimates; that bias is measured by
`estimate_err_rms`, never counted as a failure.
"""

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

#: tolerance for quantities that are exact up to floating-point rounding
FLOAT_TOL = 1e-10

#: |estimate - closed form| at or below this counts as 0 in estimate_err_rms
ERROR_FLOOR = 1e-12

#: sweep CSV columns, as documented in the README
SWEEP_COLUMNS = ["eta", "delta", "C2", "half_absA2", "theta_analytic",
                 "theta_est", "residual_theta"]

#: estimate fields compared with the record's own analytic section
ESTIMATE_FIELDS = {"pipeline": ("theta",), "qpev": ("C", "S"), "qpeh": ("absA",)}


class CheckFailed(Exception):
    pass


@dataclass
class Checked:
    """What one passing request contributes to the run's summary."""

    errors: list = field(default_factory=list)  # |estimate - closed form|
    sampled: list = field(default_factory=list)  # (name, [(m, count)])
    exact: dict = field(default_factory=dict)  # name -> dense float array


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float, what: str) -> None:
    _require(abs(a - b) <= FLOAT_TOL, f"{what}: {a!r} vs closed form {b!r}")


def _error(estimate: float, reference: float) -> float:
    err = abs(estimate - reference)
    return 0.0 if err <= ERROR_FLOOR else err


def check_record(text: str, request, validator, closed_form: bool) -> Checked:
    record = json.loads(text)
    validator.validate(record)
    config = record["config"]
    mode = "sampled" if request.shots else "exact"
    _require(config["n"] == request.n, f"config n {config['n']} != {request.n}")
    _require(config["mode"] == mode, f"config mode {config['mode']} != {mode}")
    _require(config["shots"] == request.shots, "config shots differ from request")
    if request.shots:
        _require(config["seed"] == request.seed, "config seed differs from request")

    out = Checked()
    for name, hist in record["histograms"].items():
        if hist is None:
            continue
        entries = hist["entries"]
        if request.shots:
            counts = [(e["m"], e["count"]) for e in entries]
            total = sum(c for _, c in counts)
            _require(hist["total_shots"] == request.shots == total,
                     f"{name}: counts sum to {total}, expected {request.shots}")
            out.sampled.append((name, counts))
        else:
            dense = np.zeros(1 << hist["num_bits"])
            for e in entries:
                dense[e["m"]] = e["probability"]
            _require(abs(dense.sum() - 1.0) <= FLOAT_TOL,
                     f"{name}: exact probabilities sum to {dense.sum()!r}")
            out.exact[name] = dense

    estimates, analytic = record["estimates"], record["analytic"]
    out.errors = [_error(estimates[f], analytic[f])
                  for f in ESTIMATE_FIELDS[request.kind]]
    if closed_form:
        decoded = record["decoded"]
        _close(record["residuals"]["theta"], 0.0, "residual_theta")
        _close(decoded["qpev"]["p_plus"], analytic["C2"], "decoded C^2")
        _close(decoded["qpev"]["p_minus"], analytic["S2"], "decoded S^2")
        _close(decoded["qpeh"]["p_plus"], analytic["half_absA2"], "decoded |A|^2/2")
    return out


def _range(argv: tuple, flag: str) -> tuple[float, float]:
    lo, hi = argv[argv.index(flag) + 1].split(":")
    return float(lo), float(hi)


def check_sweep_csv(text: str, request) -> Checked:
    reader = csv.DictReader(io.StringIO(text, newline=""))
    rows = list(reader)
    _require(reader.fieldnames == SWEEP_COLUMNS,
             f"sweep columns {reader.fieldnames} != {SWEEP_COLUMNS}")
    _require(len(rows) == request.steps ** 2,
             f"sweep has {len(rows)} rows, expected {request.steps ** 2}")
    values = np.array([[float(row[c]) for c in SWEEP_COLUMNS] for row in rows])
    eta, delta = _range(request.argv, "--eta-range"), _range(request.argv, "--delta-range")
    corners = values[[0, -1], :2]
    _require(np.allclose(corners, [[eta[0], delta[0]], [eta[1], delta[1]]],
                         rtol=0.0, atol=FLOAT_TOL),
             f"sweep grid corners {corners.tolist()} do not match the request")
    residual = np.abs(values[:, SWEEP_COLUMNS.index("residual_theta")])
    _require(residual.max() <= FLOAT_TOL, f"sweep residual_theta up to {residual.max()!r}")
    theta = values[:, SWEEP_COLUMNS.index("theta_est")]
    theta_ref = values[:, SWEEP_COLUMNS.index("theta_analytic")]
    return Checked(errors=[_error(a, b) for a, b in zip(theta, theta_ref)],
                   exact={"sweep": values})


def sampled_digest(checked: list) -> str:
    """sha256 over every sampled histogram (outcome, count) in request
    order; under numpy's PCG64 contract it must not change across commits."""
    h = hashlib.sha256()
    for i, c in enumerate(checked):
        for name, counts in c.sampled:
            h.update(f"{i}:{name}:".encode())
            h.update(";".join(f"{m},{k}" for m, k in counts).encode())
            h.update(b"\n")
    return h.hexdigest()


def exact_arrays(checked: list) -> dict:
    """Exact-mode outputs keyed "<request>.<name>": dense probabilities per
    histogram, or a sweep's numeric CSV table."""
    return {f"{i:04d}.{name}": values
            for i, c in enumerate(checked) for name, values in c.exact.items()}


def max_abs_diff(a: dict, b: dict) -> float:
    """Largest absolute difference between two `exact_arrays` dumps; inf
    when their keys or shapes differ."""
    if a.keys() != b.keys():
        return float("inf")
    worst = 0.0
    for key in a:
        if a[key].shape != b[key].shape:
            return float("inf")
        if a[key].size:
            worst = max(worst, float(np.max(np.abs(a[key] - b[key]))))
    return worst
