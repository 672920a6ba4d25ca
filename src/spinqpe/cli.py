"""Command line front end.

Subcommands: `analytic` evaluates the closed-form path model, `qpev` and
`qpeh` run the two estimation circuits, `pipeline` runs both and extracts
the accumulated phase, `sweep` grids the exact pipeline over angle ranges
and writes CSV.

Exit codes: 0 success (warnings allowed), 2 usage or angle-parse error,
3 singular or inconsistent configuration, 4 I/O error. Errors are emitted
as one-line JSON objects on stderr.
"""

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .angles import parse_angle
from .errors import AngleParseError, ConfigurationError
from .extraction import BRANCHES, full_pipeline, reconstruct_CS, reconstruct_absA
from .gates import Axis, RotationSpec, rx, ry
from .precession import PathParams, TotalPhase, amplitudes_AB, amplitudes_CS, total_phase
from .qpe import QpeConfig, RunSettings, decode, expected_bins, run_qpe
from .records import (
    decode_payload,
    extraction_payloads,
    histogram_payload,
    make_record,
    sweep_csv,
    to_csv,
    to_json,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4

DEFAULT_N = 10
DEFAULT_AUX = "pi/4"
DEFAULT_SEED = 0


def _add_angle(parser: argparse.ArgumentParser, flag: str, text: str,
               example: str = "-pi/3", **kwargs) -> None:
    """Add an option that takes a signed angle or range. argparse reads a
    value that starts with "-" as a flag unless it is a plain negative
    decimal such as -0.7, so -pi/3, -1e-3 or -1:0.5 only pass attached to
    the flag, and the help text says so."""
    parser.add_argument(
        flag, help=f"{text} (write a negative value attached: {flag}={example})", **kwargs)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["json", "csv"], default="json",
                        help="record output format (default json)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=DEFAULT_N,
                        help=f"counting-register width (default {DEFAULT_N})")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--shots", type=int, default=None,
                       help="sample this many shots instead of exact probabilities")
    group.add_argument("--exact", action="store_true",
                       help="exact probabilities (the default)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"sampling seed (default {DEFAULT_SEED}, sampled mode only)")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one JSON line on stderr that every
    error gets, then exits 2 as argparse does; subparsers inherit this."""

    def error(self, message: str):
        _emit_error(EXIT_USAGE, argparse.ArgumentError(None, message))
        sys.exit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="spinqpe",
        description="Phase estimation readout of two-segment spin precession",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form amplitudes and phase")
    _add_angle(p, "--eta", "segment-1 angle, radians or pi fraction", required=True)
    _add_angle(p, "--delta", "segment-2 angle", required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("qpev", help="vertical run: measure C^2 and S^2")
    _add_angle(p, "--eta", "segment-1 angle", required=True)
    _add_angle(p, "--aux", f"auxiliary Y-rotation angle, default {DEFAULT_AUX}", "-pi/4",
               default=DEFAULT_AUX)
    p.add_argument("--allow-leakage", action="store_true",
                   help="accept a non dyadic-exact auxiliary angle")
    _add_run_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_qpev)

    p = sub.add_parser("qpeh", help="horizontal run: measure |A|^2/2 and |B|^2/2")
    _add_angle(p, "--eta", "segment-1 angle", required=True)
    _add_angle(p, "--delta", "segment-2 angle", required=True)
    _add_angle(p, "--aux", f"auxiliary X-rotation angle, default {DEFAULT_AUX}", "-pi/4",
               default=DEFAULT_AUX)
    p.add_argument("--allow-leakage", action="store_true",
                   help="accept a non dyadic-exact auxiliary angle")
    _add_run_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_qpeh)

    p = sub.add_parser("pipeline", help="both runs plus phase extraction")
    _add_angle(p, "--eta", "segment-1 angle", required=True)
    _add_angle(p, "--delta", "segment-2 angle", required=True)
    _add_angle(p, "--aux-v", f"vertical auxiliary angle, default {DEFAULT_AUX}", "-pi/4",
               default=DEFAULT_AUX)
    _add_angle(p, "--aux-h", f"horizontal auxiliary angle, default {DEFAULT_AUX}", "-pi/4",
               default=DEFAULT_AUX)
    p.add_argument("--branch", choices=BRANCHES,
                   default="principal", help="delta branch for asin(sin delta)")
    _add_run_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("sweep", help="grid the exact pipeline, write CSV")
    _add_angle(p, "--eta-range", "segment-1 range, e.g. 0.2:1.3 or pi/12:pi/3", "-1:0.5",
               required=True, metavar="LO:HI")
    _add_angle(p, "--delta-range", "segment-2 range", "-pi/3:0",
               required=True, metavar="LO:HI")
    p.add_argument("--steps", type=int, default=12,
                   help="grid points per axis (default 12)")
    p.add_argument("--exact", action="store_true",
                   help="exact probabilities (sweeps always run exact)")
    p.add_argument("--n", type=int, default=DEFAULT_N,
                   help=f"counting-register width (default {DEFAULT_N})")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write CSV to PATH instead of stdout")
    p.set_defaults(func=cmd_sweep)

    return parser


def _echo(run: RunSettings) -> dict:
    """A run's register width and sampling settings as a record's config echoes them."""
    return {"n": run.counting_qubits, "shots": run.shots, "seed": run.seed, "mode": run.mode}


def _readout(run: RunSettings, axis: Axis, aux: float, target_prep: tuple,
             allow_leakage: bool):
    """Run one estimation circuit, QpeConfig(run, RotationSpec(axis, aux),
    target_prep); (histogram, decode result)."""
    config = QpeConfig(run, RotationSpec(axis, aux), target_prep)
    if not expected_bins(config).dyadic_exact and not allow_leakage:
        raise ConfigurationError(
            f"auxiliary angle {aux!r} is not an integer multiple of "
            f"4*pi/{1 << run.counting_qubits}, so the readout leaks into "
            "neighboring bins; rerun with --allow-leakage to accept that"
        )
    hist = run_qpe(config)
    return hist, decode(hist, config)


def _analytic_section(eta: float, delta: float | None = None,
                      phase: TotalPhase | None = None) -> dict:
    """Closed-form `analytic` section: C and S from eta alone, and the
    two-segment amplitudes too once delta and its total_phase are given."""
    cs = amplitudes_CS(eta)
    section = {"C": cs.C, "S": cs.S, "C2": cs.C ** 2, "S2": cs.S ** 2}
    if phase is None:
        return section
    ab = amplitudes_AB(PathParams(eta, delta))
    return {
        **section,
        "absA": abs(ab.A),
        "theta": phase.theta,
        "A_re": ab.A.real,
        "A_im": ab.A.imag,
        "B_re": ab.B.real,
        "B_im": ab.B.imag,
        "gamma1": ab.gamma1,
        "gamma2": ab.gamma2,
        "half_absA2": abs(ab.A) ** 2 / 2.0,
        "half_absB2": abs(ab.B) ** 2 / 2.0,
        "magnitude": phase.magnitude,
        # NaN where S + C vanishes; JSON has no NaN, so the record says null
        "theta_arctan": None if math.isnan(phase.theta_arctan) else phase.theta_arctan,
    }


def _write(text: str, out: str | None) -> None:
    """Write `text` to stdout, or to the file `out`. Python holds an argv
    byte that is not UTF-8 as a lone surrogate, and a CSV record echoes
    argv, so the file gets such a byte back as it was passed."""
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", errors="surrogateescape")


def _emit(args, **sections) -> int:
    """Write the record of this invocation in the requested format."""
    record = make_record(command=args._argv, **sections)
    _write(to_csv(record) if args.format == "csv" else to_json(record), args.out)
    return EXIT_OK


def cmd_analytic(args) -> int:
    eta = parse_angle(args.eta)
    delta = parse_angle(args.delta)
    phase = total_phase(PathParams(eta, delta))
    return _emit(args, config={"eta": eta, "delta": delta},
                 analytic=_analytic_section(eta, delta, phase), warnings=phase.warnings)


def cmd_qpev(args) -> int:
    eta = parse_angle(args.eta)
    aux = parse_angle(args.aux)
    run = RunSettings(args.n, args.shots, args.seed)
    hist, result = _readout(run, Axis.Y, aux, (rx(-eta),), args.allow_leakage)
    cs = reconstruct_CS(result.p_plus, result.p_minus)
    return _emit(args, config={"eta": eta, "aux_v": aux, **_echo(run)},
                 histograms={"qpev": histogram_payload(hist)},
                 decoded={"qpev": decode_payload(result)},
                 estimates={"C": cs.C, "S": cs.S},
                 analytic=_analytic_section(eta), warnings=result.warnings)


def cmd_qpeh(args) -> int:
    eta = parse_angle(args.eta)
    delta = parse_angle(args.delta)
    aux = parse_angle(args.aux)
    run = RunSettings(args.n, args.shots, args.seed)
    hist, result = _readout(run, Axis.X, aux, (rx(-eta), ry(delta)), args.allow_leakage)
    absA = reconstruct_absA(result.p_plus)
    phase = total_phase(PathParams(eta, delta))
    return _emit(args, config={"eta": eta, "delta": delta, "aux_h": aux, **_echo(run)},
                 histograms={"qpeh": histogram_payload(hist)},
                 decoded={"qpeh": decode_payload(result)},
                 estimates={"absA": absA},
                 analytic=_analytic_section(eta, delta, phase),
                 warnings=result.warnings + phase.warnings)


def cmd_pipeline(args) -> int:
    eta = parse_angle(args.eta)
    delta = parse_angle(args.delta)
    aux_v = parse_angle(args.aux_v)
    aux_h = parse_angle(args.aux_h)
    run = RunSettings(args.n, args.shots, args.seed)
    result = full_pipeline(PathParams(eta, delta), run, aux_v, aux_h, args.branch)
    histograms, decoded = extraction_payloads(result)
    return _emit(
        args,
        config={"eta": eta, "delta": delta, "aux_v": aux_v, "aux_h": aux_h,
                **_echo(run), "branch": args.branch},
        histograms=histograms,
        decoded=decoded,
        estimates={
            "C": result.C_est,
            "S": result.S_est,
            "absA": result.absA_est,
            "sin_delta": result.sin_delta_est,
            "sin_delta_raw": result.sin_delta_raw,
            "delta": result.delta_est,
            "theta": result.theta_est,
        },
        analytic=_analytic_section(eta, delta, result.phase_analytic),
        residual_theta=result.residual_theta,
        warnings=result.warnings,
    )


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise ConfigurationError(f"{flag} must look like LO:HI, got {text!r}")
    lo = parse_angle(lo_text)
    hi = parse_angle(hi_text)
    limit = math.pi / 2.0
    for value in (lo, hi):
        if not -limit < value < limit:
            raise ConfigurationError(
                f"{flag} endpoint {value!r} outside (-pi/2, pi/2); the "
                "nonnegative-root reconstruction is only valid inside"
            )
    return lo, hi


def _grid(lo: float, hi: float, steps: int) -> list:
    if steps < 1:
        raise ConfigurationError(f"--steps must be >= 1, got {steps}")
    if lo == hi or steps == 1:
        return [lo]
    width = (hi - lo) / (steps - 1)
    return [lo + i * width for i in range(steps)]


def cmd_sweep(args) -> int:
    eta_lo, eta_hi = _parse_range(args.eta_range, "--eta-range")
    delta_lo, delta_hi = _parse_range(args.delta_range, "--delta-range")
    aux = parse_angle(DEFAULT_AUX)
    run = RunSettings(args.n)
    rows = []
    for eta in _grid(eta_lo, eta_hi, args.steps):
        for delta in _grid(delta_lo, delta_hi, args.steps):
            result = full_pipeline(PathParams(eta, delta), run, aux, aux)
            analytic = _analytic_section(eta, delta, result.phase_analytic)
            rows.append({
                "eta": eta,
                "delta": delta,
                "C2": analytic["C2"],
                "half_absA2": analytic["half_absA2"],
                "theta_analytic": analytic["theta"],
                "theta_est": result.theta_est,
                "residual_theta": result.residual_theta,
            })
    _write(sweep_csv(rows), args.out)
    return EXIT_OK


def _emit_error(code: int, exc: BaseException) -> None:
    payload = {"error": {
        "exit_code": code,
        "type": type(exc).__name__,
        "message": str(exc),
    }}
    print(json.dumps(payload), file=sys.stderr)


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.func(args)
    except AngleParseError as exc:
        _emit_error(EXIT_USAGE, exc)
        return EXIT_USAGE
    except ConfigurationError as exc:
        _emit_error(EXIT_CONFIG, exc)
        return EXIT_CONFIG
    except OSError as exc:
        _emit_error(EXIT_IO, exc)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
