"""Command line front end.

Subcommands: `analytic` evaluates the closed-form path model, `qpev` and
`qpeh` run the two estimation circuits, `pipeline` runs both and extracts
the accumulated phase, `sweep` grids the exact pipeline over angle ranges
and writes CSV.

Each command's options are declared once, in `_COMMANDS`, as the
keywords argparse's `add_argument` takes. `main` reads argv of the form
COMMAND (--flag VALUE | --switch)*, each flag once, straight from that
table. Any other argv goes to `build_parser`, which builds argparse's
parser from the same table; argparse is imported only there, so help,
abbreviations, `--flag=value` forms and every usage error are still its
own, and a canonical launch loads neither argparse nor json.

Exit codes: 0 success (warnings allowed), 2 usage or angle-parse error,
3 singular or inconsistent configuration, 4 I/O error. Errors are emitted
as one-line JSON objects on stderr.
"""

import functools
import math
import re
import sys
from types import SimpleNamespace

from .angles import parse_angle
from .errors import AngleParseError, ConfigurationError
from .extraction import BRANCHES, full_pipeline, reconstruct_CS, reconstruct_absA, window_sweep
from .gates import Axis, RotationSpec, rx, ry
from .precession import (PathParams, TotalPhase, amplitude_pair, amplitudes_AB, amplitudes_CS,
                         total_phase)
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

#: most sweep grid points per axis: a MAX_STEPS**2 grid is 10**6 pipelines
MAX_STEPS = 1000


def _echo(run: RunSettings) -> dict:
    """A run's register width and sampling settings as a record's config echoes them."""
    return {"n": run.counting_qubits, "shots": run.shots, "seed": run.seed, "mode": run.mode}


def _refuse_leakage(config: QpeConfig, allow_leakage: bool) -> None:
    """ConfigurationError unless the auxiliary angle of `config` is
    dyadic-exact or `allow_leakage` accepts the leak."""
    if not allow_leakage and not expected_bins(config).dyadic_exact:
        raise ConfigurationError(
            f"auxiliary angle {config.aux.angle!r} is not an integer multiple of "
            f"4*pi/{1 << config.run.counting_qubits}, so the readout leaks into "
            "neighboring bins; rerun with --allow-leakage to accept that"
        )


def _readout(run: RunSettings, axis: Axis, aux: float, target_prep: tuple,
             allow_leakage: bool):
    """Run one estimation circuit, QpeConfig(run, RotationSpec(axis, aux),
    target_prep); (histogram, decode result)."""
    config = QpeConfig(run, RotationSpec(axis, aux), target_prep)
    _refuse_leakage(config, allow_leakage)
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
        with open(out, "w", encoding="utf-8", errors="surrogateescape") as file:
            file.write(text)


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
                 warnings=[*result.warnings, *phase.warnings])


def cmd_pipeline(args) -> int:
    eta = parse_angle(args.eta)
    delta = parse_angle(args.delta)
    aux_v = parse_angle(args.aux_v)
    aux_h = parse_angle(args.aux_h)
    run = RunSettings(args.n, args.shots, args.seed)
    for axis, aux in ((Axis.Y, aux_v), (Axis.X, aux_h)):
        _refuse_leakage(QpeConfig(run, RotationSpec(axis, aux)), args.allow_leakage)
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
    if steps > MAX_STEPS:
        raise ConfigurationError(f"--steps must be <= {MAX_STEPS}, got {steps}")
    if lo == hi or steps == 1:
        return [lo]
    width = (hi - lo) / (steps - 1)
    return [lo + i * width for i in range(steps)]


def cmd_sweep(args) -> int:
    eta_lo, eta_hi = _parse_range(args.eta_range, "--eta-range")
    delta_lo, delta_hi = _parse_range(args.delta_range, "--delta-range")
    aux = parse_angle(DEFAULT_AUX)
    run = RunSettings(args.n)
    etas, deltas = _grid(eta_lo, eta_hi, args.steps), _grid(delta_lo, delta_hi, args.steps)
    points = [PathParams(eta, delta) for eta in etas for delta in deltas]
    # the three analytic columns, as _analytic_section makes them; C2 is one per eta
    c2 = {eta: amplitudes_CS(eta).C ** 2 for eta in etas}
    rows = []
    for params, result in zip(points, window_sweep(points, run.counting_qubits, aux)):
        rows.append({
            "eta": params.eta,
            "delta": params.delta,
            "C2": c2[params.eta],
            "half_absA2": abs(amplitude_pair(params)[0]) ** 2 / 2.0,
            "theta_analytic": result["phase_analytic"].theta,
            "theta_est": result["theta_est"],
            "residual_theta": result["residual_theta"],
        })
    _write(sweep_csv(rows), args.out)
    return EXIT_OK


def _angle(flag: str, text: str, example: str = "-pi/3", default: str | None = None,
           metavar: str | None = None) -> tuple:
    """An option that takes a signed angle or range, required unless it has
    a default. argparse reads a value that starts with "-" as a flag unless
    it is a plain negative decimal such as -0.7, so -pi/3, -1e-3 or
    -1:0.5 only pass attached to the flag, and the help text says so."""
    return flag, {"default": default, "required": default is None, "metavar": metavar,
                  "help": f"{text} (write a negative value attached: {flag}={example})"}


_ETA = _angle("--eta", "segment-1 angle")
_DELTA = _angle("--delta", "segment-2 angle")
_ALLOW_LEAKAGE = ("--allow-leakage", {"action": "store_true", "default": False,
                                      "help": "accept a non dyadic-exact auxiliary angle"})
_N = ("--n", {"type": int, "default": DEFAULT_N,
              "help": f"counting-register width (default {DEFAULT_N})"})
_RUN = (
    _N,
    ("--shots", {"type": int, "help": "sample this many shots instead of exact probabilities"}),
    ("--exact", {"action": "store_true", "default": False,
                 "help": "exact probabilities (the default)"}),
    ("--seed", {"type": int, "default": DEFAULT_SEED,
                "help": f"sampling seed (default {DEFAULT_SEED}, sampled mode only)"}),
)
_OUTPUT = (
    ("--format", {"choices": ("json", "csv"), "default": "json",
                  "help": "record output format (default json)"}),
    ("--out", {"metavar": "PATH", "help": "write output to PATH instead of stdout"}),
)
#: the flags of `_RUN` that exclude each other
_MODE = ("--shots", "--exact")

#: command -> (help, function, options in help order, mutually exclusive
#: flags). An option is (flag, the keywords argparse's `add_argument`
#: takes); its dest is the flag without "--", "-" read as "_", and a
#: switch is a store_true action that declares its default False.
#: `build_parser` and `_parse_canonical` both read this table.
_COMMANDS = {
    "analytic": ("closed-form amplitudes and phase", cmd_analytic, (
        _angle("--eta", "segment-1 angle, radians or pi fraction"), _DELTA, *_OUTPUT), ()),
    "qpev": ("vertical run: measure C^2 and S^2", cmd_qpev, (
        _ETA, _angle("--aux", f"auxiliary Y-rotation angle, default {DEFAULT_AUX}", "-pi/4",
                     DEFAULT_AUX),
        _ALLOW_LEAKAGE, *_RUN, *_OUTPUT), _MODE),
    "qpeh": ("horizontal run: measure |A|^2/2 and |B|^2/2", cmd_qpeh, (
        _ETA, _DELTA,
        _angle("--aux", f"auxiliary X-rotation angle, default {DEFAULT_AUX}", "-pi/4",
               DEFAULT_AUX),
        _ALLOW_LEAKAGE, *_RUN, *_OUTPUT), _MODE),
    "pipeline": ("both runs plus phase extraction", cmd_pipeline, (
        _ETA, _DELTA,
        _angle("--aux-v", f"vertical auxiliary angle, default {DEFAULT_AUX}", "-pi/4",
               DEFAULT_AUX),
        _angle("--aux-h", f"horizontal auxiliary angle, default {DEFAULT_AUX}", "-pi/4",
               DEFAULT_AUX),
        ("--branch", {"choices": BRANCHES, "default": "principal",
                      "help": "delta branch for asin(sin delta)"}),
        _ALLOW_LEAKAGE, *_RUN, *_OUTPUT), _MODE),
    "sweep": ("grid the exact pipeline, write CSV", cmd_sweep, (
        _angle("--eta-range", "segment-1 range, e.g. 0.2:1.3 or pi/12:pi/3", "-1:0.5",
               metavar="LO:HI"),
        _angle("--delta-range", "segment-2 range", "-pi/3:0", metavar="LO:HI"),
        ("--steps", {"type": int, "default": 12,
                     "help": f"grid points per axis, 1 to {MAX_STEPS} (default 12)"}),
        ("--exact", {"action": "store_true", "default": False,
                     "help": "exact probabilities (sweeps always run exact)"}),
        _N,
        ("--out", {"metavar": "PATH", "help": "write CSV to PATH instead of stdout"})), ()),
}


@functools.cache
def build_parser():
    """The argument parser of `_COMMANDS`, built once per process; parsing
    leaves it unchanged. argparse is imported here, so only a launch that
    needs it (help, a usage error, argv `_parse_canonical` does not read)
    pays for it and for its gettext lookups."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports a usage error as the one JSON line on stderr that every
        error gets, then exits 2 as argparse does; subparsers inherit this."""

        def error(self, message: str):
            _emit_error(EXIT_USAGE, argparse.ArgumentError(None, message))
            sys.exit(EXIT_USAGE)

    parser = _Parser(
        prog="spinqpe",
        description="Phase estimation readout of two-segment spin precession",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, func, options, exclusive) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        group = p.add_mutually_exclusive_group() if exclusive else p
        for flag, keywords in options:
            (group if flag in exclusive else p).add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


#: a dash-led value that every argparse version reads as a value, not a
#: flag, in a parser with no flag that looks like a negative number;
#: compiled on first use, so a launch that reads none compiles no pattern
_NEGATIVE_DECIMAL = r"-\d+|-\d*\.\d+"


def _parse_canonical(argv: list) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` gives, as a
    SimpleNamespace with the same attributes, for argv of the form COMMAND
    (--flag VALUE | --switch)*, each flag once, read from `_COMMANDS`; None
    for any other argv, which argparse then parses, so help,
    abbreviations, `--flag=value` and every usage error stay its own."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, func, options, exclusive = command
    unread = dict(options)
    given = {}
    words = iter(argv[1:])
    for word in words:
        keywords = unread.pop(word, None)  # a repeated flag is no longer unread
        if keywords is None:
            return None
        if "action" in keywords:
            given[word] = True
            continue
        text = next(words, None)
        if text is None or text[:1] == "-" and not re.fullmatch(_NEGATIVE_DECIMAL, text):
            return None
        try:
            value = keywords.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[word] = value
    if any(keywords.get("required") for keywords in unread.values()) or sum(
            flag in given for flag in exclusive) > 1:
        return None
    values = {**{flag: keywords.get("default") for flag, keywords in unread.items()}, **given}
    return SimpleNamespace(command=argv[0], func=func,
                           **{flag[2:].replace("-", "_"): value for flag, value in values.items()})


def _emit_error(code: int, exc: BaseException) -> None:
    import json

    payload = {"error": {
        "exit_code": code,
        "type": type(exc).__name__,
        "message": str(exc),
    }}
    print(json.dumps(payload), file=sys.stderr)


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parse_canonical(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        for dest, value in vars(args).items():
            if type(value) is list:  # argparse reads an attached `--flag=--` as []
                build_parser().error(f"argument --{dest.replace('_', '-')}: expected one argument")
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
