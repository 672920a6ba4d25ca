"""The command line contract on every input: exit codes are only 0, 2, 3
or 4, every failure is one JSON line on stderr, and records are strict
JSON (RFC 8259 has no NaN or Infinity)."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import tempfile
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinqpe import RUN_RECORD_SCHEMA, ConfigurationError, Histogram, RunSettings
from spinqpe import cli
from spinqpe.cli import MAX_STEPS, build_parser, main

CONTRACT_CODES = {0, 2, 3, 4}


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def invoke(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(code: int, out: str, err: str) -> None:
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert strict_json(lines[0])["error"]["exit_code"] == code


def record_of(argv: list) -> dict:
    code, out, err = invoke(argv)
    assert code == 0, err
    record = strict_json(out)
    jsonschema.validate(record, RUN_RECORD_SCHEMA)
    return record


@pytest.mark.parametrize("argv, code", [
    (["analytic", "--eta", "1e400", "--delta", "0"], 2),
    (["qpev", "--eta", "pi/3", "--aux", "1e400"], 2),
    (["qpeh", "--eta", "pi/3", "--delta", "1e400"], 2),
    (["pipeline", "--eta", "pi/3", "--delta=-1e400"], 2),
    (["qpev", "--eta", "1" + "0" * 400 + "pi"], 2),
    (["qpev", "--eta", "1" * 5000], 2),
    (["qpev", "--eta", "pi/3", "--shots", "10", "--seed", "-1"], 3),
    (["qpev", "--eta", "pi/3", "--shots", "9223372036854775808"], 3),
    (["qpev", "--eta", "pi/3", "--aux", "1e305", "--n", "16", "--allow-leakage"], 3),
    # 2^n aux / (4 pi) has no fraction left in a float; the readout still leaks
    (["qpev", "--eta", "pi/3", "--aux", "3.3e15", "--n", "6"], 3),
    (["sweep", "--eta-range", "0:1", "--delta-range", "0:1", "--steps", "0"], 3),
    # refused before any grid is built
    (["sweep", "--eta-range", "0:1", "--delta-range", "0:1", "--steps", "1001"], 3),
    (["sweep", "--eta-range", "0.2:1.3", "--delta-range", "0.2:1.3", "--steps", "300000000",
      "--n", "2"], 3),
    # every horizontal shot in the plus window, so |A| = sqrt(2), and the 20
    # vertical shots put sin(delta) at 1.09: the readouts are inconsistent
    (["pipeline", "--eta", "0.4", "--delta", "pi/2", "--aux-h", "1.0", "--n", "5",
      "--shots", "20", "--seed", "24"], 3),
])
def test_boundary_inputs_exit_with_contract_code(argv, code):
    got, out, err = invoke(argv)
    assert got == code
    assert_one_error_line(got, out, err)


def invoke_parser(argv: list) -> tuple[int, str, str]:
    """(SystemExit code, stdout, stderr) of an invocation argparse ends."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
    return excinfo.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    [],
    ["nosuch"],
    ["qpev"],
    ["qpev", "--eta"],
    ["qpev", "--eta", "pi/3", "--n", "x"],
    ["qpev", "--eta", "pi/3", "--bogus"],
    ["qpev", "--eta", "pi/3", "--shots", "1", "--exact"],
    ["pipeline", "--eta", "pi/3", "--delta", "pi/3", "--branch", "other"],
    ["sweep", "--eta-range", "0:1", "--delta-range", "0:1", "--steps", "1.5"],
])
def test_usage_error_is_one_json_line(argv):
    code, out, err = invoke_parser(argv)
    assert code == 2
    assert_one_error_line(code, out, err)
    assert strict_json(err)["error"]["type"] == "ArgumentError"


def test_help_still_exits_zero():
    code, out, err = invoke_parser(["qpev", "--help"])
    assert code == 0
    assert out.startswith("usage:") and err == ""


def test_sweep_help_names_the_steps_bound():
    code, out, err = invoke_parser(["sweep", "--help"])
    assert code == 0 and err == ""
    assert f"1 to {MAX_STEPS}" in " ".join(out.split())


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), steps=st.integers(1, 4),
       ends=st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4))
def test_sweep_with_overlapping_windows_exits_3(n, steps, ends):
    """At n <= 3 the decode windows around pi/4's bins overlap: a sweep
    exits 3 with the one line the pipeline at its first point writes."""
    eta_lo, eta_hi, delta_lo, delta_hi = map(repr, ends)
    code, out, err = invoke(["sweep", f"--eta-range={eta_lo}:{eta_hi}",
                             f"--delta-range={delta_lo}:{delta_hi}",
                             "--steps", str(steps), "--n", str(n)])
    assert_one_error_line(code, out, err)
    assert code == 3
    assert "decode windows around bins" in json.loads(err)["error"]["message"]
    assert err == invoke(["pipeline", f"--eta={eta_lo}", f"--delta={delta_lo}",
                          "--exact", "--n", str(n)])[2]


def test_largest_shot_count_is_sampled():
    record = record_of(["qpev", "--eta", "pi/3", "--n", "4",
                        "--shots", "9223372036854775807", "--seed", "0"])
    assert record["histograms"]["qpev"]["total_shots"] == 2**63 - 1
    # probabilities are count / shots rounded once from the integer ratio;
    # bin 60, inside the m_plus window, is one where dividing the two
    # float64-rounded operands gives a different last bit
    shots = 2**63 - 1
    record = record_of(["qpev", "--eta", "pi/3", "--n", "6", "--aux", "1.0",
                        "--allow-leakage", "--shots", str(shots), "--seed", "0"])
    entries = record["histograms"]["qpev"]["entries"]
    for entry in entries:
        assert entry["probability"] == entry["count"] / shots
    ratio = {entry["m"]: entry["count"] / shots for entry in entries}
    decoded = record["decoded"]["qpev"]
    window = {(decoded["m_plus"] + d) % 64 for d in range(-2, 3)}
    assert 60 in window
    total = 0  # added left to right in set order, as decode adds them
    for m in window:
        total += ratio.get(m, 0.0)
    assert decoded["p_plus"] == total


def test_exact_mode_ignores_seed():
    record = record_of(["qpev", "--eta", "pi/3", "--n", "4", "--seed=-1"])
    assert record["config"]["seed"] is None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.none(), st.integers(-1, 2**64)), st.integers(-1, 2**70))
@example(shots=2**63 - 1, seed=0)
@example(shots=2**63, seed=0)
@example(shots=0, seed=0)
@example(shots=5, seed=-1)
@example(shots=None, seed=-1)
def test_cli_sampling_follows_qpe_config(shots, seed):
    """`qpev` refuses exactly the shots and seed RunSettings refuses, and
    echoes the settings it accepts."""
    try:
        run = RunSettings(2, shots, seed)
    except ConfigurationError:
        run = None
    # aux pi puts the two readout bins at 1 and 3 of a 2-qubit register
    argv = ["qpev", "--eta", "pi/3", "--aux", "pi", "--n", "2", f"--seed={seed}"]
    code, out, err = invoke(argv if shots is None else [*argv, f"--shots={shots}"])
    if run is None:
        assert code == 3
        assert_one_error_line(code, out, err)
        return
    assert code == 0, err
    echo = strict_json(out)["config"]
    assert (echo["shots"], echo["seed"], echo["mode"]) == (run.shots, run.seed, run.mode)


_SEGMENT = st.floats(-1.3, 1.3).map(repr)
# near 0 both readout bins are bin 0 and every pipeline is refused
_AUX = st.builds("{}{}".format, st.sampled_from(["", "-"]), st.one_of(
    st.builds("{}pi/{}".format, st.integers(1, 40), st.sampled_from([1, 2, 4, 8, 16, 32, 64])),
    st.floats(1.0, 20.0).map(repr),
))
_MODE = st.one_of(
    st.just([]),
    st.builds(lambda shots, seed: [f"--shots={shots}", f"--seed={seed}"],
              st.integers(1, 10**5), st.integers(0, 2**32)),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(eta=_SEGMENT, delta=_SEGMENT, aux_v=_AUX, aux_h=_AUX, n=st.integers(2, 8),
       mode=_MODE)
@example(eta="1.0", delta="0.5", aux_v="pi/4", aux_h="1.0", n=6, mode=[])
def test_pipeline_runs_what_qpev_and_qpeh_run(eta, delta, aux_v, aux_h, n, mode):
    """`pipeline` and the two single-run commands build the same runs: its
    readouts equal those of `qpev` and `qpeh` given the same settings."""
    run = [f"--n={n}", *mode]
    code, out, _ = invoke(["pipeline", f"--eta={eta}", f"--delta={delta}",
                           f"--aux-v={aux_v}", f"--aux-h={aux_h}", *run])
    assume(code == 0)
    pipeline = strict_json(out)
    for name, argv in (
        ("qpev", ["qpev", f"--eta={eta}", f"--aux={aux_v}"]),
        ("qpeh", ["qpeh", f"--eta={eta}", f"--delta={delta}", f"--aux={aux_h}"]),
    ):
        code, out, err = invoke([*argv, "--allow-leakage", *run])
        assert code == 0, err
        record = strict_json(out)
        assert pipeline["histograms"][name] == record["histograms"][name]
        assert pipeline["decoded"][name] == record["decoded"][name]


@pytest.mark.parametrize("argv", [
    ["analytic", "--eta", "pi", "--delta", "pi"],
    ["qpeh", "--eta", "pi", "--delta", "pi", "--n", "6"],
    ["pipeline", "--eta", "pi", "--delta", "pi", "--n", "6"],
])
def test_vanishing_s_plus_c_is_reported_once(argv):
    notes = record_of(argv)["warnings"]
    assert sum("S + C vanishes" in note for note in notes) == 1


@pytest.mark.parametrize("argv", [
    ["analytic", "--eta", "pi", "--delta", "0.5"],
    ["pipeline", "--eta", "pi", "--delta", "pi", "--n", "6"],
])
def test_undefined_arctan_form_is_null(argv):
    record = record_of(argv)
    assert record["analytic"]["theta_arctan"] is None
    assert record["analytic"]["theta"] is not None


# -- property test over well-formed flags ---------------------------------

_INT = st.integers(min_value=0, max_value=10**30).map(str)

ANGLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}{}e{}".format, st.sampled_from(["", "-"]),
              st.integers(0, 999), st.integers(-400, 400)),
    st.builds("{}{}pi{}".format, st.sampled_from(["", "-"]),
              st.one_of(st.just(""), _INT, st.builds("{}/{}".format, _INT, _INT)),
              st.one_of(st.just(""), _INT.map("/{}".format))),
)


def _set(name, values):
    """`--name=value` for each drawn value."""
    return values.map(lambda v: [f"--{name}={v}"])


def _maybe(name, values):
    """`--name=value`, or nothing when the flag is left at its default."""
    return st.one_of(st.just([]), _set(name, values))


def _argv(*parts):
    return st.tuples(*parts).map(lambda lists: sum(lists, []))


_N = st.sampled_from([0, 1, 2, 3, 4, 5, 6, 17])
_FORMAT = _maybe("format", st.sampled_from(["json", "csv"]))
_RUN = _argv(
    _maybe("n", _N),
    st.one_of(st.just([]), st.just(["--exact"]), _set("shots", st.integers(-1, 10**30))),
    _maybe("seed", st.integers(-1, 2**70)),
    _FORMAT,
)
_LEAK = st.sampled_from([[], ["--allow-leakage"]])
_RANGE = st.builds("{}:{}".format, ANGLES, ANGLES)

COMMANDS = st.one_of(
    _argv(st.just(["analytic"]), _set("eta", ANGLES), _set("delta", ANGLES), _FORMAT),
    _argv(st.just(["qpev"]), _set("eta", ANGLES), _maybe("aux", ANGLES), _LEAK, _RUN),
    _argv(st.just(["qpeh"]), _set("eta", ANGLES), _set("delta", ANGLES),
          _maybe("aux", ANGLES), _LEAK, _RUN),
    _argv(st.just(["pipeline"]), _set("eta", ANGLES), _set("delta", ANGLES),
          _maybe("aux-v", ANGLES), _maybe("aux-h", ANGLES),
          _maybe("branch", st.sampled_from(["principal", "reflected"])), _RUN),
    _argv(st.just(["sweep"]), _set("eta-range", _RANGE), _set("delta-range", _RANGE),
          _maybe("steps", st.integers(-1, 3)), _maybe("n", _N)),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(COMMANDS)
def test_cli_keeps_its_contract(argv):
    code, out, err = invoke(argv)
    assert code in CONTRACT_CODES
    if code:
        assert_one_error_line(code, out, err)
        return
    assert err == ""
    if argv[0] == "sweep" or "--format=csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2 and len({len(row) for row in rows}) == 1
    else:
        jsonschema.validate(strict_json(out), RUN_RECORD_SCHEMA)


# -- canonical argv against argparse --------------------------------------

#: command -> its subparser, as build_parser() holds them
SUBPARSERS = next(action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)).choices

#: values argparse reads apart from the plain ones: dash-led ones, of which
#: only plain negative decimals pass separated, and the empty string
_ODD_VALUES = st.sampled_from(["-pi/3", "-2.5e-3", "-0.7", "", "-1", "-.5", "-5.", "-1e3",
                               "-", "--", "-x"])
_ANGLE_VALUES = st.sampled_from(["0.4", "pi/4", "pi/3", "1.0", "0.7", "-0.3"])


def _values(action):
    """Values for one flag of the table: mostly ones its type and choices
    take, and some that argparse refuses or reads otherwise."""
    if action.dest == "out":  # a dash-led value would be a file name
        return st.just(os.devnull)
    if action.choices is not None:
        plain = st.one_of(st.sampled_from(list(action.choices)), st.sampled_from(["JSON", "x"]))
    elif action.type is int:
        plain = st.one_of(st.integers(1, 6).map(str),
                          st.sampled_from(["3.5", "1_6", " 2", "x", "-0", "0x10"]))
    elif action.dest.endswith("_range"):
        plain = st.builds("{}:{}".format, _ANGLE_VALUES, _ANGLE_VALUES)
    else:
        plain = _ANGLE_VALUES
    return st.one_of(plain, plain, plain, plain, plain, _ODD_VALUES)


@st.composite
def table_argv(draw):
    """argv of the form COMMAND (--flag VALUE | --switch)* drawn from a
    command's option table, often mutated: a flag abbreviated, written
    `--flag=value` or repeated, `--shots` with `--exact`, a required flag
    dropped, or `--`, `-h` or `--help` put in."""
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    actions = [action for action in SUBPARSERS[command]._actions
               if action.option_strings and action.dest != "help"]
    items = []
    for action in actions:
        if action.required or draw(st.booleans()):
            (flag,) = action.option_strings
            items.append([flag] if action.nargs == 0 else [flag, draw(_values(action))])
    items = list(draw(st.permutations(items)))
    flags = {action.option_strings[0] for action in actions}
    for mutation in draw(st.lists(st.sampled_from(
            ["abbreviate", "equals", "repeat", "both", "drop", "insert"]), max_size=2)):
        if mutation == "abbreviate" and items:
            item = draw(st.sampled_from(items))
            # an inserted "--" or "-h" is too short to abbreviate
            item[0] = item[0][:draw(st.integers(3, max(3, len(item[0]))))]
        elif mutation == "equals" and any(len(item) == 2 for item in items):
            item = draw(st.sampled_from([item for item in items if len(item) == 2]))
            item[:] = [f"{item[0]}={item[1]}"]
        elif mutation == "repeat" and items:
            items.append(list(draw(st.sampled_from(items))))
        elif mutation == "both" and {"--shots", "--exact"} <= flags:
            items += [["--shots", "5"], ["--exact"]]
        elif mutation == "drop" and items:
            items.remove(draw(st.sampled_from(items)))
        elif mutation == "insert":
            items.insert(draw(st.integers(0, len(items))),
                         [draw(st.sampled_from(["--", "-h", "--help"]))])
    return [command, *(word for item in items for word in item)]


def outcome(argv: list) -> tuple:
    """(exit code, stdout, stderr) of main(argv), argparse's exits among
    them; an exception main raises stands in for the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = repr(exc)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(table_argv())
@example(["pipeline", "--eta", "0.4", "--delta", "0.3", "--aux", "pi/4"])  # ambiguous
@example(["pipeline", "--eta", "0.4", "--delta", "0.3", "--n", "3.5"])
@example(["pipeline", "--eta", "0.4", "--delta", "0.3", "--n", "1_6", "--exact"])
@example(["qpev", "--eta", "0.4", "--format", "xml"])
@example(["qpev", "--eta", "-2.5e-3"])
@example(["qpeh", "--eta", "-0.7", "--delta", "", "--shots", "5", "--exact"])
@example(["analytic", "--", "--eta", "pi/3", "--delta", "pi/3"])
@example(["sweep", "-h"])
def test_canonical_parse_matches_argparse(argv):
    """main gives the same exit code, stdout and stderr with the canonical
    parse as with argparse alone, and a namespace it reads has the
    attributes of argparse's."""
    args = cli._parse_canonical(list(argv))
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(list(argv)))
    got = outcome(argv)
    with mock.patch.object(cli, "_parse_canonical", lambda argv: None):
        assert outcome(argv) == got


@pytest.mark.parametrize("argv", [
    ["pipeline", "--eta", "-0.412345", "--delta", "0.3", "--exact", "--n", "16"],
    ["qpeh", "--eta", "0.7", "--delta", "0.4", "--aux", "2.5", "--n", "12",
     "--allow-leakage", "--shots", "100000", "--seed", "5"],
    ["sweep", "--eta-range", "0.2:1.3", "--delta-range", "0.2:1.3", "--steps", "12",
     "--n", "10", "--exact"],
    ["analytic", "--eta", "pi/3", "--delta", "", "--format", "csv", "--out", "x.csv"],
])
def test_canonical_argv_is_read_from_the_table(argv):
    assert vars(cli._parse_canonical(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--eta-range=--", "--delta-range", "0:1"], "--eta-range"),
    (["qpev", "--eta=--"], "--eta"),
    (["qpev", "--eta", "pi/3", "--n=--"], "--n"),
])
def test_attached_double_dash_is_a_usage_error(argv, flag):
    """argparse reads an attached `--flag=--` as an empty list; main
    refuses it as a usage error that names the flag."""
    code, out, err = invoke_parser(argv)
    assert code == 2
    assert_one_error_line(code, out, err)
    assert strict_json(err)["error"] == {
        "exit_code": 2, "type": "ArgumentError",
        "message": f"argument {flag}: expected one argument"}


def test_separated_dash_led_angle_stays_a_usage_error():
    assert cli._parse_canonical(["qpev", "--eta", "-2.5e-3"]) is None
    code, out, err = invoke_parser(["qpev", "--eta", "-2.5e-3"])
    assert code == 2
    assert_one_error_line(code, out, err)
    assert "expected one argument" in strict_json(err)["error"]["message"]


# -- few-shot leaky sampled runs ------------------------------------------

#: runs at --n 5 --shots 20 --seed 24 in which every shot lands in the plus
#: window, whose 20 rounded count/shots ratios add up to 1.0000000000000002
WINDOW_HOLDS_EVERY_SHOT = [
    ["qpev", "--eta", "pi/2", "--aux", "1.0", "--allow-leakage"],
    ["qpeh", "--eta", "0.4", "--delta", "pi/2", "--aux", "1.0", "--allow-leakage"],
    ["pipeline", "--eta", "0", "--delta", "pi/2", "--aux-h", "1.0"],
]


@pytest.mark.parametrize("argv", WINDOW_HOLDS_EVERY_SHOT, ids=lambda argv: argv[0])
def test_window_holding_every_shot_has_mass_one(argv):
    record = record_of([*argv, "--n", "5", "--shots", "20", "--seed", "24"])
    assert record["decoded"]["qpev" if argv[0] == "qpev" else "qpeh"]["p_plus"] == 1.0
    if argv[0] != "qpev":
        assert record["estimates"]["absA"] == math.sqrt(2)


#: angles that put the target on an axis eigenvector, so one window can
#: hold every shot, and any others
_FEW_SHOT_ANGLES = st.one_of(st.sampled_from(["0", "pi/2", "-pi/2", "pi", "pi/4"]),
                             st.floats(-7.0, 7.0).map(repr))
FEW_SHOT_LEAKY = st.one_of(
    _argv(st.just(["qpev", "--allow-leakage"]), _set("eta", _FEW_SHOT_ANGLES),
          _set("aux", _FEW_SHOT_ANGLES)),
    _argv(st.just(["qpeh", "--allow-leakage"]), _set("eta", _FEW_SHOT_ANGLES),
          _set("delta", _FEW_SHOT_ANGLES), _set("aux", _FEW_SHOT_ANGLES)),
    _argv(st.just(["pipeline"]), _set("eta", _FEW_SHOT_ANGLES),
          _set("delta", _FEW_SHOT_ANGLES), _set("aux-v", _FEW_SHOT_ANGLES),
          _set("aux-h", _FEW_SHOT_ANGLES)),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(FEW_SHOT_LEAKY, st.integers(1, 8), st.integers(1, 40), st.integers(0, 2**32))
@example(argv=WINDOW_HOLDS_EVERY_SHOT[0], n=5, shots=20, seed=24)
@example(argv=WINDOW_HOLDS_EVERY_SHOT[1], n=5, shots=20, seed=24)
@example(argv=WINDOW_HOLDS_EVERY_SHOT[2], n=5, shots=20, seed=24)
@example(argv=["pipeline", "--eta", "0.4", "--delta", "pi/2", "--aux-h", "1.0"],
         n=5, shots=20, seed=24)
def test_few_shot_leaky_masses_stay_in_the_unit_interval(argv, n, shots, seed):
    code, out, err = invoke([*argv, f"--n={n}", f"--shots={shots}", f"--seed={seed}"])
    assert code in CONTRACT_CODES
    if code:
        assert_one_error_line(code, out, err)
        return
    masses = [run[key] for run in strict_json(out)["decoded"].values() if run is not None
              for key in ("p_plus", "p_minus")]
    assert masses and all(0.0 <= mass <= 1.0 for mass in masses)


#: file names under a fresh directory: plain, a byte that is not UTF-8 (held
#: by Python as a lone surrogate), non-ASCII UTF-8, and a missing directory
_OUT_NAMES = st.sampled_from([
    "rec.out", os.fsdecode(b"rec-\xff.csv"), os.fsdecode(b"\xfe\xff"), "r\u00e9c.json",
    os.path.join("missing", "rec.out"),
])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(COMMANDS, _OUT_NAMES)
def test_cli_keeps_its_contract_through_out(argv, name):
    """With --out the contract holds as on stdout, and a command that
    succeeds leaves a whole record in the file and nothing on stdout."""
    with tempfile.TemporaryDirectory() as directory:
        target = os.path.join(directory, name)
        code, out, err = invoke([*argv, f"--out={target}"])
        assert code in CONTRACT_CODES
        if code:
            assert_one_error_line(code, out, err)
            return
        assert (out, err) == ("", "")
        with open(target, "rb") as handle:
            text = handle.read().decode("utf-8", errors="surrogateescape")
    if argv[0] == "sweep" or "--format=csv" in argv:
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert len(rows) >= 2 and len({len(row) for row in rows}) == 1
        if argv[0] != "sweep":
            assert rows[1][0] == " ".join([*argv, f"--out={target}"])
    else:
        jsonschema.validate(strict_json(text), RUN_RECORD_SCHEMA)


_SEEDS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(lambda kind, value: kind(value),
              st.sampled_from([np.int8, np.int64, np.uint8, np.uint64]), st.integers(0, 127)),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.sampled_from([np.True_, np.float64(3.0), "3", 3 + 0j]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_SEEDS)
@example(seed=0)
@example(seed=-1)
@example(seed=True)
@example(seed=1.0)
@example(seed=None)
@example(seed=np.int64(-1))
def test_run_settings_and_histogram_accept_the_same_seeds(seed):
    """A sampled RunSettings and a sampled Histogram share one seed rule:
    an integer >= 0 that is no bool."""
    try:
        RunSettings(1, 1, seed)
        settings_accept = True
    except ConfigurationError:
        settings_accept = False
    try:
        Histogram(1, np.array([0]), np.array([1]), total_shots=1, seed=seed)
        histogram_accepts = True
    except ValueError:
        histogram_accepts = False
    assert settings_accept == histogram_accepts
