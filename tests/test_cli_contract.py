"""The command line contract on every input: exit codes are only 0, 2, 3
or 4, every failure is one JSON line on stderr, and records are strict
JSON (RFC 8259 has no NaN or Infinity)."""

import contextlib
import csv
import io
import json

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinqpe import RUN_RECORD_SCHEMA, ConfigurationError, QpeConfig
from spinqpe.cli import main

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
    """`qpev` refuses exactly the shots and seed QpeConfig refuses, and
    echoes the settings of the config it accepts."""
    try:
        config = QpeConfig(counting_qubits=2, shots=shots, seed=seed)
    except ConfigurationError:
        config = None
    # aux pi puts the two readout bins at 1 and 3 of a 2-qubit register
    argv = ["qpev", "--eta", "pi/3", "--aux", "pi", "--n", "2", f"--seed={seed}"]
    code, out, err = invoke(argv if shots is None else [*argv, f"--shots={shots}"])
    if config is None:
        assert code == 3
        assert_one_error_line(code, out, err)
        return
    assert code == 0, err
    echo = strict_json(out)["config"]
    assert (echo["shots"], echo["seed"], echo["mode"]) == (config.shots, config.seed, config.mode)


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
