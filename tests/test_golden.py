"""Golden records: the exact bytes every subcommand writes for a fixed list
of commands, and the published record schema.

The files under tests/golden/ pin the output format byte for byte. A
deliberate format change regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says so in the change log.
"""

import contextlib
import io
import json
from pathlib import Path

import jsonschema
import pytest

from spinqpe import RUN_RECORD_SCHEMA
from spinqpe.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMA_FILE = GOLDEN / "schema.json"

#: name -> argv; the file is <name>.csv when the command writes CSV
CASES = {
    "analytic": ["analytic", "--eta", "pi/3", "--delta", "pi/3"],
    "analytic-csv": ["analytic", "--eta", "pi/4", "--delta=-pi/5", "--format", "csv"],
    "qpev-exact": ["qpev", "--eta", "pi/3", "--n", "6", "--exact"],
    "qpev-exact-seed-ignored": ["qpev", "--eta", "-0.4", "--n", "6", "--seed", "5"],
    "qpev-sampled": ["qpev", "--eta", "pi/3", "--n", "6", "--shots", "1000", "--seed", "7"],
    "qpev-leaky": ["qpev", "--eta", "pi/3", "--aux", "1.0", "--n", "6", "--allow-leakage"],
    "qpev-leaky-sampled-csv": ["qpev", "--eta", "0.4", "--aux", "11/32pi", "--n", "6",
                               "--allow-leakage", "--shots", "500", "--seed", "3",
                               "--format", "csv"],
    "qpeh-exact": ["qpeh", "--eta", "pi/3", "--delta", "pi/3", "--n", "6"],
    "qpeh-sampled": ["qpeh", "--eta", "pi/3", "--delta", "pi/5", "--n", "6",
                     "--shots", "2000", "--seed", "11"],
    "qpeh-leaky": ["qpeh", "--eta", "0.3", "--delta", "0.7", "--aux", "0.9", "--n", "6",
                   "--allow-leakage"],
    "qpeh-csv": ["qpeh", "--eta", "pi/6", "--delta=-pi/4", "--n", "6", "--format", "csv"],
    "pipeline-exact": ["pipeline", "--eta", "pi/3", "--delta", "pi/3", "--n", "6", "--exact"],
    "pipeline-exact-n16": ["pipeline", "--eta", "0.4", "--delta", "-0.7", "--exact",
                           "--n", "16"],
    "pipeline-sampled": ["pipeline", "--eta", "pi/3", "--delta", "pi/3", "--n", "6",
                         "--shots", "5000", "--seed", "21"],
    "pipeline-reflected": ["pipeline", "--eta", "pi/4", "--delta", "2pi/3", "--n", "6",
                           "--branch", "reflected"],
    "pipeline-leaky": ["pipeline", "--eta", "0.5", "--delta", "0.8", "--aux-v", "11/32pi",
                       "--aux-h", "1.0", "--n", "6", "--allow-leakage"],
    "pipeline-branch-note": ["pipeline", "--eta", "2", "--delta", "0.3", "--n", "6"],
    "pipeline-csv": ["pipeline", "--eta", "pi/3", "--delta", "pi/3", "--n", "6",
                     "--shots", "1000", "--seed", "5", "--format", "csv"],
    "pipeline-clamp-note": ["pipeline", "--eta", "1.3", "--delta", "pi/2", "--n", "6"],
    "pipeline-eta-pi": ["pipeline", "--eta", "pi", "--delta", "pi/2", "--n", "6"],
    "qpeh-eta-pi-csv": ["qpeh", "--eta", "pi", "--delta", "pi/2", "--n", "6",
                        "--format", "csv"],
    "analytic-eta-pi": ["analytic", "--eta", "pi", "--delta", "pi/3"],
    "sweep": ["sweep", "--eta-range", "0.2:1.3", "--delta-range", "pi/12:pi/3",
              "--steps", "3", "--n", "6"],
    "sweep-exact-flat": ["sweep", "--eta-range=-0.5:0.5", "--delta-range", "0.3:0.3",
                         "--steps", "4", "--exact", "--n", "6"],
}


def golden_path(name: str, argv: list) -> Path:
    is_csv = argv[0] == "sweep" or "csv" in argv
    return GOLDEN / f"{name}.{'csv' if is_csv else 'json'}"


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text: str):
    """json.loads that refuses the NaN and Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


def run_case(argv: list) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    assert code == 0
    return buffer.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    argv = CASES[name]
    path = golden_path(name, argv)
    out = run_case(argv)
    assert out.encode("utf-8") == path.read_bytes()
    if path.suffix == ".json":
        jsonschema.validate(strict_json(out), RUN_RECORD_SCHEMA)


def test_schema_matches_golden():
    text = SCHEMA_FILE.read_text(encoding="utf-8")
    assert RUN_RECORD_SCHEMA == strict_json(text)
    # == ignores key order; the published text pins it as well
    assert json.dumps(RUN_RECORD_SCHEMA, indent=2) + "\n" == text


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, case_argv in CASES.items():
        golden_path(case, case_argv).write_bytes(run_case(case_argv).encode("utf-8"))
    SCHEMA_FILE.write_text(json.dumps(RUN_RECORD_SCHEMA, indent=2) + "\n", encoding="utf-8")
