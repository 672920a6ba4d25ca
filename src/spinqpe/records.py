"""Run records: the stable JSON/CSV output format of the command line tool.

A record echoes the command that produced it, the resolved configuration
(including seeds), the histograms with both raw integer outcomes and their
binary-fraction strings, decoded window masses, estimates, analytic
references and residuals. Records carry no timestamps, so re-running the
echoed command reproduces the record byte for byte.
"""

import csv
import io
import json

import numpy as np

from .extraction import BRANCHES, ExtractionResult
from .precession import wrap_angle
from .qpe import DecodeResult, format_binary
from .statevector import Histogram

TOOL_VERSION = "0.1.0"

#: the values of `config.mode` and `histograms.<run>.mode`
_MODES = ("exact", "sampled")

#: The flat record sections, one row per key, in record order:
#: (section, key, JSON type or enum of values, required, CSV column). Every
#: value may also be null. Required keys default to null; an optional key
#: appears only when a command supplies it, after the required ones.
_FLAT_FIELDS = (
    ("config", "eta", "number", True, "eta"),
    ("config", "delta", "number", True, "delta"),
    ("config", "aux_v", "number", True, "aux_v"),
    ("config", "aux_h", "number", True, "aux_h"),
    ("config", "n", "integer", True, "n"),
    ("config", "shots", "integer", True, "shots"),
    ("config", "seed", "integer", True, "seed"),
    ("config", "mode", _MODES, True, "mode"),
    ("config", "branch", BRANCHES, True, "branch"),
    ("estimates", "C", "number", True, "C"),
    ("estimates", "S", "number", True, "S"),
    ("estimates", "absA", "number", True, "absA"),
    ("estimates", "sin_delta", "number", True, "sin_delta"),
    ("estimates", "sin_delta_raw", "number", False, None),
    ("estimates", "delta", "number", True, "delta_est"),
    ("estimates", "theta", "number", True, "theta"),
    ("analytic", "C", "number", True, "C_analytic"),
    ("analytic", "S", "number", True, "S_analytic"),
    ("analytic", "absA", "number", True, "absA_analytic"),
    ("analytic", "theta", "number", True, "theta_analytic"),
    ("analytic", "C2", "number", False, None),
    ("analytic", "S2", "number", False, None),
    ("analytic", "A_re", "number", False, None),
    ("analytic", "A_im", "number", False, None),
    ("analytic", "B_re", "number", False, None),
    ("analytic", "B_im", "number", False, None),
    ("analytic", "gamma1", "number", False, None),
    ("analytic", "gamma2", "number", False, None),
    ("analytic", "half_absA2", "number", False, None),
    ("analytic", "half_absB2", "number", False, None),
    ("analytic", "magnitude", "number", False, None),
    ("analytic", "theta_arctan", "number", False, None),
    ("residuals", "theta", "number", True, "residual_theta"),
)

#: each flat section's required keys, all null
_NULLS = {
    section: {key: None for s, key, _, required, _ in _FLAT_FIELDS if s == section and required}
    for section in dict.fromkeys(row[0] for row in _FLAT_FIELDS)
}


_INTEGER = {"type": "integer"}
_NUMBER = {"type": "number"}
_STRING = {"type": "string"}

#: the scalar keys of `decoded.<run>`, in record order, with their schemas;
#: each value is the DecodeResult attribute of that name
_DECODE_FIELDS = {
    "m_plus": _INTEGER, "m_minus": _INTEGER, "dyadic_exact": {"type": "boolean"},
    "window": _INTEGER, "p_plus": _NUMBER, "p_minus": _NUMBER, "coverage": _NUMBER,
}


def _value_schema(kind) -> dict:
    if isinstance(kind, str):
        return {"type": [kind, "null"]}
    return {"enum": [*kind, None]}


def _object(properties: dict, optional=()) -> dict:
    """A closed schema object: every property not in `optional` is required."""
    return {
        "type": "object",
        "additionalProperties": False,
        "required": [key for key in properties if key not in optional],
        "properties": properties,
    }


def _section_schema(section: str) -> dict:
    rows = [row for row in _FLAT_FIELDS if row[0] == section]
    optional = [key for _, key, _, required, _ in rows if not required]
    return _object({key: _value_schema(kind) for _, key, kind, _, _ in rows}, optional)


def _run_pair_schema(definition: str) -> dict:
    """A section with one `definition` object, or null, per estimation run."""
    value = {"oneOf": [{"type": "null"}, {"$ref": f"#/$defs/{definition}"}]}
    return _object({"qpev": value, "qpeh": value})


RUN_RECORD_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "spinqpe run record",
    **_object({
        "command": {"type": "array", "items": _STRING},
        "config": _section_schema("config"),
        "histograms": _run_pair_schema("histogram"),
        "decoded": _run_pair_schema("decode"),
        "estimates": _section_schema("estimates"),
        "analytic": _section_schema("analytic"),
        "residuals": _section_schema("residuals"),
        "warnings": {"type": "array", "items": _STRING},
        "version": _STRING,
    }),
    "$defs": {
        "histogram": _object({
            "num_bits": _INTEGER, "mode": {"enum": list(_MODES)}, "total_shots": _INTEGER,
            "seed": _value_schema("integer"),
            "entries": {"type": "array", "items": {"$ref": "#/$defs/bin"}},
        }),
        "bin": _object(
            {"m": _INTEGER, "bits": _STRING, "count": _INTEGER, "probability": _NUMBER},
            optional=["count"],
        ),
        "decode": _object({
            **_DECODE_FIELDS, "peaks": {"type": "array", "items": {"$ref": "#/$defs/peak"}},
        }),
        "peak": _object({
            "m": _INTEGER, "bits": _STRING, "fraction": _NUMBER, "signed_angle": _NUMBER,
            "probability": _NUMBER,
        }),
    },
}

#: flat column set used when a record is emitted as CSV (one record per row)
CSV_COLUMNS = ["command", *(column for *_, column in _FLAT_FIELDS if column), "warnings"]

#: column set of sweep output files
SWEEP_COLUMNS = [
    "eta", "delta", "C2", "half_absA2", "theta_analytic", "theta_est",
    "residual_theta",
]


def histogram_payload(hist: Histogram) -> dict:
    """The histogram section of a record. Its `entries` value is the
    Histogram itself; `to_json` writes it as the nonzero bins sorted by
    outcome."""
    return {
        "num_bits": hist.num_bits,
        "mode": "sampled" if hist.is_sampled else "exact",
        "total_shots": hist.total_shots,
        "seed": hist.seed,
        "entries": hist,
    }


def _peak_payload(m: int, probability: float, num_bits: int) -> dict:
    fraction = m / (1 << num_bits)
    return {
        "m": m,
        "bits": format_binary(m, num_bits),
        "fraction": fraction,
        "signed_angle": wrap_angle(2.0 * np.pi * fraction),
        "probability": probability,
    }


def decode_payload(result: DecodeResult) -> dict:
    return {
        **{key: getattr(result, key) for key in _DECODE_FIELDS},
        "peaks": [
            _peak_payload(result.m_plus, result.p_plus, result.num_bits),
            _peak_payload(result.m_minus, result.p_minus, result.num_bits),
        ],
    }


def make_record(
    command: list,
    config: dict,
    histograms: dict | None = None,
    decoded: dict | None = None,
    estimates: dict | None = None,
    analytic: dict | None = None,
    residual_theta: float | None = None,
    warnings: list | None = None,
) -> dict:
    """Assemble a schema-conforming record; absent sections become nulls."""
    return {
        "command": list(command),
        "config": {**_NULLS["config"], **config},
        "histograms": {"qpev": None, "qpeh": None, **(histograms or {})},
        "decoded": {"qpev": None, "qpeh": None, **(decoded or {})},
        "estimates": {**_NULLS["estimates"], **(estimates or {})},
        "analytic": {**_NULLS["analytic"], **(analytic or {})},
        "residuals": {"theta": residual_theta},
        "warnings": list(warnings or []),
        "version": TOOL_VERSION,
    }


def extraction_payloads(result: ExtractionResult) -> tuple[dict, dict]:
    """(histograms, decoded) sections for a pipeline record."""
    histograms = {
        "qpev": histogram_payload(result.hist_v),
        "qpeh": histogram_payload(result.hist_h),
    }
    decoded = {
        "qpev": decode_payload(result.decode_v),
        "qpeh": decode_payload(result.decode_h),
    }
    return histograms, decoded


#: where `json.dumps(indent=2)` writes an empty `histograms.<run>.entries`;
#: no JSON string holds a raw newline, so only that key can match
_ENTRIES_SLOT = '\n      "entries": []'

#: one bin of `histograms.<run>.entries` at the indent `json.dumps(indent=2)`
#: gives it; bits are `format_binary(m, num_bits)`, and %r is float.__repr__,
#: which is what json writes for a float
_EXACT_ENTRY = (
    '        {\n          "m": %d,\n          "bits": "0.%s",\n'
    '          "probability": %r\n        }'
)
_SAMPLED_ENTRY = (
    '        {\n          "m": %d,\n          "bits": "0.%s",\n'
    '          "count": %d,\n          "probability": %r\n        }'
)


def _entries_json(hist: Histogram) -> str:
    """`_ENTRIES_SLOT` filled with the nonzero bins of `hist`, sorted by
    outcome, written as `json.dumps(indent=2)` writes a list of bin dicts."""
    kept = np.flatnonzero(hist.values > 0)
    outcomes = kept.tolist()
    spec = f"0{hist.num_bits}b"
    probabilities = hist.probabilities(kept)
    if hist.is_sampled:
        entries = [_SAMPLED_ENTRY % (m, format(m, spec), count, p) for m, count, p
                   in zip(outcomes, hist.values[kept].tolist(), probabilities)]
    else:
        entries = [_EXACT_ENTRY % (m, format(m, spec), p)
                   for m, p in zip(outcomes, probabilities)]
    return '\n      "entries": [\n' + ",\n".join(entries) + "\n      ]"


def to_json(record: dict) -> str:
    """The record as `json.dumps(record, indent=2)` plus a newline, with
    each histogram's entries written straight from its outcome array."""
    sections = record["histograms"]
    hists = [section["entries"] for section in sections.values() if section is not None]
    shell = {**record, "histograms": {
        run: None if section is None else {**section, "entries": []}
        for run, section in sections.items()
    }}
    pieces = json.dumps(shell, indent=2).split(_ENTRIES_SLOT)
    if len(pieces) != len(hists) + 1:
        raise ValueError(
            f"found {len(pieces) - 1} histogram entry slots for {len(hists)} histograms"
        )
    return pieces[0] + "".join(
        _entries_json(hist) + piece for hist, piece in zip(hists, pieces[1:])
    ) + "\n"


def _flatten(record: dict) -> dict:
    values = [
        " ".join(record["command"]),
        *(record[section][key] for section, key, *_, column in _FLAT_FIELDS if column),
        "; ".join(record["warnings"]),
    ]
    return dict(zip(CSV_COLUMNS, values))


def _csv(columns: list, rows: list) -> str:
    """An RFC 4180 CSV document: a header, then one line per row dict;
    None is written as an empty field."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def to_csv(record: dict) -> str:
    """One record as a CSV document (header plus one row)."""
    return _csv(CSV_COLUMNS, [_flatten(record)])


def sweep_csv(rows: list) -> str:
    """Sweep rows (dicts keyed by SWEEP_COLUMNS) as a CSV document."""
    return _csv(SWEEP_COLUMNS, rows)
