"""Run records: the stable JSON/CSV output format of the command line tool.

A record echoes the command that produced it, the resolved configuration
(including seeds), the histograms with both raw integer outcomes and their
binary-fraction strings, decoded window masses, estimates, analytic
references and residuals. Records carry no timestamps, so re-running the
echoed command reproduces the record byte for byte.
"""

import csv
import functools
import io
import math

from .extraction import BRANCHES, ExtractionResult
from .precession import wrap_angle
from .qpe import DecodeResult, Histogram, format_binary

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
    Histogram itself; `to_json` writes it as the bins the histogram holds,
    sorted by outcome."""
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
        "signed_angle": wrap_angle(2.0 * math.pi * fraction),
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


#: the indent of `histograms.<run>.entries`, at which the bins are written
_ENTRIES_PAD = " " * 6

#: the text around the bins at that indent, as `json.dumps(indent=2)`
#: writes a list of bin dicts: `_FIRST_BIN` opens the list and its first
#: bin, up to the value of "m"; `_NEXT_BIN` follows each probability but
#: the last, closing its bin and opening the next up to the same point;
#: `_LAST_BIN` follows the last probability and closes the list
_FIRST_BIN = '[\n        {\n          "m": '
_NEXT_BIN = '\n        },\n        {\n          "m": '
_LAST_BIN = "\n        }\n      ]"


def _heads(outcomes, num_bits: int):
    """The head of each bin in `outcomes`: the text from its "m" value up
    to its next key, which is the same in exact and sampled bins."""
    spec = f"0{num_bits}b"
    return (f'{m},\n          "bits": "0.{m:{spec}}",\n          ' for m in outcomes)


@functools.lru_cache(maxsize=1)
def _full_range_heads(num_bits: int) -> tuple:
    """The heads of all 2**num_bits bins, m = 0 first, for the last width
    asked: 0.45 MB at 12 bits, 7.5 MB at 16. A tuple of str, so no caller
    can change a cached head."""
    return tuple(_heads(range(1 << num_bits), num_bits))


def _entries_json(hist: Histogram) -> list:
    """The pieces whose join is the list of the bins `hist` holds, in its
    ascending outcome order, as `json.dumps(indent=2)` writes a list of bin
    dicts at `_ENTRIES_PAD`. Each bin is four pieces: its head, from the
    "m" value up to the next key; its key text, `"probability": ` in an
    exact bin and the count with both keys in a sampled one; the
    probability's repr, which is what json writes for a float; and the
    shared text that follows it.

    A histogram that holds every outcome of its register, as a leaky
    readout does, exact or sampled, takes its heads from the cached
    `_full_range_heads` table: its outcomes ascend strictly, so they are
    range(2**n). Any other histogram formats the heads of the bins it
    holds. A sampled histogram formats the key and value texts once per
    distinct count."""
    size, num_bits = len(hist.outcomes), hist.num_bits
    pieces = [_NEXT_BIN, None, '"probability": ', None] * size + [_LAST_BIN]
    pieces[0] = _FIRST_BIN
    pieces[1::4] = (_full_range_heads(num_bits) if size == 1 << num_bits
                    else _heads(hist.outcomes, num_bits))
    if hist.is_sampled:
        counts, total = hist.weights, hist.total_shots
        keys = {count: f'"count": {count},\n          "probability": ' for count in set(counts)}
        values = {count: repr(count / total) for count in keys}
        pieces[2::4] = map(keys.__getitem__, counts)
        pieces[3::4] = map(values.__getitem__, counts)
    else:
        pieces[3::4] = map(repr, hist.weights)
    return pieces


def _float_json(value: float) -> str:
    """json's text for a float: its repr, or NaN, Infinity or -Infinity."""
    if -math.inf < value < math.inf:
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


@functools.cache
def _scalar_json() -> dict:
    """The JSON text of a scalar, by its exact type, as `json.dumps` writes
    it. json is imported on the first record written as JSON, so a launch
    that writes none, a sweep or a CSV record, never loads it."""
    from json.encoder import encode_basestring_ascii

    return {
        str: encode_basestring_ascii,
        float: _float_json,
        int: int.__repr__,
        bool: lambda value: "true" if value else "false",
        type(None): lambda value: "null",
    }


def _write(value, pad: str, out: list, scalars: dict) -> None:
    """Append to `out` the pieces of `value` as `json.dumps(indent=2)`
    writes it at indent `pad`. A dict with str keys, a list and a tuple
    write each scalar item by `scalars` (`_scalar_json()`) and recurse into
    any other; a Histogram is written by `_entries_json`; any other value,
    a scalar passed alone among them, is json's own text."""
    kind = type(value)
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        separator = "{\n" + inner
        escape = scalars[str]
        for key, item in value.items():
            scalar = scalars.get(type(item))
            if scalar is None:
                out.append(f"{separator}{escape(key)}: ")
                _write(item, inner, out, scalars)
            else:
                out.append(f"{separator}{escape(key)}: {scalar(item)}")
            separator = ",\n" + inner
        out.append(f"\n{pad}}}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        separator = "[\n" + inner
        for item in value:
            scalar = scalars.get(type(item))
            if scalar is None:
                out.append(separator)
                _write(item, inner, out, scalars)
            else:
                out.append(separator + scalar(item))
            separator = ",\n" + inner
        out.append(f"\n{pad}]")
    elif kind is Histogram:
        pieces = _entries_json(value)
        if pad != _ENTRIES_PAD:
            pieces = ["".join(pieces).replace("\n" + _ENTRIES_PAD, "\n" + pad)]
        out += pieces
    else:
        import json

        out.append(json.dumps(value, indent=2).replace("\n", "\n" + pad))


def to_json(record: dict) -> str:
    """The record as `json.dumps(record, indent=2)` writes it, plus a
    newline, with each histogram's entries written straight from its
    outcome and weight sequences, and the whole text joined once."""
    out = []
    _write(record, "", out, _scalar_json())
    out.append("\n")
    # a list appended to after a long extend holds an eighth more slots
    # than pieces; its copy is sized exactly, and only the copy is alive at
    # the join, where memory peaks
    out = out[:]
    return "".join(out)


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
