"""The JSON record writer: `to_json` writes histogram entries straight from
the outcome array, and its output must equal `json.dumps(record,
indent=2)` of the same record with one dict per entry, byte for byte."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinqpe import Axis, QpeConfig, RotationSpec, RunSettings, rx, ry
from spinqpe.cli import main
from spinqpe.qpe import PROBABILITY_FLOOR, DecodeResult, Histogram, format_binary, run_qpe
from spinqpe.records import decode_payload, histogram_payload, make_record, to_json

from histograms import dense, from_dense

#: exact-mode probabilities whose reprs stress the writer: just above the
#: floor, subnormal, tiny and short decimal reprs
TINY = [math.nextafter(PROBABILITY_FLOOR, 1.0), 1.0000000000000002e-15, 2e-15,
        1e-13, 5e-324, 1e-300, 2.2250738585072014e-308]
#: bin masses that add to 1 and have short reprs, integral-valued 1.0 among them
HEADS = [[1.0], [0.5, 0.5], [0.1, 0.9], [0.1, 0.2, 0.7], [0.3, 0.3, 0.4]]
#: argv and warning words: the entries slot text, raw newlines, quotes,
#: backslashes, NUL and non-ASCII
WORDS = st.one_of(
    st.sampled_from(['"entries": []', '\n      "entries": []', "\n", '"', "\\",
                     "\x00", "naïve ☃ \U0001d703", '{"m": 1}']),
    st.text(max_size=12),
)


def reference_entries(hist: Histogram) -> list:
    """One dict per nonzero bin, built as records were before the writer
    wrote entries from the array."""
    values = dense(hist)
    kept = np.flatnonzero(values > 0)
    entries = []
    for m, value, probability in zip(kept.tolist(), values[kept].tolist(),
                                     hist.probabilities(kept)):
        entry = {"m": m, "bits": format_binary(m, hist.num_bits)}
        if hist.is_sampled:
            entry["count"] = value
        entry["probability"] = probability
        entries.append(entry)
    return entries


def _normalised(parts: list) -> list:
    total = sum(parts)
    return [part / total for part in parts]


@st.composite
def exact_histograms(draw):
    size = 1 << draw(st.integers(1, 12))
    if draw(st.booleans()):  # every bin nonzero
        values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(size)
        return from_dense(values / values.sum())
    heads = draw(st.one_of(
        st.sampled_from([head for head in HEADS if len(head) <= size]),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=min(size, 8)).map(_normalised),
    ))
    tiny = draw(st.lists(st.one_of(st.sampled_from(TINY), st.floats(5e-324, 1e-12)),
                         max_size=min(size - len(heads), 20)))
    masses = heads + tiny
    bins = draw(st.lists(st.integers(0, size - 1), min_size=len(masses),
                         max_size=len(masses), unique=True))
    values = np.zeros(size)
    values[bins] = masses
    return from_dense(values)


@st.composite
def sampled_histograms(draw):
    size = 1 << draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**63 - 1))
    if draw(st.booleans()):  # every bin drawn
        counts = np.random.default_rng(seed).integers(1, 2**50, size)
        return from_dense(counts, total_shots=int(counts.sum()), seed=seed)
    total = draw(st.one_of(st.just(2**63 - 1), st.integers(1, 2**63 - 1)))
    bins = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=min(size, 16),
                         unique=True))
    cuts = sorted(draw(st.lists(st.one_of(st.integers(0, min(3, total)), st.integers(0, total)),
                                min_size=len(bins) - 1, max_size=len(bins) - 1)))
    counts = np.zeros(size, dtype=np.int64)
    counts[bins] = [high - low for low, high in zip([0, *cuts], [*cuts, total])]
    return from_dense(counts, total_shots=total, seed=seed)


@st.composite
def records(draw):
    runs = draw(st.sampled_from([(), ("qpev",), ("qpeh",), ("qpev", "qpeh")]))
    hists = {run: draw(st.one_of(exact_histograms(), sampled_histograms()))
             for run in runs}
    return make_record(
        command=draw(st.lists(WORDS, max_size=6)),
        config={"eta": draw(st.floats(-4.0, 4.0)), "n": draw(st.integers(1, 12))},
        histograms={run: histogram_payload(hist) for run, hist in hists.items()},
        warnings=draw(st.lists(WORDS, max_size=2)),
    )


def reference_record(record: dict) -> dict:
    return {**record, "histograms": {
        run: None if section is None
        else {**section, "entries": reference_entries(section["entries"])}
        for run, section in record["histograms"].items()
    }}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(records())
@example(make_record(["qpev"], {}, histograms={
    "qpev": histogram_payload(from_dense(np.array([1, 2**63 - 2]),
                                         total_shots=2**63 - 1, seed=0)),
    "qpeh": histogram_payload(from_dense(np.array([0.0, TINY[0], 0.0, 1.0 - TINY[0]]))),
}))
def test_writer_equals_reference(record):
    assert to_json(record) == json.dumps(reference_record(record), indent=2) + "\n"


def test_slot_count_mismatch_raises():
    # a second empty "entries" list at the histogram indent would be
    # mistaken for a slot, so the writer refuses the record
    record = make_record([], {},
                         histograms={"qpev": histogram_payload(from_dense(np.array([1.0])))},
                         decoded={"qpev": {"entries": []}})
    with pytest.raises(ValueError, match="1 histograms"):
        to_json(record)


@pytest.mark.parametrize("argv, config", [
    (["qpev", "--eta", "0.7", "--aux", "1.234", "--n", "12", "--exact",
      "--allow-leakage"],
     QpeConfig(RunSettings(12), RotationSpec(Axis.Y, 1.234), (rx(-0.7),))),
    (["qpeh", "--eta", "0.7", "--delta", "0.4", "--aux", "1.234", "--n", "12",
      "--exact", "--allow-leakage"],
     QpeConfig(RunSettings(12), RotationSpec(Axis.X, 1.234), (rx(-0.7), ry(0.4)))),
    (["qpev", "--eta", "0.7", "--aux", "1.234", "--n", "12", "--shots", "100000",
      "--seed", "5", "--allow-leakage"],
     QpeConfig(RunSettings(12, 100000, 5), RotationSpec(Axis.Y, 1.234), (rx(-0.7),))),
])
def test_large_record_is_canonical_json(capsys, argv, config):
    assert main(argv) == 0
    out = capsys.readouterr().out
    record = json.loads(out)
    # float reprs round-trip, so re-encoding the parsed record reproduces it
    assert out == json.dumps(record, indent=2) + "\n"
    (entries,) = [section["entries"] for section in record["histograms"].values()
                  if section is not None]
    assert len(entries) == np.count_nonzero(dense(run_qpe(config)))


def test_peak_angle_folds_every_bin():
    """A peak's signed_angle is 2 pi m / 2**n folded into (-pi, pi]: for
    every bin of every width up to 16, bit for bit the turn itself up to
    half a turn and the turn less 2 pi beyond."""
    for n in range(1, 17):
        size = 1 << n
        for m in range(size):
            decoded = DecodeResult(n, m, (size - m) % size, True, 0.5, 0.5)
            for peak in decode_payload(decoded)["peaks"]:
                fraction = peak["m"] / size
                turn = 2.0 * math.pi * fraction
                expected = turn if fraction <= 0.5 else turn - 2.0 * math.pi
                assert peak["signed_angle"].hex() == expected.hex(), (n, peak["m"])
