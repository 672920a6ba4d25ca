"""The JSON record writer: `to_json` writes histogram entries straight from
the outcome sequence, and its output must equal `json.dumps(record,
indent=2)` of the same record with one dict per entry, byte for byte."""

import hashlib
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinqpe import Axis, QpeConfig, RotationSpec, RunSettings, rx, ry
from spinqpe.cli import main
from spinqpe.qpe import (MAX_HISTOGRAM_BITS, PROBABILITY_FLOOR, DecodeResult, Histogram,
                         format_binary, run_qpe)
from spinqpe.records import (_full_range_heads, decode_payload, histogram_payload, make_record,
                             to_json)

from histograms import dense, from_dense, support

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
    """One dict per bin the histogram holds, in ascending outcome order,
    built as records were before the writer wrote entries from the
    arrays."""
    outcomes, weights = support(hist)
    entries = []
    for m, value, probability in zip(outcomes, weights, hist.probabilities(outcomes)):
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
    size = 1 << draw(st.integers(0, 12))
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
    size = 1 << draw(st.integers(0, 12))
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


#: sampled counts near 2**63, where an int64 sum wraps around
HUGE_COUNTS = st.integers(2**63 - 2**20, 2**63 - 1)


@st.composite
def sparse_histograms(draw):
    """A few bins, at times one, of a register up to MAX_HISTOGRAM_BITS
    wide, which no dense vector could hold; sampled counts are often near
    2**63."""
    num_bits = draw(st.integers(0, MAX_HISTOGRAM_BITS))
    outcomes = sorted(draw(st.lists(st.integers(0, (1 << num_bits) - 1), min_size=1,
                                    max_size=draw(st.sampled_from([1, 6])), unique=True)))
    if draw(st.booleans()):
        masses = draw(st.lists(st.floats(0.01, 1.0), min_size=len(outcomes),
                               max_size=len(outcomes)).map(_normalised))
        return Histogram(num_bits, np.array(outcomes), np.array(masses))
    counts = draw(st.lists(st.one_of(HUGE_COUNTS, st.integers(1, 2**63 - 1)),
                           min_size=len(outcomes), max_size=len(outcomes)))
    return Histogram(num_bits, np.array(outcomes), np.array(counts),
                     total_shots=sum(counts), seed=draw(st.integers(0, 2**63 - 1)))


@st.composite
def records(draw):
    runs = draw(st.sampled_from([(), ("qpev",), ("qpeh",), ("qpev", "qpeh")]))
    hists = {run: draw(st.one_of(exact_histograms(), sampled_histograms(),
                                 sparse_histograms()))
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
@example(make_record(["qpev"], {}, histograms={  # width 0: bits "0.0"
    "qpev": histogram_payload(from_dense(np.array([1.0]))),
    "qpeh": histogram_payload(from_dense(np.array([2**63 - 1]), total_shots=2**63 - 1, seed=0)),
}))
@example(make_record(["qpeh"], {}, histograms={  # the widest register, one bin each
    "qpev": histogram_payload(Histogram(MAX_HISTOGRAM_BITS, np.array([2**63 - 1]),
                                        np.array([1.0]))),
    "qpeh": histogram_payload(Histogram(MAX_HISTOGRAM_BITS, np.array([0, 2**63 - 1]),
                                        np.array([2**63 - 1, 2**63 - 2]),
                                        total_shots=2**64 - 3, seed=7)),
}))
def test_writer_equals_reference(record):
    assert to_json(record) == json.dumps(reference_record(record), indent=2) + "\n"


#: any str: non-ASCII, control characters and lone surrogates among them
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
#: JSON scalars by exact type and a few subclasses that json writes as
#: their base: -0.0, subnormals, NaN, infinities, np.float64, bool and int
#: apart, big ints
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**63, 2**200), ANY_TEXT,
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 1e16, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
HISTOGRAMS = st.one_of(exact_histograms(), sampled_histograms(), sparse_histograms())


def trees(leaves):
    """Empty and nested dicts with str keys, lists and tuples of `leaves`."""
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(ANY_TEXT, children, max_size=4),
    ), max_leaves=12)


def with_bin_dicts(tree):
    """`tree` with each Histogram replaced by its bin dicts."""
    if isinstance(tree, Histogram):
        return reference_entries(tree)
    if type(tree) is dict:
        return {key: with_bin_dicts(value) for key, value in tree.items()}
    if type(tree) in (list, tuple):
        return [with_bin_dicts(value) for value in tree]
    return tree


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(trees(SCALARS))
@example({"a": [], "b": {}, "c": (), "d": [[], {}, ((),)], "\ud800\x00é": -0.0})
@example([math.nan, math.inf, -math.inf, np.float64(0.1), np.float64(-math.inf), True, 1,
          False, 0, 2**100, -2**100, 5e-324, "\u2603\U0001d703\udcff\n\x1f"])
@example({1: 2.0, None: [True], 2.5: "x", False: {}})  # keys json turns into str
def test_writer_equals_json_dumps(tree):
    assert to_json(tree) == json.dumps(tree, indent=2) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(trees(st.one_of(SCALARS, HISTOGRAMS)))
def test_writer_equals_json_dumps_of_bin_dicts(tree):
    """A Histogram at any depth is written as json.dumps writes its bin
    dicts there."""
    assert to_json(tree) == json.dumps(with_bin_dicts(tree), indent=2) + "\n"


#: tiny exact probabilities: TINY, with a value just above the floor, and
#: any value small enough that 2**12 of them add to under 1e-10
FULL_RANGE_TINY = st.one_of(st.sampled_from(TINY), st.floats(5e-324, 1e-14))


@st.composite
def full_range_weights(draw, num_bits):
    """Positive exact probabilities for all 2**num_bits outcomes, adding
    to 1: a few bins take tiny values of their own, and the others either
    a tiny value each but for one bin of 1.0, or seeded random values."""
    size = 1 << num_bits
    main = draw(st.integers(0, size - 1))
    special = draw(st.lists(st.integers(0, size - 1).filter(lambda m: m != main),
                            max_size=min(size - 1, 8), unique=True))
    rest = np.ones(size, bool)
    rest[special] = False
    if draw(st.booleans()):
        weights = np.full(size, draw(FULL_RANGE_TINY.filter(lambda p: p <= 1e-14)))
        weights[main] = 1.0
    else:
        weights = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(size) + 1e-3
    weights[special] = [draw(FULL_RANGE_TINY) for _ in special]
    if weights[main] != 1.0:
        weights[rest] *= (1.0 - weights[special].sum()) / weights[rest].sum()
    return weights


def _exact_record(weights: np.ndarray) -> dict:
    num_bits = len(weights).bit_length() - 1
    hist = Histogram(num_bits, np.arange(len(weights)), weights)
    return make_record(["qpev"], {"n": num_bits}, histograms={"qpev": histogram_payload(hist)})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data(), st.lists(st.integers(1, 12), min_size=2, max_size=2, unique=True))
def test_full_range_writer_equals_reference(data, widths):
    """An exact histogram that holds every outcome takes its heads from the
    cached table; alternating widths n, m, n evicts and rebuilds it, and
    each record still equals json.dumps of its bin dicts."""
    _full_range_heads.cache_clear()
    n, m = widths
    for num_bits in (n, m, n):
        record = _exact_record(data.draw(full_range_weights(num_bits)))
        assert to_json(record) == json.dumps(reference_record(record), indent=2) + "\n"
    info = _full_range_heads.cache_info()
    assert (info.misses, info.currsize) == (3, 1)


def test_other_histograms_build_no_table():
    """Only an exact histogram that holds every outcome reads the table: a
    dyadic exact readout (two bins), a sparse exact one and a sampled one
    that drew every outcome never build it."""
    dyadic = run_qpe(QpeConfig(RunSettings(12), RotationSpec(Axis.Y, math.pi / 4),
                               (rx(-0.7),)))
    assert len(support(dyadic)[0]) == 2
    sparse = from_dense(np.array([0.25, 0.0, 0.5, 0.25]))
    counts = np.arange(1, 17)
    sampled = from_dense(counts, total_shots=int(counts.sum()), seed=3)
    for hist in (dyadic, sparse, sampled):
        record = make_record(["qpev"], {}, histograms={"qpev": histogram_payload(hist)})
        assert to_json(record) == json.dumps(reference_record(record), indent=2) + "\n"
    assert _full_range_heads.cache_info().misses == 0


def _leaky_record(num_bits: int) -> dict:
    config = QpeConfig(RunSettings(num_bits), RotationSpec(Axis.Y, 1.234), (rx(-0.7),))
    record = make_record(["qpev"], {}, histograms={"qpev": histogram_payload(run_qpe(config))})
    assert len(support(record["histograms"]["qpev"]["entries"])[0]) == 1 << num_bits
    return record


#: the tracemalloc peak, in bytes, of the first `to_json` of the exact
#: n = 16 record of TAIL_RECORDS when each record formatted its own bin
#: heads (Python 3.11, numpy 2.4)
PER_RECORD_HEADS_PEAK = 22_641_871
#: more than one lru_cache entry takes besides the value it holds
CACHE_ENTRY_BYTES = 1024


def test_first_full_range_record_peak_memory():
    """The table holds the same head strings each record formatted, and
    they are all alive when the text is joined either way; so the first
    record of a width peaks higher only by the table's tuple of pointers
    and its cache entry. Dropping `outcomes.tolist()` does not pay for
    the tuple: that list is freed before the join, where the peak is."""
    record = _leaky_record(16)
    tracemalloc.start()
    try:
        to_json(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _full_range_heads.cache_info().misses == 1
    table = sys.getsizeof(_full_range_heads(16))
    assert peak <= PER_RECORD_HEADS_PEAK + table + CACHE_ENTRY_BYTES


def test_table_keeps_one_width():
    to_json(_leaky_record(16))
    to_json(_leaky_record(12))
    info = _full_range_heads.cache_info()
    assert (info.misses, info.currsize) == (2, 1)
    table = _full_range_heads(12)
    assert isinstance(table, tuple) and len(table) == 4096
    assert _full_range_heads.cache_info().hits == info.hits + 1  # the n = 12 table is held


def test_entries_list_outside_histograms_is_written_as_json():
    """An empty "entries" list at the indent of a histogram's entries, in
    another section, is written as any other list."""
    record = make_record([], {},
                         histograms={"qpev": histogram_payload(from_dense(np.array([1.0])))},
                         decoded={"qpev": {"entries": []}})
    assert to_json(record) == json.dumps(reference_record(record), indent=2) + "\n"


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


#: the slowest request of the leaky-n12 benchmark workload, an exact
#: n = 12 record that holds all 4096 bins, for each run, a sampled record
#: of the same request, and the widest exact and sampled leaky records
#: (n = 16, every one of 65536 bins kept by the kernel), the sweep-n10-cold
#: request and a sampled n = 16 pipeline, with the sha256 of each
#: record's bytes
TAIL_RECORDS = [
    (["qpev", "--eta", "0.7", "--aux", "2.5", "--n", "12", "--allow-leakage", "--exact"],
     "b80ea3f8e9498224634c9bff34298079346585e636a7c7c0c88a2064f34d7d74"),
    (["qpeh", "--eta", "0.7", "--delta", "0.4", "--aux", "2.5", "--n", "12",
      "--allow-leakage", "--exact"],
     "e2bec903b15b4c2641aa7211e8442fbb62d943f530a36c2ad69db74806eb2dbd"),
    (["qpev", "--eta", "0.7", "--aux", "2.5", "--n", "12", "--allow-leakage",
      "--shots", "100000", "--seed", "5"],
     "39490e77b5618f10c26426db68ee8e3aae065935bc623a3012c76f79500ac5b4"),
    (["qpev", "--eta", "0.7", "--aux", "1.234", "--n", "16", "--exact", "--allow-leakage"],
     "ac93c00478c7eee16d67323e47782bf16302c5b7d222234c5ae06815ffa34608"),
    (["qpev", "--eta", "0.7", "--aux", "1.234", "--n", "16", "--shots", "100000",
      "--seed", "5", "--allow-leakage"],
     "b5ecd6f5774f53718a04e33939633e726c2ecacc284c47b13daba8a6ad3ccd4b"),
    (["sweep", "--eta-range", "0.2:1.3", "--delta-range", "0.2:1.3", "--steps", "12",
      "--n", "10"],
     "b64b94a68065896e97c3b226d80ed8d3a01c8bbfbd62ecdfe97722c0c293af68"),
    (["pipeline", "--eta", "0.4", "--delta=-0.7", "--n", "16", "--shots", "10000",
      "--seed", "3"],
     "24bd2b022d0dfbd293f6068b9f0146fe5d914001765e0498ebded6f6a6d46c06"),
]


@pytest.mark.parametrize("argv, digest", TAIL_RECORDS, ids=[
    "qpev-exact", "qpeh-exact", "qpev-sampled", "qpev-exact-n16", "qpev-sampled-n16",
    "sweep-n10", "pipeline-sampled-n16"])
def test_tail_records_pinned(capsys, argv, digest):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


#: the tracemalloc peak, in bytes, of writing the exact qpeh record of
#: TAIL_RECORDS with the per-bin `%` template writer that the one-join
#: writer replaced (Python 3.11, numpy 2.4); the one-join writer makes no
#: more copies of the text, so it must not peak higher
TEMPLATE_WRITER_PEAK = 1_926_506


def test_large_record_peak_memory():
    config = QpeConfig(RunSettings(12), RotationSpec(Axis.X, 2.5), (rx(-0.7), ry(0.4)))
    record = make_record(["qpeh"], {}, histograms={"qpeh": histogram_payload(run_qpe(config))})
    assert len(support(record["histograms"]["qpeh"]["entries"])[0]) == 4096
    to_json(record)  # the first call warms caches that later ones reuse
    tracemalloc.start()
    try:
        to_json(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= TEMPLATE_WRITER_PEAK


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
