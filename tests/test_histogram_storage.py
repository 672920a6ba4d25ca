"""A Histogram holds its support as Python sequences, checked in Python
when it is given as sequences and by numpy when it is given as arrays:
both forms refuse a support with the same message, accept the same ones,
and read the same probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqpe import Histogram

from histograms import identical

#: the forms a support is given in
FORMS = {"array": np.array, "list": list, "tuple": tuple}

#: (num_bits, outcomes, weights, total_shots, seed) that break one rule each
REFUSED = {
    "bool-outcome": (2, [False, True], [0.5, 0.5], 0, None),
    "float-outcome": (2, [0.0, 1.0], [0.5, 0.5], 0, None),
    "negative-outcome": (2, [-1, 0], [0.5, 0.5], 0, None),
    "outcome-too-large": (2, [0, 4], [0.5, 0.5], 0, None),
    "descending": (2, [1, 0], [0.5, 0.5], 0, None),
    "repeated": (2, [1, 1], [0.5, 0.5], 0, None),
    "length-mismatch": (2, [0, 1], [1.0], 0, None),
    "2-d": (2, [[0, 1]], [[0.5, 0.5]], 0, None),
    "empty": (2, [], [], 0, None),
    "zero-weight": (2, [0, 1], [1.0, 0.0], 0, None),
    "negative-weight": (1, [0, 1], [1.5, -0.5], 0, None),
    "nan-weight": (2, [0, 1], [1.0, math.nan], 0, None),
    "nan-first-weight": (2, [0, 1], [math.nan, 1.0], 0, None),
    "negative-count": (1, [0, 1], [3, -1], 2, 0),
    "integer-probability": (1, [0], [1], 0, None),
    "bool-probability": (1, [0], [True], 0, None),
    "complex-probability": (1, [0], [1 + 0j], 0, None),
    "probabilities-off-one": (1, [0], [0.7], 0, None),
    "counts-off-shots": (1, [0, 1], [1, 2], 4, 0),
    "int64-wrapping-counts": (2, [0, 1, 2, 3], [2**62] * 3 + [2**62 + 5], 5, 0),
    "float-counts": (1, [0, 1], [0.5, 1.5], 2, 0),
    "bool-shots": (1, [0], [1], True, 0),
    "float-shots": (1, [0], [10], 10.0, 0),
    "negative-shots": (1, [0], [10], -10, 0),
    "exact-seed": (1, [0], [1.0], 0, 5),
    "sampled-no-seed": (1, [0], [1], 1, None),
    "bool-seed": (1, [0], [1], 1, True),
    "negative-seed": (1, [0], [1], 1, -4),
    "fractional-seed": (1, [0], [1], 1, 1.5),
}


def _refusal(form, num_bits, outcomes, weights, shots, seed) -> str:
    with pytest.raises(ValueError) as refused:
        Histogram(num_bits, form(outcomes), form(weights), shots, seed)
    return str(refused.value)


@pytest.mark.parametrize("case", REFUSED.values(), ids=REFUSED.keys())
def test_refusal_is_the_same_for_arrays_and_sequences(case):
    messages = {name: _refusal(form, *case) for name, form in FORMS.items()}
    assert messages["list"] == messages["tuple"] == messages["array"], messages


@st.composite
def supports(draw):
    """(num_bits, outcomes, weights, total_shots, seed): a valid exact or
    sampled support, up to every outcome of its register."""
    num_bits = draw(st.integers(0, 6))
    size = 1 << num_bits
    outcomes = sorted(draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size)))
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(1, 10**6), min_size=len(outcomes),
                               max_size=len(outcomes)))
        return num_bits, outcomes, counts, sum(counts), draw(st.integers(0, 2**32))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(outcomes), max_size=len(outcomes)))
    return num_bits, outcomes, [x / math.fsum(raw) for x in raw], 0, None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(support=supports(),
       lookups=st.lists(st.integers(-5, 70), max_size=20),
       form=st.sampled_from(sorted(FORMS)))
def test_probabilities_are_a_dict_lookup(support, lookups, form):
    """Every form of a support gives the same histogram, whose sequences
    are Python numbers, outcomes a range when they are every outcome; and
    probabilities reads each listed outcome, held or not, negative, out of
    range or repeated, as a dict of the support does."""
    num_bits, outcomes, weights, shots, seed = support
    hist = Histogram(num_bits, FORMS[form](outcomes), FORMS[form](weights), shots, seed)
    assert identical(hist, Histogram(num_bits, outcomes, weights, shots, seed))
    full = len(outcomes) == 1 << num_bits
    assert type(hist.outcomes) is (range if full else tuple)
    assert type(hist.weights) is tuple
    assert list(hist.outcomes) == outcomes and list(hist.weights) == weights
    held = dict(zip(outcomes, weights))
    want = [held.get(m, 0) / shots if shots else held.get(m, 0.0) for m in lookups]
    got = hist.probabilities(lookups)
    assert [(type(p), p.hex()) for p in got] == [(float, p.hex()) for p in want]


def test_numpy_numbers_in_a_list_are_held_as_python_numbers():
    """A list of numpy scalars is checked by numpy, and held as the Python
    numbers an array of them gives."""
    hist = Histogram(2, [np.int64(0), np.int64(3)], [np.float64(0.25), np.float64(0.75)])
    assert identical(hist, Histogram(2, (0, 3), (0.25, 0.75)))
    assert [type(m) for m in hist.outcomes] == [int, int]
