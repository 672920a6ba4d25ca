"""Test helpers over a Histogram, which holds only the outcomes it
measured, as Python sequences: `dense` spreads one over every outcome of
its register, `from_dense` builds one from such a vector, `support` lists
its outcomes and weights, and `identical` compares two bit for bit."""

import numpy as np

from spinqpe import Histogram


def dense(hist: Histogram) -> np.ndarray:
    """One value per outcome of the register: the histogram's weight at
    each outcome it holds and 0 at every other, as float64 probabilities
    or int64 counts."""
    values = np.zeros(1 << hist.num_bits, np.int64 if hist.is_sampled else np.float64)
    values[list(hist.outcomes)] = hist.weights
    return values


def from_dense(values: np.ndarray, total_shots: int = 0, seed: int | None = None) -> Histogram:
    """The Histogram that holds the nonzero entries of `values`, one value
    per outcome of a 2**k register, as they are: no dust floor."""
    held = np.flatnonzero(values)
    return Histogram(len(values).bit_length() - 1, held.tolist(), values[held].tolist(),
                     total_shots, seed)


def support(hist: Histogram) -> tuple[list, list]:
    """(outcomes, weights) as two lists."""
    return list(hist.outcomes), list(hist.weights)


def _bits(values) -> list:
    """Each value with its type, a float as its hex form."""
    return [(type(v), v.hex() if type(v) is float else v) for v in values]


def identical(a: Histogram, b: Histogram) -> bool:
    """Same width, shots and seed, the same kind of outcome sequence (a
    range or a tuple), and the same outcomes and weights, element type and
    float bits alike."""
    return ((a.num_bits, a.total_shots, a.seed) == (b.num_bits, b.total_shots, b.seed)
            and type(a.outcomes) is type(b.outcomes)
            and _bits(a.outcomes) == _bits(b.outcomes)
            and _bits(a.weights) == _bits(b.weights))
