"""Test helpers over a Histogram, which holds only the outcomes it
measured: `dense` spreads one over every outcome of its register,
`from_dense` builds one from such a vector, and `identical` compares two
byte for byte."""

import numpy as np

from spinqpe import Histogram


def dense(hist: Histogram) -> np.ndarray:
    """One value per outcome of the register: the histogram's weight at
    each outcome it holds and 0 at every other."""
    values = np.zeros(1 << hist.num_bits, hist.weights.dtype)
    values[hist.outcomes] = hist.weights
    return values


def from_dense(values: np.ndarray, total_shots: int = 0, seed: int | None = None) -> Histogram:
    """The Histogram that holds the nonzero entries of `values`, one value
    per outcome of a 2**k register, as they are: no dust floor."""
    held = np.flatnonzero(values)
    return Histogram(len(values).bit_length() - 1, held, values[held], total_shots, seed)


def identical(a: Histogram, b: Histogram) -> bool:
    """Same width, shots and seed, and the same outcomes and weights, dtype
    and bytes alike."""
    return ((a.num_bits, a.total_shots, a.seed) == (b.num_bits, b.total_shots, b.seed)
            and all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                    for x, y in ((a.outcomes, b.outcomes), (a.weights, b.weights))))
