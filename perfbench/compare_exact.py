#!/usr/bin/env python3
"""Compare two exact-mode dumps written by run.py (the *-exact.npz files).

    python3 perfbench/compare_exact.py A-exact.npz B-exact.npz

Prints the largest absolute difference over every exact probability (or
sweep CSV value) and exits 1 when it exceeds TOLERANCE or the dumps hold
different keys or shapes.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.checks import max_abs_diff

#: largest difference two engines may show on the same exact run
TOLERANCE = 1e-12


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with np.load(args.a) as a, np.load(args.b) as b:
        diff = max_abs_diff(dict(a), dict(b))
    print(f"max abs difference {diff!r} (tolerance {TOLERANCE!r})")
    return 0 if diff <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
