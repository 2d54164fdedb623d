#!/usr/bin/env python3
"""Sweep graded dimensions and radical sizes across the shipped root data.

Prints one table per datum: multidegree, word count, quotient dimension,
radical dimension.  Everything is exact; a nonzero radical row is where a
quantum Serre relation lives.
"""

import argparse
import sys
import time

from uqbench.errors import ConfigError
from uqbench.nichols import NicholsContext, multidegrees, words_of_degree
from uqbench.rootdata import load_datum


def sweep(name, max_total):
    datum = load_datum(name)
    ctx = NicholsContext(datum, cap=max_total)
    print(f"== {datum.name} (rank {datum.rank}) ==")
    print(f"{'degree':>12} {'words':>7} {'dim':>5} {'radical':>8}")
    start = time.monotonic()
    for total in range(max_total + 1):
        for deg in multidegrees(datum.rank, total):
            words = len(words_of_degree(deg))
            dim = ctx.nichols_dim(deg)
            print(f"{str(deg):>12} {words:>7} {dim:>5} {words - dim:>8}")
    print(f"elapsed {time.monotonic() - start:.2f}s")
    print()


def nonnegative(text):
    """argparse type of the sizes: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default="A1,A2,B2",
                        help="comma list of datum names or preset paths")
    parser.add_argument("--max-total", type=nonnegative, default=5,
                        help="largest total degree to tabulate")
    args = parser.parse_args(argv)
    try:
        for name in args.data.split(","):
            sweep(name.strip(), args.max_total)
    except ConfigError as exc:  # an unknown or malformed preset
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
