#!/usr/bin/env python3
"""Audit the rank-1 braiding against its closed form and run exact
Yang-Baxter, naturality and hexagon checks on truncated highest-weight
windows.

The compositional braiding (the dual-basis coaction acting through the
F-action, with the weight twist) and the rank-1 closed form are computed
separately and compared entry by entry.  Then the braid relation is
verified on the degree-capped triple tensor window of Vermas over A1 and
the rank-2 data A2, B2, G2 and A1xA1.  Last, on Vermas of two different
weights over each of these data, the braiding is checked to be a module
map (it commutes with every E_i and F_i acting on both tensor windows
through `tensor_module`) and to satisfy both hexagons, by
`naturality_failures`, `hexagon_failures` (with P = M) and
`left_hexagon_failures` of `uqbench.weightmods`.  The two tensor windows
M (x) N and N (x) M of a datum are built once and serve all three stages.
"""

import argparse
import sys
import time

from uqbench.rootdata import load_datum
from uqbench.weightmods import (braid_pair, build_verma,
                                closed_form_braiding_rank1, hexagon_failures,
                                left_hexagon_failures, naturality_failures,
                                tensor_module, ybe_check)

YBE_DATA = ("A1", "A2", "B2", "G2", "A1xA1")
# two highest weights and a cap per datum for the naturality and hexagon stages
MIXED = {"A1": (2, -1, 4), "A2": ((1, 1), (0, 2), 3), "B2": ((1, 1), (2, 0), 3),
         "G2": ((1, 0), (0, 1), 2), "A1xA1": ((1, 2), (0, 1), 3)}


def audit_pairs(datum, lam_max, cap):
    checked = mismatches = 0
    vermas = [build_verma(datum, lam, cap) for lam in range(lam_max + 1)]
    for lam, M in enumerate(vermas):
        for lam_p, N in enumerate(vermas):
            for n in range(cap + 1):
                for m in range(cap + 1 - n):
                    got = braid_pair(datum, M, N, (0,) * n, (0,) * m)
                    want = {((0,) * a, (0,) * b): c
                            for (a, b), c in
                            closed_form_braiding_rank1(lam, lam_p, n, m)
                            if not c.is_zero()}
                    checked += 1
                    if got != want:
                        mismatches += 1
                        print(f"MISMATCH lam={lam} lam'={lam_p} "
                              f"n={n} m={m}")
    return checked, mismatches


def nonnegative(text):
    """argparse type of the sizes: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lam-max", type=nonnegative, default=4)
    parser.add_argument("--cap", type=nonnegative, default=5)
    parser.add_argument("--ybe-cap", type=nonnegative, default=3)
    args = parser.parse_args(argv)

    datum = load_datum("A1")
    start = time.monotonic()
    checked, mismatches = audit_pairs(datum, args.lam_max, args.cap)
    print(f"closed-form audit: {checked} pairs, {mismatches} mismatches")

    failures = 0
    for name in YBE_DATA:
        ybe_datum = load_datum(name)
        for lam in range(args.lam_max + 1):
            hw = lam if ybe_datum.rank == 1 else (lam, args.lam_max - lam)
            W = build_verma(ybe_datum, hw, args.ybe_cap)
            ok = ybe_check(ybe_datum, W, args.ybe_cap)
            failures += not ok
            print(f"ybe {name} lam={hw} cap={args.ybe_cap}: "
                  f"{'exact' if ok else 'FAILED'}")

    for name in YBE_DATA:
        mixed_datum = load_datum(name)
        lam, lam_p, cap = MIXED[name]
        M, N = build_verma(mixed_datum, lam, cap), build_verma(mixed_datum, lam_p, cap)
        mn, nm = tensor_module(mixed_datum, M, N), tensor_module(mixed_datum, N, M)
        for stage, runs in (
                ("naturality", (naturality_failures(mixed_datum, M, N, mn, nm),
                                naturality_failures(mixed_datum, N, M, nm, mn))),
                ("hexagon", (hexagon_failures(mixed_datum, M, N, M, nm),
                             hexagon_failures(mixed_datum, N, M, N, mn))),
                ("left-hexagon", (left_hexagon_failures(mixed_datum, M, N, mn),
                                  left_hexagon_failures(mixed_datum, N, M, nm)))):
            cases, bad = map(sum, zip(*runs))
            failures += bad
            print(f"{stage} {name} lam={lam}/{lam_p} cap={cap}: "
                  f"{cases} cases, {bad} failures")
    print(f"elapsed {time.monotonic() - start:.2f}s")
    return 1 if mismatches or failures else 0


if __name__ == "__main__":
    sys.exit(main())
