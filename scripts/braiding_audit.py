#!/usr/bin/env python3
"""Audit the rank-1 braiding against its closed form and run exact
Yang-Baxter checks on truncated highest-weight windows.

The compositional braiding (the dual-basis coaction acting through the
F-action, with the weight twist) and the rank-1 closed form are computed
separately and compared entry by entry.  Then the braid relation is
verified on the degree-capped triple tensor window of Vermas over A1 and
the rank-2 data A2, B2, G2 and A1xA1.
"""

import argparse
import sys
import time

from uqbench.rootdata import load_datum
from uqbench.weightmods import (braid_pair, build_verma,
                                closed_form_braiding_rank1, ybe_check)

YBE_DATA = ("A1", "A2", "B2", "G2", "A1xA1")


def audit_pairs(datum, lam_max, cap):
    checked = mismatches = 0
    for lam in range(lam_max + 1):
        M = build_verma(datum, lam, cap)
        for lam_p in range(lam_max + 1):
            N = build_verma(datum, lam_p, cap)
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lam-max", type=int, default=4)
    parser.add_argument("--cap", type=int, default=5)
    parser.add_argument("--ybe-cap", type=int, default=3)
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
    print(f"elapsed {time.monotonic() - start:.2f}s")
    return 1 if mismatches or failures else 0


if __name__ == "__main__":
    sys.exit(main())
