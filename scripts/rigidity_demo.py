#!/usr/bin/env python3
"""Plant a formal deformation, solve it back, and print the transcript.

Two rounds on the truncated rank-1 enveloping algebra: a conjugation
problem for a planted inner derivation series, then a multiplication
trivialization for a planted filtered gauge.  Both solvers report the
per-order defects; the residuals are recomputed from the transcript output
independently of the solver internals.
"""

import argparse
import sys
from fractions import Fraction

from uqbench.deform import (GEN_MONO, TruncatedUg, conjugate_map,
                            conjugation_residuals, derivation_gauge,
                            mult_trivialize, plant_deformation,
                            rigidity_conjugator)
from uqbench.rootdata import load_datum


def el_str(el):
    if not el:
        return "0"
    parts = []
    for mono in sorted(el):
        coeff = el[mono]
        parts.append(f"{coeff}*F^{mono[0]}H^{mono[1]}E^{mono[2]}")
    return " + ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cap", type=int, default=6)
    parser.add_argument("--window", type=int, default=3)
    parser.add_argument("--order", type=int, default=4)
    args = parser.parse_args(argv)

    datum = load_datum("A1")
    algebra = TruncatedUg(datum, args.cap, args.window)
    E, H = GEN_MONO["E"], GEN_MONO["H"]

    print(f"algebra: cap={args.cap} window={args.window} "
          f"order={args.order}")
    print()
    print("-- conjugation round --")
    d_prime = conjugate_map(algebra, [algebra.one(), {E: Fraction(1)}],
                            args.order)
    F, transcript = rigidity_conjugator(algebra, d_prime, args.order)
    for entry in transcript:
        print(f"order {entry['order']}: defect {entry['defect']}, "
              f"u = {el_str(entry['u'])}")
    residuals = conjugation_residuals(algebra, F, d_prime, args.order)
    worst = max((sum(len(r) for r in per) for per in residuals.values()),
                default=0)
    print(f"residual terms through order {args.order}: {worst}")

    print()
    print("-- trivialization round --")
    gauge = derivation_gauge(algebra, {E: {H: Fraction(1)}})
    mu = plant_deformation(algebra, gauge, 1)
    V, transcript = mult_trivialize(algebra, mu, 1)
    for entry in transcript:
        print(f"order {entry['order']}: defect {entry['defect']}, "
              f"beta(1) = {el_str(entry['beta'].get(GEN_MONO['E'], {}))}")
    print("gauge recovered" if any(V[1:]) else "no gauge produced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
