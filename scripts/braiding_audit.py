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
through `tensor_module`) and to satisfy both hexagons.  The hexagon
sigma_{M, N (x) P} = (1 (x) sigma_{M,P})(sigma_{M,N} (x) 1) is checked
with P = M.  The hexagon
sigma_{M (x) N, P} = (sigma_{M,P} (x) 1)(1 (x) sigma_{N,P}) is checked for
every P at once: the coaction read from the E-action of M (x) N must be the
twisted product of the coactions of M and N (`left_hexagon_failures`).
Each stage takes the tensor windows it checks, so the two windows M (x) N
and N (x) M of a datum are built once and serve all three stages.
"""

import argparse
import sys
import time

from uqbench.errors import CapError
from uqbench.nichols import word_degree
from uqbench.rootdata import load_datum
from uqbench.scalars import ScalarQ
from uqbench.sparse import add_term
from uqbench.weightmods import (braid_pair, build_verma,
                                closed_form_braiding_rank1, tensor_module,
                                ybe_check)

YBE_DATA = ("A1", "A2", "B2", "G2", "A1xA1")
# two highest weights and a cap per datum for the naturality and hexagon stages
MIXED = {"A1": (2, -1, 4), "A2": ((1, 1), (0, 2), 3), "B2": ((1, 1), (2, 0), 3),
         "G2": ((1, 0), (0, 1), 2), "A1xA1": ((1, 2), (0, 1), 3)}
ONE = ScalarQ.one()


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


def naturality_failures(datum, M, N, mn, nm):
    """(cases, failures) of sigma X = X sigma for X = E_i and F_i acting on
    the tensor windows mn = M (x) N and nm = N (x) M, on every label pair;
    a case that leaves a window is skipped."""

    def sigma(vec):
        out = {}
        for (a, b), c in vec.items():
            for pair, c2 in braid_pair(datum, M, N, a, b).items():
                add_term(out, pair, c * c2)
        return out

    cases = failures = 0
    for pair in mn.labels:
        for i in range(datum.rank):
            for act_mn, act_nm in ((mn.apply_e, nm.apply_e),
                                   (mn.apply_f, nm.apply_f)):
                try:
                    ok = sigma(act_mn(i, {pair: ONE})) == act_nm(i, sigma({pair: ONE}))
                except CapError:
                    continue
                cases += 1
                failures += not ok
    return cases, failures


def hexagon_failures(datum, M, N, P, np_):
    """(cases, failures) of sigma_{M, N (x) P} =
    (1 (x) sigma_{M,P})(sigma_{M,N} (x) 1) on every label triple, with
    np_ the tensor window N (x) P; a case that leaves a window is skipped."""
    cases = failures = 0
    for a in M.labels:
        for (b, c) in np_.labels:
            try:
                lhs = braid_pair(datum, M, np_, a, (b, c))
                rhs = {}
                for (b2, a2), c1 in braid_pair(datum, M, N, a, b).items():
                    for (c2, a3), c3 in braid_pair(datum, M, P, a2, c).items():
                        add_term(rhs, ((b2, c2), a3), c1 * c3)
            except CapError:
                continue
            cases += 1
            failures += lhs != rhs
    return cases, failures


def left_hexagon_failures(datum, M, N, mn):
    """(cases, failures) of the coaction identity that carries the hexagon
    sigma_{M (x) N, P} = (sigma_{M,P} (x) 1)(1 (x) sigma_{N,P}) for every P:
        delta_{M (x) N}(a (x) b) = sum_{(v, b', c1) in delta_N(b)}
            sum_{(u, a', c2) in delta_M(a)} c1 c2 q^{-(deg u, wt b')}
            F_{u v} (x) (a', b'),
    the left side the coaction the tensor window mn = M (x) N reads from its
    own E-action, term for term, on every label pair that has a column there
    and whose factors have one in M and N; u v is reduced in mn.nichols."""
    cases = failures = 0
    for (a, b), col in mn.coaction_cols.items():
        if a not in M.coaction_cols or b not in N.coaction_cols:
            continue
        got, want = {}, {}
        for w, t, c in col:
            add_term(got, (w, t), c)
        for v, b2, c1 in N.coaction(b):
            for u, a2, c2 in M.coaction(a):
                twist = ScalarQ.q_power(-datum.root_weight_pairing(
                    word_degree(u, datum.rank), N.weight(b2)))
                for w, c3 in mn.nichols.reduce_word(u + v).items():
                    add_term(want, (w, (a2, b2)), c1 * c2 * twist * c3)
        cases += 1
        failures += got != want
    return cases, failures


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
