"""Acceptance gate: every top-level requirement, exact tolerance, one test per
criterion.  The conftest hook prints a PASS/FAIL line per criterion after the
run.  All comparisons are exact; there are no numeric tolerances anywhere."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from uqbench.deform import (GEN_MONO, GEN_ORDER, ObstructionError,
                            TruncatedUg,
                            conjugate_map, conjugation_residuals,
                            derivation_gauge, mult_trivialize,
                            plant_deformation,
                            rigidity_conjugator, standard_multiplication)
from uqbench.errors import ConfigError
from uqbench.nichols import NicholsContext, serre_element
from uqbench.norms import (RadiusParams, admissible, coaction_convergence,
                           coaction_term_valuation, reverify_certificate,
                           rmatrix_condition)
from uqbench.rootdata import load_datum
from uqbench.scalars import (PadicParams, ScalarQ, gauss_valuation, q_int,
                             vp, vp_factorial)
from uqbench.sparse import combine, scale
from uqbench.uq import (UqContext, check_antipode, check_coassociativity,
                        check_coproduct_multiplicative, check_counit)
from uqbench.weightmods import braid_pair, build_mlambda, build_verma, ybe_check

from oracles import (apply_k, closed_form_braiding_rank1, radical_basis,
                     verma_coaction, verma_e_coefficient, verma_k_exponent)

ONE = ScalarQ.one()
Q = ScalarQ.q_power
A1 = load_datum("A1")


def _pbw_positive_roots(datum):
    roots = {tuple(1 if j == i else 0 for j in range(datum.rank))
             for i in range(datum.rank)}
    while True:
        new = set()
        for beta in roots:
            for i in range(datum.rank):
                c = sum(beta[j] * datum.cartan[i][j]
                        for j in range(datum.rank))
                img = tuple(b - (c if j == i else 0)
                            for j, b in enumerate(beta))
                if all(x >= 0 for x in img) and any(x > 0 for x in img):
                    new.add(img)
        if new <= roots:
            return sorted(roots)
        roots |= new


def _pbw_count(roots, deg):
    def count(idx, rest):
        if all(x == 0 for x in rest):
            return 1
        if idx == len(roots):
            return 0
        total, mult = 0, 0
        beta = roots[idx]
        while all(r - mult * b >= 0 for r, b in zip(rest, beta)):
            total += count(idx + 1,
                           tuple(r - mult * b for r, b in zip(rest, beta)))
            mult += 1
        return total
    return count(0, tuple(deg))


def _degrees(rank, total):
    if rank == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _degrees(rank - 1, total - head):
            yield (head,) + rest


def test_criterion_1_nichols_dimensions():
    start = time.monotonic()
    ctx = NicholsContext(A1, cap=8)
    for n in range(9):
        assert ctx.nichols_dim((n,)) == 1

    for name, max_total in (("A2", 6), ("B2", 5)):
        datum = load_datum(name)
        ctx = NicholsContext(datum, cap=max_total)
        roots = _pbw_positive_roots(datum)
        for total in range(max_total + 1):
            for deg in _degrees(datum.rank, total):
                assert ctx.nichols_dim(deg) == _pbw_count(roots, deg), \
                    (name, deg)
    assert time.monotonic() - start < 60


def test_criterion_2_serre_membership():
    for name in ("A2", "B2", "G2"):
        datum = load_datum(name)
        ctx = NicholsContext(datum, cap=8)
        for i in range(datum.rank):
            for j in range(datum.rank):
                if i != j:
                    elt = serre_element(datum, i, j)
                    assert ctx.reduce_mod_radical(elt) == {}, (name, i, j)
    a2 = load_datum("A2")
    ctx = NicholsContext(a2, cap=6)
    for (i, j) in ((0, 1), (1, 0)):
        deg = [0, 0]
        deg[i] = 1 - a2.cartan[i][j]
        deg[j] = 1
        assert len(radical_basis(ctx, tuple(deg))) == 1, (i, j)


def _random_elements(ctx, seed, count):
    rng = random.Random(seed)
    atoms = []
    for i in range(ctx.datum.rank):
        atoms.append(ctx.e_gen(i))
        atoms.append(ctx.f_gen(i))
        unit = tuple(1 if j == i else 0
                     for j in range(ctx.datum.lattice_rank))
        atoms.append(ctx.k_elt(unit))
        atoms.append(ctx.k_elt(tuple(-u for u in unit)))
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        elt = ctx.multiply_all([atoms[rng.randrange(len(atoms))]
                                for _ in range(n)])
        elt = scale(elt, ScalarQ.from_int(rng.choice([-2, -1, 1, 2])))
        if rng.random() < 0.5:
            elt = combine(elt, atoms[rng.randrange(len(atoms))])
        out.append(elt)
    return out


def test_criterion_3_hopf_axioms():
    for name, cap in (("A1", 8), ("A2", 6)):
        ctx = UqContext(load_datum(name), cap=cap)
        gens = [ctx.e_gen(i) for i in range(ctx.datum.rank)] + \
               [ctx.f_gen(i) for i in range(ctx.datum.rank)]
        elems = gens + _random_elements(ctx, seed=2024, count=4)
        for x in elems:
            assert check_counit(ctx, x)
            assert check_coassociativity(ctx, x)
            assert check_antipode(ctx, x)
        for k, x in enumerate(elems):
            y = elems[(k + 1) % len(elems)]
            assert check_coproduct_multiplicative(ctx, x, y)
            # associativity, on triples drawn from the same pool
            z = elems[(k + 2) % len(elems)]
            assert ctx.multiply(ctx.multiply(x, y), z) == \
                ctx.multiply(x, ctx.multiply(y, z))
        for i in range(ctx.datum.rank):
            for j in range(ctx.datum.rank):
                assert ctx.drinfeld_reorder((i,), (j,)) == \
                    ctx.multiply(ctx.e_gen(i), ctx.f_gen(j))


def test_criterion_4_braiding_oracle_and_ybe():
    cap = 5
    for lam in range(5):
        M = build_verma(A1, lam, cap)
        for lam_p in range(5):
            N = build_verma(A1, lam_p, cap)
            for n in range(cap + 1):
                for m in range(cap + 1 - n):
                    got = braid_pair(A1, M, N, (0,) * n, (0,) * m)
                    want = {((0,) * a, (0,) * b): c
                            for (a, b), c in
                            closed_form_braiding_rank1(lam, lam_p, n, m)
                            if not c.is_zero()}
                    assert got == want, (lam, lam_p, n, m)
    for lam in range(5):
        W = build_verma(A1, lam, 3)
        assert ybe_check(A1, W, 3), lam


def test_criterion_5_example_module_fidelity():
    lam, cap = 3, 4
    M = build_verma(A1, lam, cap)
    # E kills the highest-weight line
    assert M.apply_e(0, {(): ONE}) == {}
    for n in range(cap + 1):
        # K x^n = q^{lam-2n} x^n
        assert apply_k(M, (1,), {(0,) * n: ONE}) == \
            {(0,) * n: Q(verma_k_exponent(lam, n))}
        if n < cap:
            # F shifts down the chain with coefficient one
            assert M.apply_f(0, {(0,) * n: ONE}) == {(0,) * (n + 1): ONE}
        if n > 0:
            # E x^n = [n][lam-n+1] x^{n-1}
            coeff = verma_e_coefficient(lam, n)
            want = {} if coeff.is_zero() else {(0,) * (n - 1): coeff}
            assert M.apply_e(0, {(0,) * n: ONE}) == want
        # coaction terms match the closed form exactly
        stored = sorted(M.coaction((0,) * n), key=lambda t: len(t[0]))
        closed = sorted(verma_coaction(A1, lam, n, cap),
                        key=lambda t: len(t[0]))
        assert [(fw, t, c) for fw, t, c in stored] == \
            [(fw, (0,) * t, c) for fw, t, c in closed]

    W = build_mlambda(A1, lam, (2, 2))
    for i in range(3):
        for j in range(3):
            assert apply_k(W, (1,), {(i, j): ONE}) == \
                {(i, j): Q(lam + 2 * i - 2 * j)}
            if i < 2:
                assert W.apply_e(0, {(i, j): ONE}) == {(i + 1, j): ONE}
            if j < 2:
                got = W.apply_f(0, {(i, j): ONE})
                want = {(i, j + 1): ONE}
                if i > 0:
                    want[(i - 1, j)] = \
                        -(q_int(i) * q_int(lam + i - 1 - 2 * j))
                assert got == want, (i, j)
    # the displayed instance: F x_{1,0} = x_{1,1} - [1][lam] x_{0,0}
    assert W.apply_f(0, {(1, 0): ONE}) == \
        {(1, 1): ONE, (0, 0): -(q_int(1) * q_int(lam))}


def test_criterion_6_valuation_identities():
    for p, vh in ((5, Fraction(1)), (7, Fraction(1)), (3, Fraction(2))):
        params = PadicParams(p, vh)
        two_hbar = gauss_valuation(Q(1) - Q(-1), params)
        assert two_hbar.exact
        assert two_hbar.lower == (vp(2, p) or Fraction(0)) + vh
        for n in range(1, 21):
            b = gauss_valuation(q_int(n), params)
            assert b.exact and b.lower == (vp(n, p) or Fraction(0)), (p, n)
        cert = coaction_convergence(params, RadiusParams(Fraction(0),
                                                         Fraction(0)))
        assert cert.slope == vh - Fraction(1, p - 1)
        assert cert.verified_prefix >= 30
        assert reverify_certificate(cert, params)
        for k in range(31):
            direct = k * vh - vp_factorial(k, p)
            assert coaction_term_valuation(k, params) == direct
            assert direct >= cert.bound_at(k)


def test_criterion_7_admissibility_and_rmatrix():
    P = lambda p, vh: PadicParams(p, Fraction(vh))
    R = lambda r, s: RadiusParams(Fraction(r), Fraction(s))
    assert admissible(A1, P(5, 1), R(1, 0)) is True
    assert admissible(A1, P(5, 1), R(0, 0)) is False
    assert admissible(A1, P(5, 1), R(10 ** 6, 10 ** 6)) is True
    assert rmatrix_condition(A1, P(5, 1)) is True
    assert rmatrix_condition(A1, P(5, "1/5")) is False
    # boundary: vh equal to 1/(p-1) fails the strict R-matrix inequality
    assert rmatrix_condition(A1, P(5, "1/4")) is False
    with pytest.raises(ConfigError):
        coaction_convergence(P(5, "1/4"), R(0, 0))


def test_criterion_8_rigidity_plant_and_recover():
    start = time.monotonic()
    algebra = TruncatedUg(A1, 6, 3)
    E = GEN_MONO["E"]
    n = 4

    seed = [algebra.one(), {E: Fraction(1)}] + [{}] * (n - 1)
    d_prime = conjugate_map(algebra, seed, n)
    Fser, _ = rigidity_conjugator(algebra, d_prime, n)
    residuals = conjugation_residuals(algebra, Fser, d_prime, n)
    # exactly zero through order 4, i.e. zero mod hbar^5
    for g, per_order in residuals.items():
        assert len(per_order) == n + 1
        for k, r in enumerate(per_order):
            assert r == {}, (g, k)

    gauge = derivation_gauge(algebra, {E: {GEN_MONO["H"]: Fraction(1)}})
    mu = plant_deformation(algebra, gauge, 1)
    V, _ = mult_trivialize(algebra, mu, 1)

    def apply(k, x):
        # V[0] is the identity on every window monomial; later orders
        # leave out the zero columns
        out: dict = {}
        for m, c in x.items():
            out = combine(out, scale(V[k][m] if k == 0 else V[k].get(m, {}),
                                     c))
        return out

    # transported product equals the standard one through order 1,
    # i.e. zero residual mod hbar^2, recomputed from public pieces
    for (m1, m2) in algebra.pairs:
        for order in range(2):
            lhs: dict = {}
            rhs: dict = {}
            for i in range(order + 1):
                j = order - i
                mu_j = algebra.mono_mul(m1, m2) if j == 0 \
                    else mu[j].get((m1, m2), {})
                lhs = combine(lhs, apply(i, mu_j))
                rhs = combine(rhs, algebra.multiply(
                    apply(i, {m1: Fraction(1)}),
                    apply(j, {m2: Fraction(1)})))
            assert lhs == rhs, (m1, m2, order)

    # fabricated obstructions must error with the failing order attached
    wide = TruncatedUg(A1, 8, 3)
    f4 = {(4, 0, 0): Fraction(1)}
    cols = {m: [{m: 1}, wide.commutator(f4, {m: 1})] for m in GEN_ORDER}
    with pytest.raises(ObstructionError) as err:
        rigidity_conjugator(wide, cols, 1)
    assert err.value.order == 1

    small = TruncatedUg(A1, 4, 2)
    bad_mu = [standard_multiplication(small),
              {(GEN_MONO["E"], GEN_MONO["H"]): {GEN_MONO["E"]: Fraction(1)}}]
    with pytest.raises(ObstructionError) as err:
        mult_trivialize(small, bad_mu, 1)
    assert err.value.order == 1

    assert time.monotonic() - start < 30


def test_criterion_9_cli_determinism():
    cases = [
        ["nichols-dims", "--datum", "A2", "--max-degree", "3"],
        ["serre-check", "--datum", "A2", "--cap", "6"],
        ["hopf-check", "--datum", "A1", "--cap", "6", "--samples", "2"],
        ["ybe-check", "--datum", "A1", "--lam", "2", "--cap", "3"],
        ["braid-rep", "--datum", "A1", "--lam", "1", "--strands", "3",
         "--word", "1,2,-1", "--cap", "2"],
        ["verma", "--datum", "A1", "--lam", "3", "--cap", "3"],
        ["mlambda", "--datum", "A1", "--lam", "3", "--window", "2,2"],
        ["converge-cert", "--p", "5", "--vh", "1"],
        ["admissible", "--datum", "A1", "--p", "5", "--vh", "2",
         "--r-exp", "1", "--s-exp", "1"],
        ["rigidity-solve", "--order", "3"],
        ["trivialize"],
    ]
    for args in cases:
        outs = []
        for seed in ("0", "424242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-m", "uqbench", *args],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, (args, proc.stderr)
            json.loads(proc.stdout)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], args
