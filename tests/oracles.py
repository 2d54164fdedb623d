"""Reference computations the tests compare the package against.

None of these runs in a subcommand or a script, so none lives in `src/`.
Each is an independent route to a value the package computes another way:

- the rank-1 closed forms of the Verma E-action, weights and coaction,
  against `weightmods.build_verma`;
- the Cartan action K_lam on a weight module, which pins the weights of
  the Verma and window modules;
- the rational Nichols pairing, the integer Gram of `NicholsContext` times
  the constant prod_i <v_i, v_i>^{deg_i} it leaves out, against which the
  tests check the radical and the dual bases;
- one radical vector per non-basis word of a multidegree, read from
  `NicholsContext.reduce_word`, whose count the `serre-check` report and
  `scripts/dimension_sweep.py` take as words minus Nichols dimension;
- the E-word/F-word pairing of the double, read from
  `uq.UqContext.double_pairing_mono`, which is built apart from the
  coaction it contracts;
- the dense matrix product, against the sparse braid actions;
- the defining relations and associativity of the truncated enveloping
  algebra `deform.TruncatedUg`, checked on its multiplication table;
- the degree-0 Chevalley-Eilenberg differential for the adjoint action,
  which plants coboundaries for `deform.coboundary_solve`.

`tests/test_reachability.py` checks that another test module uses every
definition here.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from uqbench.deform import GEN_MONO, GEN_ORDER, El, TruncatedUg
from uqbench.errors import CapError, ConfigError
from uqbench.nichols import (Degree, NicholsContext, Word, word_degree,
                             words_of_degree)
from uqbench.rootdata import RootDatum
from uqbench.scalars import ScalarQ, q_binomial, q_int, q_rising
from uqbench.sparse import add_term, scale
from uqbench.uq import UqContext
from uqbench.weightmods import Vec, WeightModule

ZERO = ScalarQ.zero()
ONE = ScalarQ.one()

S = TypeVar("S")


# ---------------------------------------------------------------------------
# rank-1 Verma closed forms
# ---------------------------------------------------------------------------

def verma_e_coefficient(lam: int, n: int, d: int = 1) -> ScalarQ:
    """[n][lam-(n-1)], the closed-form E-coefficient on x^n."""
    return q_int(n, d) * q_int(lam - (n - 1), d)


def verma_k_exponent(lam: int, n: int) -> int:
    return lam - 2 * n


def verma_coaction(datum: RootDatum, lam: int, n: int, cap: int) -> list[tuple[Word, int, ScalarQ]]:
    """Closed-form rank-1 Verma coaction of x^n, terms F^k (x) x^{n-k}.

    Coefficient (-1)^k q^{-d k(k-1)/2} (q-q^{-1})^k [n]! [lam-n+k]! /
    ([k]! [n-k]! [lam-n]!), with the factorial ratio read as a rising product
    so any integer lam works.  Terms whose coefficient is zero (k >= n - lam
    when n > lam >= 0) are left out: their F-words would act for nothing and
    could leave a window.  An oracle for `build_verma`, which does not call it.
    """
    if datum.rank != 1:
        raise ConfigError("closed-form Verma coaction is rank-1 only")
    if n > cap:
        raise CapError(f"basis vector x^{n} is outside the f-degree cap {cap}")
    d = datum.d[0]
    qd = ScalarQ.q_power(d) - ScalarQ.q_power(-d)
    out = []
    for k in range(0, min(n, cap) + 1):
        sign = ONE if k % 2 == 0 else -ONE
        coeff = (sign * qd ** k * q_binomial(n, k, d) * q_rising(lam - n, k, d)
                 * ScalarQ.q_power(-d * k * (k - 1) // 2))
        if not coeff.is_zero():
            out.append(((0,) * k, n - k, coeff))
    return out


# ---------------------------------------------------------------------------
# the Cartan action on a weight module
# ---------------------------------------------------------------------------

def k_scalar(module: WeightModule, lam: Sequence[int], label) -> ScalarQ:
    mu = module.weight(label)
    return ScalarQ.q_power(sum(a * b for a, b in zip(lam, mu)))


def apply_k(module: WeightModule, lam: Sequence[int], vec: Vec) -> Vec:
    out: Vec = {}
    for label, c in vec.items():
        add_term(out, label, c * k_scalar(module, lam, label))
    return out


# ---------------------------------------------------------------------------
# the rational Nichols pairing
# ---------------------------------------------------------------------------

def pairing_eval(ctx: NicholsContext, x: dict | Word, y: dict | Word) -> ScalarQ:
    """<x, y> for words or {word: coefficient} elements."""
    if isinstance(x, tuple):
        x = {x: ONE}
    if isinstance(y, tuple):
        y = {y: ONE}
    out = ZERO
    for wx, cx in x.items():
        if len(wx) > ctx.cap:
            raise CapError(f"word degree {len(wx)} above cap {ctx.cap}")
        deg = word_degree(wx, ctx.datum.rank)
        for wy, cy in y.items():
            if len(wy) > ctx.cap:
                raise CapError(f"word degree {len(wy)} above cap {ctx.cap}")
            if word_degree(wy, ctx.datum.rank) != deg:
                continue
            v = ctx._pair_words(wx, wy)
            if v:
                out = out + cx * cy * gram_scale(ctx, deg) * ScalarQ(v)
    return out


def radical_basis(ctx: NicholsContext, deg: Degree) -> list[dict[Word, ScalarQ]]:
    """One radical vector per non-pivot word w: w minus its reduction."""
    out = []
    for w in words_of_degree(deg):
        red = ctx.reduce_word(w)
        if w in red:
            continue
        terms = {u: -c for u, c in red.items()}
        terms[w] = ONE
        out.append({u: terms[u] for u in sorted(terms)})
    return out


def gram_scale(ctx: NicholsContext, deg: Degree) -> ScalarQ:
    """prod_i <v_i, v_i>^{deg_i}, the factor every pairing of degree deg
    carries, with <v_i, v_i> = 1/(q_i - q_i^{-1})."""
    out = ONE
    for d, k in zip(ctx.datum.d, deg):
        out = out * (ScalarQ.q_power(d) - ScalarQ.q_power(-d)) ** k
    return out.inverse()


# ---------------------------------------------------------------------------
# the pairing of the double
# ---------------------------------------------------------------------------

def double_pairing(ctx: UqContext, e_word: Word, f_word: Word) -> ScalarQ:
    """<E-word, F-word> in the skew duality pairing of the double."""
    return ctx.double_pairing_mono(
        (ctx._zero_dual, tuple(e_word)), (tuple(f_word), (0,) * ctx.datum.rank))


# ---------------------------------------------------------------------------
# dense matrices
# ---------------------------------------------------------------------------

def mat_mul(a: Sequence[Sequence[S]], b: Sequence[Sequence[S]], zero: S) -> list[list[S]]:
    out = []
    for row in a:
        orow = []
        for j in range(len(b[0])):
            acc = zero
            for k, x in enumerate(row):
                if x != zero and b[k][j] != zero:
                    acc = acc + x * b[k][j]
            orow.append(acc)
        out.append(orow)
    return out


# ---------------------------------------------------------------------------
# the truncated enveloping algebra
# ---------------------------------------------------------------------------

def check_relations(algebra: TruncatedUg) -> bool:
    """[H,E] = kappa E, [H,F] = -kappa F, [E,F] = H inside the window."""
    e, h, f = ({GEN_MONO[g]: 1} for g in "EHF")
    k = algebra.kappa
    return (algebra.commutator(h, e) == scale(e, k)
            and algebra.commutator(h, f) == scale(f, -k)
            and algebra.commutator(e, f) == h)


def check_associativity(algebra: TruncatedUg, total_degree: int) -> bool:
    """(xy)z = x(yz) for all monomial triples whose degrees sum to at
    most min(total_degree, cap)."""
    bound = min(total_degree, algebra.cap)
    monos = algebra.basis(bound)
    for m1 in monos:
        d1 = sum(m1)
        for m2 in monos:
            d12 = d1 + sum(m2)
            if d12 > bound:
                continue
            for m3 in monos:
                if d12 + sum(m3) > bound:
                    continue
                left = algebra.multiply(algebra.mono_mul(m1, m2), {m3: 1})
                right = algebra.multiply({m1: 1}, algebra.mono_mul(m2, m3))
                if left != right:
                    return False
    return True


def differential0(algebra: TruncatedUg, u: El) -> dict:
    """Chevalley-Eilenberg differential of the 0-cochain u for the adjoint
    action: x |-> [x, u] on each generator monomial x."""
    return {g: algebra.commutator({g: 1}, u) for g in GEN_ORDER}
