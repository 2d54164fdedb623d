"""Reference computations the tests compare the package against.

None of these runs in a subcommand, so none lives in `src/`.
Each is an independent route to a value the package computes another way:

- the rank-1 closed forms of the Verma E-action, weights and coaction,
  against `weightmods.build_verma`, and of the braiding, against
  `weightmods.braid_pair`;
- the Cartan action K_lam on a weight module, which pins the weights of
  the Verma and window modules;
- the rational Nichols pairing, the integer Gram of `NicholsContext` times
  the constant prod_i <v_i, v_i>^{deg_i} it leaves out, against which the
  tests check the radical and the dual bases;
- one radical vector per non-basis word of a multidegree, read from
  `NicholsContext.reduce_word`, whose count the `serre-check` report
  takes as words minus Nichols dimension;
- the E-word/F-word pairing of the double, read from
  `uq.UqContext.double_pairing_mono`, which is built apart from the
  coaction it contracts;
- the dense matrix product, against the sparse braid actions;
- one elimination of the whole augmented system, against `linalg.solve`,
  which eliminates only the components its right-hand side reaches;
- the defining relations and associativity of the truncated enveloping
  algebra `deform.TruncatedUg`, checked on its multiplication table, and
  that table replayed one PBW letter at a time with no memo, against the
  prefix-memoised `TruncatedUg.mono_mul`;
- the gauge step of `deform.mult_trivialize` solved on every window pair,
  against the defining rows `deform._gauge_rows` it is solved on;
- the degree-0 Chevalley-Eilenberg differential for the adjoint action,
  which plants coboundaries for `deform.coboundary_solve`.

Beside them, the data and weights the braided-category tests run on:
`YBE_DATA` and the two weights and cap of `MIXED` per datum.

`tests/test_reachability.py` checks that another test module uses every
definition here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, TypeVar

from uqbench.deform import (GEN_MONO, GEN_ORDER, UNIT, El, Mono, TruncatedUg,
                            _gauge_defect, _leibniz)
from uqbench.errors import CapError, ConfigError
from uqbench.linalg import rref, solve
from uqbench.nichols import (Degree, NicholsContext, Word, word_degree,
                             words_of_degree)
from uqbench.rootdata import RootDatum
from uqbench.scalars import ScalarQ, q_binomial, q_diff, q_int, q_rising
from uqbench.sparse import add_term, combine, scale
from uqbench.uq import UqContext
from uqbench.weightmods import Vec, WeightModule

ZERO = ScalarQ.zero()
ONE = ScalarQ.one()

S = TypeVar("S")

YBE_DATA = ("A1", "A2", "B2", "G2", "A1xA1")
# two highest weights and a cap per datum for the naturality and hexagon checks
MIXED = {"A1": (2, -1, 4), "A2": ((1, 1), (0, 2), 3), "B2": ((1, 1), (2, 0), 3),
         "G2": ((1, 0), (0, 1), 2), "A1xA1": ((1, 2), (0, 1), 3)}


# ---------------------------------------------------------------------------
# rank-1 Verma and braiding closed forms
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


def closed_form_braiding_rank1(lam: int, lam_prime: int, n: int,
                               m: int) -> list[tuple[tuple[int, int], ScalarQ]]:
    """The rank-1 braiding of x^n (x) x^m, independent of braid_pair.

    Output pairs (m+k, n-k) with coefficient
    (-1)^k (q-q^{-1})^k [n]![lam-n+k]!/([k]![n-k]![lam-n]!) times
    q^{(m+k) lam + (n-k) lam' - 2(m+k)(n-k) - k(k-1)/2}.
    """
    qd = q_diff(1)
    out = []
    for k in range(n + 1):
        sign = ONE if k % 2 == 0 else -ONE
        coeff = sign * qd ** k * q_binomial(n, k) * q_rising(lam - n, k)
        exp = ((m + k) * lam + (n - k) * lam_prime - 2 * (m + k) * (n - k)
               - k * (k - 1) // 2)
        out.append(((m + k, n - k), coeff * ScalarQ.q_power(exp)))
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


def whole_system_solve(rows: Sequence[Sequence[S]], rhs: Sequence[S],
                       ncols: int, one: S) -> list[S] | None:
    """x with A x = b and free coordinates zero, read from the reduced row
    echelon form of the whole augmented matrix [A | b]; None when its
    right-hand-side column is a pivot."""
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)], one)
    if ncols in pivots:
        return None
    x = [one - one] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


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


def chain_mono_mul(algebra: TruncatedUg, m1: Mono, m2: Mono) -> El:
    """m1 m2 with every PBW letter of m2, F^a then H^b then E^c, applied to
    m1 in turn by `TruncatedUg._rmul_gen`, sharing nothing between pairs."""
    acc: El = {m1: 1}
    for g, reps in zip((GEN_MONO["F"], GEN_MONO["H"], GEN_MONO["E"]), m2):
        for _ in range(reps):
            nxt: El = {}
            for m, coef in acc.items():
                for m3, c3 in algebra._rmul_gen(m, g).items():
                    add_term(nxt, m3, coef * c3)
            acc = nxt
    return acc


def all_pairs_gauge_solve(algebra: TruncatedUg, f_n: dict) -> dict | None:
    """A solution b of f_n(x, y) = x b(y) - b(xy) + b(x) y on every window
    pair, or None: b is the particular Leibniz extension of f_n plus the
    thirteen homogeneous ones, their coefficients solved by `linalg.solve`
    from one row per pair and window monomial, in pair order and with
    repeated rows kept, so pivoting is lexicographic over the unknowns and
    free coordinates are zero."""
    unknowns = [(UNIT, UNIT)] + [(g, im) for g in sorted(GEN_MONO.values())
                                 for im in algebra.basis(1)]
    homogeneous = [_leibniz(algebra, {m: {im: 1}}, {}) for m, im in unknowns]
    particular = _leibniz(algebra, {}, f_n)
    index = {m: r for r, m in enumerate(algebra.monos)}
    rows, rhs = [], []
    for x, y in algebra.pairs:
        lin = [_gauge_defect(algebra, b, x, y) for b in homogeneous]
        want = combine(f_n.get((x, y), {}),
                       _gauge_defect(algebra, particular, x, y), -1)
        for m in sorted(set(want).union(*lin), key=index.__getitem__):
            rows.append([el.get(m, 0) for el in lin])
            rhs.append(want.get(m, 0))
    sol = solve(rows, rhs, len(homogeneous), Fraction(1))
    if sol is None:
        return None
    out = {}
    for m in algebra.monos:
        el = dict(particular.get(m, {}))
        for s, b in zip(sol, homogeneous):
            for mm, c in b.get(m, {}).items():
                add_term(el, mm, s * c)
        if el:
            out[m] = el
    return out
