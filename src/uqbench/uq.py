"""The quantum group on PBW-ordered data: F-word (x) K_lambda (x) E-word.

Every product goes through one normal-ordered product of two PBW terms,
`UqContext._term_mul`:

  (f1 K_l1 e1)(f2 K_l2 e2)
      = sum c q^{-l1(deg fa) - l2(deg ea)} (f1 fa) K_{l1 + mu + l2} (ea e2)

over the normal order e1 f2 = sum c fa K_mu ea (`_reorder`).  The Cartan
factors cross by
  K_lambda E_i = q^{lambda(alpha_i)} E_i K_lambda,
  K_lambda F_i = q^{-lambda(alpha_i)} F_i K_lambda,
and the F- and E-words are multiplied inside their Nichols algebras
(concatenate, then reduce modulo the pairing radical).  `_reorder` peels E_i
off the end of e = e' E_i and F_j off the front of f = F_j f' with
  E_i F_j = F_j E_i + delta_ij X_i,   X_i = (t_i - t_i^{-1})/(q_i - q_i^{-1}),
as e' (F_j (E_i f')) + delta_ij e' (X_i f'), each product again by
`_term_mul`; `multiply` is its bilinear extension and `tensor_square_multiply`
its extension to U (x) U, where the coproduct of a term is the product of its
generators' coproducts.  Comultiplication, counit, and antipode follow
  Delta(E_i) = E_i (x) t_i + 1 (x) E_i,   Delta(F_i) = F_i (x) 1 + t_i^{-1} (x) F_i,
  Delta(K_lambda) = K_lambda (x) K_lambda,
  S(E_i) = -E_i t_i^{-1},  S(F_i) = -t_i F_i,  S(K_lambda) = K_{-lambda}.

`drinfeld_reorder` recomputes a product E-word * F-word through the quantum
double instead: comultiply twice on each side, contract outer legs with the
skew duality pairing, keep the middle legs in already-normal order, and
identify the double's two Cartan copies,

  b * c = sum <S(b_(1)), c_(1)> <b_(3), c_(3)>  c_(2) b_(2).

This route never touches the E-F cross relation, so agreement with `multiply`
is a real consistency check, not a tautology.  It shares `_coproduct_term`
and `_term_mul` only on terms without an F-word (the double's B side, K_lam
E-word) or without an E-word (its C side, F-word t^n): such products call
`_reorder` with an empty side, which returns the pair as it stands.  So
Delta(F_i) is written once, in `_coproduct_term`, and the C side reads it
there too.

Each `UqContext` computes a value once and keeps it for its own lifetime:
`_reorder` per (E-word, F-word), `_term_mul` per term pair, `_coproduct_term`
and `_antipode_term` per term, `double_pairing_mono` per monomial pair.
These are functions of the key alone (the Nichols reductions they read are
fixed by the datum and the cap), so a hit returns exactly what a fresh
computation would.  A memo value is handed out shared and must never be
mutated; every caller only iterates it.  There is no module-level cache, so
two contexts share nothing.  A memo key fixes its computation, so the
double's route above stays off the E-F cross relation: every `_term_mul` key
on it has no E-word on the left or no F-word on the right, and the
computation of such a key, whoever stored it first, calls `_reorder` only
with an empty side.

The skew pairing is determined by its generator values together with the
one-sided comultiplication laws <uv, a> = <u, a_(1)> <v, a_(2)> and
<u, ab> = <u_(1), b> <u_(2), a>; the reversal in the second law is what makes
the pairing skew, and it is why <K_lam E_i, F_j> = q^{lam(alpha_j)} times
<E_i, F_j> picks up a Cartan factor even though <E_i, F_j t^m> does not.
C-monomials keep the exponent n of t^n over the index set beside the term
(F-word, K_{tau(n)}, ()), tau(n) = sum n_i tau_i: the Cartan pairing
<K_lam, t^n> = q^{-lam(sum n_i alpha_i)} reads n, which the lattice index
tau(n) does not give back.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import ConfigError
from .nichols import NicholsContext, Word, word_degree
from .rootdata import RootDatum
from .scalars import ScalarQ
from .sparse import add_term, scale

ZERO = ScalarQ.zero()
ONE = ScalarQ.one()

DualVector = tuple[int, ...]
Term = tuple[Word, DualVector, Word]  # (f_word, cartan index, e_word)
CMono = tuple[Word, tuple[int, ...]]  # (f_word, n): F-word . t^n
Element = dict[Term, ScalarQ]  # a sparse combination of normal-ordered terms


def _times(a: ScalarQ, b: ScalarQ) -> ScalarQ:
    """a * b, with no product formed when either factor is one."""
    return a if b.is_one() else b if a.is_one() else a * b


class UqContext:
    """Holds the datum, the shared Nichols reduction, and normal-order memos."""

    def __init__(self, datum: RootDatum, cap: int = 8):
        self.datum = datum
        self.nichols = NicholsContext(datum, cap=cap)
        self.cap = cap
        self._zero_dual: DualVector = (0,) * datum.lattice_rank
        self._reorder_memo: dict[tuple[Word, Word], list[tuple[Term, ScalarQ]]] = {}
        self._pair_memo: dict = {}
        self._term_mul_memo: dict[tuple[Term, Term], list[tuple[Term, ScalarQ]]] = {}
        self._coproduct_memo: dict[Term, dict[tuple[Term, Term], ScalarQ]] = {}
        self._antipode_memo: dict[Term, Element] = {}

    # -- constructors --------------------------------------------------------

    def one(self) -> Element:
        return {((), self._zero_dual, ()): ONE}

    def e_gen(self, i: int) -> Element:
        return {((), self._zero_dual, (i,)): ONE}

    def f_gen(self, i: int) -> Element:
        return {((i,), self._zero_dual, ()): ONE}

    def k_elt(self, lam: Sequence[int]) -> Element:
        if len(lam) != self.datum.lattice_rank:
            raise ConfigError(f"K_lambda needs {self.datum.lattice_rank} "
                              f"coordinates, got {len(lam)}")
        return {((), tuple(lam), ()): ONE}

    def t_elt(self, i: int, power: int = 1) -> Element:
        tau = self.datum.t_indices[i]
        return self.k_elt(tuple(power * x for x in tau))

    # -- small helpers ------------------------------------------------------

    def _cross(self, lam: DualVector, w: Word) -> int:
        """lam(deg w), the q-exponent of K_lam crossing the word w."""
        if not w or not any(lam):
            return 0
        beta = self.datum.root_combination(word_degree(w, self.datum.rank))
        return sum(a * b for a, b in zip(lam, beta))

    def _t_index(self, n: Sequence[int]) -> DualVector:
        """The lattice index tau(n) = sum n_i tau_i of t^n."""
        lam = [0] * self.datum.lattice_rank
        for i, m in enumerate(n):
            for k, x in enumerate(self.datum.t_indices[i]):
                lam[k] += m * x
        return tuple(lam)

    def is_reduced(self, w: Word) -> bool:
        red = self.nichols.reduce_word(w)
        return len(red) == 1 and red.get(w, ZERO).is_one()

    # -- normal ordering ------------------------------------------------------

    def _term_mul(self, t1: Term, t2: Term) -> list[tuple[Term, ScalarQ]]:
        """The product of two PBW terms in normal order, possibly with
        repeated terms."""
        key = (t1, t2)
        hit = self._term_mul_memo.get(key)
        if hit is not None:
            return hit
        (f1, l1, e1), (f2, l2, e2) = t1, t2
        out = []
        for (fa, mu, ea), c in self._reorder(e1, f2):
            # f1 . K_l1 . fa . K_mu . ea . K_l2 . e2
            k = self._cross(l1, fa) + self._cross(l2, ea)
            c = c * ScalarQ.q_power(-k) if k else c
            lam = tuple(a + b + cc for a, b, cc in zip(l1, mu, l2))
            for fw, cf in self.nichols.reduce_word(f1 + fa).items():
                cf = _times(c, cf)
                for ew, ce in self.nichols.reduce_word(ea + e2).items():
                    out.append(((fw, lam, ew), _times(cf, ce)))
        self._term_mul_memo[key] = out
        return out

    def _reorder(self, e: Word, f: Word) -> list[tuple[Term, ScalarQ]]:
        """Normal-order the product (E-word e) * (F-word f)."""
        if not e or not f:
            return [((f, self._zero_dual, e), ONE)]
        key = (e, f)
        hit = self._reorder_memo.get(key)
        if hit is not None:
            return hit
        i, j = e[-1], f[0]
        zero = self._zero_dual
        prefix, f_rest = ((), zero, e[:-1]), (f[1:], zero, ())
        acc: dict[Term, ScalarQ] = {}
        # E_i F_j = F_j E_i + delta_ij X_i; first prefix . (F_j . (E_i f_rest))
        for t, c in self._reorder((i,), f[1:]):
            for t2, c2 in self._term_mul(((j,), zero, ()), t):
                for t3, c3 in self._term_mul(prefix, t2):
                    add_term(acc, t3, c * c2 * c3)
        if i == j:
            # prefix . (K_{+-tau_i} . f_rest), X_i = (t_i - t_i^-1)/(q_i - q_i^-1)
            d = self.datum.d[i]
            inv = (ScalarQ.q_power(d) - ScalarQ.q_power(-d)).inverse()
            tau = self.datum.t_indices[i]
            for sign, coef in ((1, inv), (-1, -inv)):
                k = ((), tuple(sign * x for x in tau), ())
                for t, c in self._term_mul(k, f_rest):
                    for t2, c2 in self._term_mul(prefix, t):
                        add_term(acc, t2, coef * c * c2)
        out = list(acc.items())
        self._reorder_memo[key] = out
        return out

    def multiply(self, x: Element, y: Element) -> Element:
        out: Element = {}
        for t1, c1 in x.items():
            for t2, c2 in y.items():
                base = c1 * c2
                for t, c in self._term_mul(t1, t2):
                    add_term(out, t, base * c)
        return out

    def multiply_all(self, factors: Sequence[Element]) -> Element:
        out = self.one()
        for f in factors:
            out = self.multiply(out, f)
        return out

    # -- Hopf structure -------------------------------------------------------

    def counit(self, x: Element) -> ScalarQ:
        out = ZERO
        for (f, lam, e), c in x.items():
            if not f and not e:
                out = out + c
        return out

    def coproduct(self, x: Element) -> dict[tuple[Term, Term], ScalarQ]:
        out: dict[tuple[Term, Term], ScalarQ] = {}
        for t, coef in x.items():
            for key, c in self._coproduct_term(t).items():
                add_term(out, key, coef * c)
        return out

    def _coproduct_term(self, t: Term) -> dict[tuple[Term, Term], ScalarQ]:
        """Delta of one term: the product in U (x) U of its generators'
        coproducts, as term pairs."""
        hit = self._coproduct_memo.get(t)
        if hit is not None:
            return hit
        f, lam, e = t
        z = self._zero_dual
        one = ((), z, ())
        tau = self.datum.t_indices
        factors = [{(((i,), z, ()), one): ONE,
                    (((), tuple(-x for x in tau[i]), ()), ((i,), z, ())): ONE}
                   for i in f]
        factors.append({(((), lam, ()), ((), lam, ())): ONE})
        factors += [{(((), z, (i,)), ((), tau[i], ())): ONE,
                     (one, ((), z, (i,))): ONE} for i in e]
        out = {(one, one): ONE}
        for factor in factors:
            out = self.tensor_square_multiply(out, factor)
        self._coproduct_memo[t] = out
        return out

    def tensor_square_multiply(self, a: Mapping[tuple[Term, Term], ScalarQ],
                               b: Mapping[tuple[Term, Term], ScalarQ]
                               ) -> dict[tuple[Term, Term], ScalarQ]:
        """The product in U (x) U of two term-pair combinations, factor by
        factor through `_term_mul`."""
        out: dict[tuple[Term, Term], ScalarQ] = {}
        for (a1, a2), ca in a.items():
            for (b1, b2), cb in b.items():
                base = ca * cb
                for t1, c1 in self._term_mul(a1, b1):
                    for t2, c2 in self._term_mul(a2, b2):
                        add_term(out, (t1, t2), base * c1 * c2)
        return out

    def antipode(self, x: Element) -> Element:
        out: Element = {}
        for t, coef in x.items():
            for t2, c in self._antipode_term(t).items():
                add_term(out, t2, coef * c)
        return out

    def _antipode_term(self, t: Term) -> Element:
        """S of one term: the reversed product of its generators' antipodes."""
        hit = self._antipode_memo.get(t)
        if hit is not None:
            return hit
        f, lam, e = t
        factors: list[Element] = []
        for i in reversed(e):
            factors.append(scale(self.multiply(self.e_gen(i), self.t_elt(i, -1)), -ONE))
        factors.append(self.k_elt(tuple(-a for a in lam)))
        for i in reversed(f):
            factors.append(scale(self.multiply(self.t_elt(i), self.f_gen(i)), -ONE))
        out = self.multiply_all(factors)
        self._antipode_memo[t] = out
        return out

    # -- the double pairing and drinfeld_reorder ------------------------------

    # B-monomials K_lam . E-word are the terms ((), lam, e_word), paired as
    # (lam, e_word); C-monomials are (f_word, n) = F-word . t^n with n over
    # the index set I.

    def _delta_c(self, mono: CMono) -> list[tuple[CMono, CMono, ScalarQ]]:
        """Delta of a C-monomial, read from `_coproduct_term` of its term:
        the second leg keeps n, the first carries n - deg f2, one t_i^{-1}
        for each letter i that the second leg's F-word f2 took."""
        f, n = mono
        rank = self.datum.rank
        return [((f1, tuple(a - b for a, b in zip(n, word_degree(f2, rank)))),
                 (f2, n), c)
                for ((f1, _, _), (f2, _, _)), c
                in self._coproduct_term((f, self._t_index(n), ())).items()]

    def double_pairing_mono(self, b: tuple[DualVector, Word], c: CMono) -> ScalarQ:
        """Skew pairing of a K_lam E-word monomial with an F-word t^n monomial.

        Computed from the generator values by the skew-pairing laws: stripping
        the last E-letter comultiplies the C side in order,
        <u v, a> = <u, a_(1)> <v, a_(2)>, while a single E-letter sees only
        the F-letter of its leg, <E_i, F_j t^m> = -delta_ij/(q_i - q_i^{-1}),
        and pure Cartan monomials pair to <K_lam, t^n> = q^{-lam(sum n alpha)}.
        """
        key = (b, c)
        hit = self._pair_memo.get(key)
        if hit is not None:
            return hit
        lam, e = b
        f, n = c
        if not e:
            if f:
                val = ZERO
            else:
                beta = self.datum.root_combination(n)
                val = ScalarQ.q_power(-sum(a * x for a, x in zip(lam, beta)))
        elif len(e) > len(f):
            val = ZERO
        else:
            i, prefix = e[-1], e[:-1]
            d = self.datum.d[i]
            leaf = -(ScalarQ.q_power(d) - ScalarQ.q_power(-d)).inverse()
            val = ZERO
            for (c1, c2, coef) in self._delta_c((f, n)):
                f2, _n2 = c2
                if len(f2) != 1 or f2[0] != i:
                    continue
                a = self.double_pairing_mono((lam, prefix), c1)
                if not a.is_zero():
                    val = val + coef * a * leaf
        self._pair_memo[key] = val
        return val

    def drinfeld_reorder(self, e_word: Sequence[int], f_word: Sequence[int]) -> Element:
        """E-word * F-word computed through the double; must agree with multiply."""
        e_word = tuple(e_word)
        f_word = tuple(f_word)
        if not self.is_reduced(e_word) or not self.is_reduced(f_word):
            raise ConfigError("drinfeld_reorder expects Nichols-reduced words")
        c0 = (f_word, (0,) * self.datum.rank)
        out: Element = {}
        for (b1, bmid), c_outer in self._coproduct_term(((), self._zero_dual, e_word)).items():
            s_b1 = self._antipode_term(b1).items()
            for (b2, b3), c_inner in self._coproduct_term(bmid).items():
                for (c1, cmid, cc_outer) in self._delta_c(c0):
                    for (c2, c3, cc_inner) in self._delta_c(cmid):
                        p3 = self.double_pairing_mono(b3[1:], c3)
                        if p3.is_zero():
                            continue
                        p1 = ZERO
                        for bs, cs in s_b1:
                            contrib = self.double_pairing_mono(bs[1:], c1)
                            if not contrib.is_zero():
                                p1 = p1 + cs * contrib
                        if p1.is_zero():
                            continue
                        # middle legs, already normal ordered: c2 . b2
                        (fw, n), (_, lam_b, ew) = c2, b2
                        lam = tuple(a + bb for a, bb in zip(self._t_index(n), lam_b))
                        coef = c_outer * c_inner * cc_outer * cc_inner * p1 * p3
                        add_term(out, (fw, lam, ew), coef)
        return out


# ---------------------------------------------------------------------------
# Hopf axiom checks (used by tests and the CLI hopf-check subcommand)
# ---------------------------------------------------------------------------

def check_coproduct_multiplicative(ctx: UqContext, x: Element, y: Element) -> bool:
    lhs = ctx.coproduct(ctx.multiply(x, y))
    rhs = ctx.tensor_square_multiply(ctx.coproduct(x), ctx.coproduct(y))
    return lhs == rhs


def check_counit(ctx: UqContext, x: Element) -> bool:
    left: Element = {}
    right: Element = {}
    for (t1, t2), c in ctx.coproduct(x).items():
        e1 = ctx.counit({t1: ONE})
        if not e1.is_zero():
            add_term(right, t2, c * e1)
        e2 = ctx.counit({t2: ONE})
        if not e2.is_zero():
            add_term(left, t1, c * e2)
    return left == x and right == x


def check_coassociativity(ctx: UqContext, x: Element) -> bool:
    d = ctx.coproduct(x)
    lhs: dict[tuple[Term, Term, Term], ScalarQ] = {}
    for (t1, t2), c in d.items():
        for (u1, u2), c2 in ctx.coproduct({t1: ONE}).items():
            add_term(lhs, (u1, u2, t2), c * c2)
    rhs: dict[tuple[Term, Term, Term], ScalarQ] = {}
    for (t1, t2), c in d.items():
        for (u1, u2), c2 in ctx.coproduct({t2: ONE}).items():
            add_term(rhs, (t1, u1, u2), c * c2)
    return lhs == rhs


def check_antipode(ctx: UqContext, x: Element) -> bool:
    want = scale(ctx.one(), ctx.counit(x))
    lhs: Element = {}
    rhs: Element = {}
    for (t1, t2), c in ctx.coproduct(x).items():
        for t, c2 in ctx.multiply(ctx.antipode({t1: ONE}), {t2: ONE}).items():
            add_term(lhs, t, c * c2)
        for t, c2 in ctx.multiply({t1: ONE}, ctx.antipode({t2: ONE})).items():
            add_term(rhs, t, c * c2)
    return lhs == want and rhs == want
