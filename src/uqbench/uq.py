"""The quantum group on PBW-ordered data: F-word (x) K_lambda (x) E-word.

Multiplication normal-orders any product into that shape using
  [E_i, F_j] = delta_ij (t_i - t_i^{-1})/(q_i - q_i^{-1}),
  K_lambda E_i = q^{lambda(alpha_i)} E_i K_lambda,
  K_lambda F_i = q^{-lambda(alpha_i)} F_i K_lambda,
with E- and F-words multiplied inside their Nichols algebras (concatenate,
then reduce modulo the pairing radical).  Comultiplication, counit, and
antipode follow
  Delta(E_i) = E_i (x) t_i + 1 (x) E_i,   Delta(F_i) = F_i (x) 1 + t_i^{-1} (x) F_i,
  Delta(K_lambda) = K_lambda (x) K_lambda,
  S(E_i) = -E_i t_i^{-1},  S(F_i) = -t_i F_i,  S(K_lambda) = K_{-lambda}.

`drinfeld_reorder` recomputes a product E-word * F-word through the quantum
double instead: comultiply twice on each side, contract outer legs with the
skew duality pairing, keep the middle legs in already-normal order, and
identify the double's two Cartan copies,

  b * c = sum <S(b_(1)), c_(1)> <b_(3), c_(3)>  c_(2) b_(2).

This route never touches the E-F cross relation, so agreement with `multiply`
is a real consistency check, not a tautology.

The skew pairing is determined by its generator values together with the
one-sided comultiplication laws <uv, a> = <u, a_(1)> <v, a_(2)> and
<u, ab> = <u_(1), b> <u_(2), a>; the reversal in the second law is what makes
the pairing skew, and it is why <K_lam E_i, F_j> = q^{lam(alpha_j)} times
<E_i, F_j> picks up a Cartan factor even though <E_i, F_j t^m> does not.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .braiding import Word
from .errors import CapError, ConfigError
from .nichols import NicholsContext
from .rootdata import RootDatum
from .scalars import ScalarQ
from .sparse import Sparse, add_term

ZERO = ScalarQ.zero()
ONE = ScalarQ.one()

DualVector = tuple[int, ...]
Term = tuple[Word, DualVector, Word]  # (f_word, cartan index, e_word)

class UqElement(Sparse):
    """Sparse combination of normal-ordered terms."""

    __slots__ = ()

    def __repr__(self):
        if not self.terms:
            return "0"
        def fmt(t):
            f, lam, e = t
            bits = []
            if f:
                bits.append("F" + "".join(str(i) for i in f))
            if any(lam):
                bits.append(f"K{list(lam)}")
            if e:
                bits.append("E" + "".join(str(i) for i in e))
            return ".".join(bits) or "1"
        return " + ".join(f"({c})*{fmt(t)}" for t, c in sorted(self.terms.items()))


class UqContext:
    """Holds the datum, the shared Nichols reduction, and normal-order memos."""

    def __init__(self, datum: RootDatum, cap: int = 8):
        self.datum = datum
        self.nichols = NicholsContext(datum, cap=cap)
        self.cap = cap
        self._zero_dual: DualVector = (0,) * datum.lattice_rank
        self._reorder_memo: dict[tuple[Word, Word], list[tuple[Term, ScalarQ]]] = {}
        self._pair_memo: dict = {}

    # -- constructors --------------------------------------------------------

    def one(self) -> UqElement:
        return UqElement({((), self._zero_dual, ()): ONE})

    def e_gen(self, i: int) -> UqElement:
        return UqElement({((), self._zero_dual, (i,)): ONE})

    def f_gen(self, i: int) -> UqElement:
        return UqElement({((i,), self._zero_dual, ()): ONE})

    def k_elt(self, lam: Sequence[int]) -> UqElement:
        return UqElement({((), tuple(lam), ()): ONE})

    def t_elt(self, i: int, power: int = 1) -> UqElement:
        tau = self.datum.t_indices[i]
        return self.k_elt(tuple(power * x for x in tau))

    def cross_term(self, i: int) -> UqElement:
        """(t_i - t_i^{-1}) / (q_i - q_i^{-1})."""
        d = self.datum.d[i]
        denom = ScalarQ.q_power(d) - ScalarQ.q_power(-d)
        inv = denom.inverse()
        tau = self.datum.t_indices[i]
        mtau = tuple(-x for x in tau)
        return UqElement({((), tau, ()): inv, ((), mtau, ()): -inv})

    # -- small helpers ------------------------------------------------------

    def word_degree(self, w: Word) -> tuple[int, ...]:
        deg = [0] * self.datum.rank
        for i in w:
            deg[i] += 1
        return tuple(deg)

    def lam_apply(self, lam: Sequence[int], deg: Sequence[int]) -> int:
        beta = self.datum.root_combination(deg)
        return sum(a * b for a, b in zip(lam, beta))

    def reduce_word(self, w: Word) -> list[tuple[Word, ScalarQ]]:
        if len(w) > self.cap:
            raise CapError(f"word degree {len(w)} above cap {self.cap}")
        deg = self.nichols.space.word_degree(w)
        nb = self.nichols.nichols_basis(deg)
        return [(bw, c) for bw, c in nb.reduction[w].items()]

    def word_product(self, w1: Word, w2: Word) -> list[tuple[Word, ScalarQ]]:
        return self.reduce_word(w1 + w2)

    def is_reduced(self, w: Word) -> bool:
        red = self.reduce_word(w)
        return len(red) == 1 and red[0][0] == w and red[0][1].is_one()

    # -- normal ordering ------------------------------------------------------

    def _reorder(self, e: Word, f: Word) -> list[tuple[Term, ScalarQ]]:
        """Normal-order the product (E-word e) * (F-word f)."""
        if not e or not f:
            return [((f, self._zero_dual, e), ONE)]
        key = (e, f)
        hit = self._reorder_memo.get(key)
        if hit is not None:
            return hit
        i, e_prefix = e[-1], e[:-1]
        j, f_rest = f[0], f[1:]
        acc: dict[Term, ScalarQ] = {}
        # E_i F_j = F_j E_i + delta_ij X_i; first the straight-through part:
        # e_prefix . F_j . (E_i f_rest)
        for (fw, mu, ew), c in self._reorder((i,), f_rest):
            for fw2, c2 in self.word_product((j,), fw):
                for (fw3, nu, ew3), c3 in self._reorder(e_prefix, fw2):
                    # fw3 K_nu ew3 K_mu ew  ->  collect Cartan
                    cross = ScalarQ.q_power(-self.lam_apply(mu, self.word_degree(ew3)))
                    lam = tuple(a + b for a, b in zip(nu, mu))
                    for ew4, c4 in self.word_product(ew3, ew):
                        add_term(acc, (fw3, lam, ew4), c * c2 * c3 * cross * c4)
        if i == j:
            # e_prefix . X_i . f_rest with X_i = (t_i - t_i^-1)/(q_i - q_i^-1)
            d = self.datum.d[i]
            inv = (ScalarQ.q_power(d) - ScalarQ.q_power(-d)).inverse()
            tau = self.datum.t_indices[i]
            deg_frest = self.word_degree(f_rest)
            for sign in (1, -1):
                stau = tuple(sign * x for x in tau)
                coef = inv if sign == 1 else -inv
                coef = coef * ScalarQ.q_power(-self.lam_apply(stau, deg_frest))
                for (fw, nu, ew), c in self._reorder(e_prefix, f_rest):
                    cross = ScalarQ.q_power(-self.lam_apply(stau, self.word_degree(ew)))
                    lam = tuple(a + b for a, b in zip(nu, stau))
                    add_term(acc, (fw, lam, ew), coef * c * cross)
        out = list(acc.items())
        self._reorder_memo[key] = out
        return out

    def multiply(self, x: UqElement, y: UqElement) -> UqElement:
        out = UqElement()
        for (f1, l1, e1), c1 in x.terms.items():
            for (f2, l2, e2), c2 in y.terms.items():
                base = c1 * c2
                for (fa, mu, ea), c in self._reorder(e1, f2):
                    # f1 . K_l1 . fa . K_mu . ea . K_l2 . e2
                    cross = ScalarQ.q_power(
                        -self.lam_apply(l1, self.word_degree(fa))
                        - self.lam_apply(l2, self.word_degree(ea))
                    )
                    lam = tuple(a + b + cc for a, b, cc in zip(l1, mu, l2))
                    for fw, cf in self.word_product(f1, fa):
                        for ew, ce in self.word_product(ea, e2):
                            out.add_term((fw, lam, ew), base * c * cross * cf * ce)
        return out

    def multiply_all(self, factors: Sequence[UqElement]) -> UqElement:
        out = self.one()
        for f in factors:
            out = self.multiply(out, f)
        return out

    # -- Hopf structure -------------------------------------------------------

    def counit(self, x: UqElement) -> ScalarQ:
        out = ZERO
        for (f, lam, e), c in x.terms.items():
            if not f and not e:
                out = out + c
        return out

    def coproduct(self, x: UqElement) -> dict[tuple[Term, Term], ScalarQ]:
        out: dict[tuple[Term, Term], ScalarQ] = {}
        for (f, lam, e), coef in x.terms.items():
            pairs = self._coproduct_term(f, lam, e)
            for key, c in pairs.items():
                add_term(out, key, coef * c)
        return out

    def _coproduct_term(self, f: Word, lam: DualVector, e: Word) -> dict[tuple[Term, Term], ScalarQ]:
        # product of the generator coproducts, multiplied slotwise
        factors: list[list[tuple[UqElement, UqElement]]] = []
        for i in f:
            factors.append([
                (self.f_gen(i), self.one()),
                (self.t_elt(i, -1), self.f_gen(i)),
            ])
        factors.append([(self.k_elt(lam), self.k_elt(lam))])
        for i in e:
            factors.append([
                (self.e_gen(i), self.t_elt(i)),
                (self.one(), self.e_gen(i)),
            ])
        left = self.one()
        right = self.one()
        acc: list[tuple[UqElement, UqElement]] = [(left, right)]
        for options in factors:
            nxt: list[tuple[UqElement, UqElement]] = []
            for (l, r) in acc:
                for (dl, dr) in options:
                    nxt.append((self.multiply(l, dl), self.multiply(r, dr)))
            acc = nxt
        out: dict[tuple[Term, Term], ScalarQ] = {}
        for l, r in acc:
            for t1, c1 in l.terms.items():
                for t2, c2 in r.terms.items():
                    add_term(out, (t1, t2), c1 * c2)
        return out

    def antipode(self, x: UqElement) -> UqElement:
        out = UqElement()
        for (f, lam, e), coef in x.terms.items():
            factors: list[UqElement] = []
            for i in reversed(e):
                factors.append(self.multiply(self.e_gen(i), self.t_elt(i, -1)).scale(-ONE))
            factors.append(self.k_elt(tuple(-a for a in lam)))
            for i in reversed(f):
                factors.append(self.multiply(self.t_elt(i), self.f_gen(i)).scale(-ONE))
            out = out + self.multiply_all(factors).scale(coef)
        return out

    # -- the double pairing and drinfeld_reorder ------------------------------

    # B-monomials are (lam, e_word) = K_lam . E-word; C-monomials are
    # (f_word, n) = F-word . t^n with n over the index set I.

    def _bmono_mul(self, a: tuple[DualVector, Word], b: tuple[DualVector, Word]) -> list[tuple[tuple[DualVector, Word], ScalarQ]]:
        (l1, u1), (l2, u2) = a, b
        cross = ScalarQ.q_power(-self.lam_apply(l2, self.word_degree(u1)))
        lam = tuple(x + y for x, y in zip(l1, l2))
        return [(((lam), w), cross * c) for w, c in self.word_product(u1, u2)]

    def _cmono_mul(self, a: tuple[Word, tuple[int, ...]], b: tuple[Word, tuple[int, ...]]) -> list[tuple[tuple[Word, tuple[int, ...]], ScalarQ]]:
        (w1, n1), (w2, n2) = a, b
        # t^{n1} crosses w2: K_{sum n1_i tau_i} F_j = q^{-tau(alpha_j)} F_j K
        tau = [0] * self.datum.lattice_rank
        for i, m in enumerate(n1):
            for k, x in enumerate(self.datum.t_indices[i]):
                tau[k] += m * x
        cross = ScalarQ.q_power(-self.lam_apply(tuple(tau), self.word_degree(w2)))
        n = tuple(x + y for x, y in zip(n1, n2))
        return [(((w), n), cross * c) for w, c in self.word_product(w1, w2)]

    def _delta_b(self, mono: tuple[DualVector, Word]) -> list[tuple[tuple[DualVector, Word], tuple[DualVector, Word], ScalarQ]]:
        # Coproduct of the double's B factor: Delta(E_i) = E_i (x) t_i + 1 (x) E_i
        lam, e = mono
        acc: list[tuple[tuple[DualVector, Word], tuple[DualVector, Word], ScalarQ]] = [
            ((lam, ()), (lam, ()), ONE)
        ]
        for i in e:
            tau = self.datum.t_indices[i]
            parts = [
                ((self._zero_dual, (i,)), (tau, ())),
                ((self._zero_dual, ()), (self._zero_dual, (i,))),
            ]
            nxt = []
            for (b1, b2, c) in acc:
                for (d1, d2) in parts:
                    for (m1, c1) in self._bmono_mul(b1, d1):
                        for (m2, c2) in self._bmono_mul(b2, d2):
                            nxt.append((m1, m2, c * c1 * c2))
            acc = nxt
        return acc

    def _delta_c(self, mono: tuple[Word, tuple[int, ...]]) -> list[tuple[tuple[Word, tuple[int, ...]], tuple[Word, tuple[int, ...]], ScalarQ]]:
        # Coproduct of the double's C factor: Delta(F_i) = F_i (x) 1 + t_i^{-1} (x) F_i
        f, n = mono
        zero_n = (0,) * self.datum.rank
        acc: list[tuple[tuple[Word, tuple[int, ...]], tuple[Word, tuple[int, ...]], ScalarQ]] = [
            (((), n), ((), n), ONE)
        ]
        for i in reversed(f):
            ti_inv = tuple(-1 if k == i else 0 for k in range(self.datum.rank))
            parts = [
                (((i,), zero_n), ((), zero_n)),
                (((), ti_inv), ((i,), zero_n)),
            ]
            nxt = []
            for (c1m, c2m, c) in acc:
                for (d1, d2) in parts:
                    for (m1, cc1) in self._cmono_mul(d1, c1m):
                        for (m2, cc2) in self._cmono_mul(d2, c2m):
                            nxt.append((m1, m2, c * cc1 * cc2))
            acc = nxt
        return acc

    def double_pairing_mono(self, b: tuple[DualVector, Word], c: tuple[Word, tuple[int, ...]]) -> ScalarQ:
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

    def double_pairing(self, e_word: Word, f_word: Word) -> ScalarQ:
        """<E-word, F-word> in the skew duality pairing of the double."""
        return self.double_pairing_mono(
            (self._zero_dual, tuple(e_word)), (tuple(f_word), (0,) * self.datum.rank))

    def _b_antipode(self, mono: tuple[DualVector, Word]) -> list[tuple[tuple[DualVector, Word], ScalarQ]]:
        """Antipode of the B factor on a monomial, in normal order.

        S is the anti-homomorphism with S(E_i) = -E_i t_i^{-1}, here written
        -q^{(alpha_i, alpha_i)} K_{-tau_i} E_i, and S(K_lam) = K_{-lam}.
        """
        lam, e = mono
        out: list[tuple[tuple[DualVector, Word], ScalarQ]] = [((self._zero_dual, ()), ONE)]
        for i in reversed(e):
            tau = self.datum.t_indices[i]
            cart = tuple(-x for x in tau)
            coef = -ScalarQ.q_power(self.datum.pairing[i][i])
            nxt = []
            for (m, c) in out:
                for (m3, c3) in self._bmono_mul(m, (cart, (i,))):
                    nxt.append((m3, c * coef * c3))
            out = nxt
        final = []
        for (m, c) in out:
            for (m2, c2) in self._bmono_mul(m, (tuple(-x for x in lam), ())):
                final.append((m2, c * c2))
        return final

    def drinfeld_reorder(self, e_word: Sequence[int], f_word: Sequence[int]) -> UqElement:
        """E-word * F-word computed through the double; must agree with multiply."""
        e_word = tuple(e_word)
        f_word = tuple(f_word)
        if not self.is_reduced(e_word) or not self.is_reduced(f_word):
            raise ConfigError("drinfeld_reorder expects Nichols-reduced words")
        b0 = (self._zero_dual, e_word)
        c0 = (f_word, (0,) * self.datum.rank)
        out = UqElement()
        for (b1, bmid, c_outer) in self._delta_b(b0):
            for (b2, b3, c_inner) in self._delta_b(bmid):
                for (c1, cmid, cc_outer) in self._delta_c(c0):
                    for (c2, c3, cc_inner) in self._delta_c(cmid):
                        p3 = self.double_pairing_mono(b3, c3)
                        if p3.is_zero():
                            continue
                        p1 = ZERO
                        for (bs, cs) in self._b_antipode(b1):
                            contrib = self.double_pairing_mono(bs, c1)
                            if not contrib.is_zero():
                                p1 = p1 + cs * contrib
                        if p1.is_zero():
                            continue
                        # middle legs, already normal ordered: c2 . b2
                        fw, n = c2
                        lam_c = [0] * self.datum.lattice_rank
                        for i, m in enumerate(n):
                            for k, x in enumerate(self.datum.t_indices[i]):
                                lam_c[k] += m * x
                        lam_b, ew = b2
                        lam = tuple(a + bb for a, bb in zip(lam_c, lam_b))
                        coef = c_outer * c_inner * cc_outer * cc_inner * p1 * p3
                        out.add_term((fw, lam, ew), coef)
        return out


# ---------------------------------------------------------------------------
# Hopf axiom checks (used by tests and the CLI hopf-check subcommand)
# ---------------------------------------------------------------------------

def tensor_square_multiply(ctx: UqContext, a: Mapping[tuple[Term, Term], ScalarQ],
                           b: Mapping[tuple[Term, Term], ScalarQ]) -> dict[tuple[Term, Term], ScalarQ]:
    out: dict[tuple[Term, Term], ScalarQ] = {}
    for (a1, a2), ca in a.items():
        for (b1, b2), cb in b.items():
            left = ctx.multiply(UqElement({a1: ONE}), UqElement({b1: ONE}))
            right = ctx.multiply(UqElement({a2: ONE}), UqElement({b2: ONE}))
            for t1, c1 in left.terms.items():
                for t2, c2 in right.terms.items():
                    add_term(out, (t1, t2), ca * cb * c1 * c2)
    return out


def check_coproduct_multiplicative(ctx: UqContext, x: UqElement, y: UqElement) -> bool:
    lhs = ctx.coproduct(ctx.multiply(x, y))
    rhs = tensor_square_multiply(ctx, ctx.coproduct(x), ctx.coproduct(y))
    return lhs == rhs


def check_counit(ctx: UqContext, x: UqElement) -> bool:
    left = UqElement()
    right = UqElement()
    for (t1, t2), c in ctx.coproduct(x).items():
        e1 = ctx.counit(UqElement({t1: ONE}))
        if not e1.is_zero():
            right.add_term(t2, c * e1)
        e2 = ctx.counit(UqElement({t2: ONE}))
        if not e2.is_zero():
            left.add_term(t1, c * e2)
    return left == x and right == x


def check_coassociativity(ctx: UqContext, x: UqElement) -> bool:
    d = ctx.coproduct(x)
    lhs: dict[tuple[Term, Term, Term], ScalarQ] = {}
    for (t1, t2), c in d.items():
        for (u1, u2), c2 in ctx.coproduct(UqElement({t1: ONE})).items():
            add_term(lhs, (u1, u2, t2), c * c2)
    rhs: dict[tuple[Term, Term, Term], ScalarQ] = {}
    for (t1, t2), c in d.items():
        for (u1, u2), c2 in ctx.coproduct(UqElement({t2: ONE})).items():
            add_term(rhs, (t1, u1, u2), c * c2)
    return lhs == rhs


def check_antipode(ctx: UqContext, x: UqElement) -> bool:
    eps = ctx.counit(x)
    want = ctx.one().scale(eps)
    lhs = UqElement()
    rhs = UqElement()
    for (t1, t2), c in ctx.coproduct(x).items():
        lhs = lhs + ctx.multiply(ctx.antipode(UqElement({t1: ONE})), UqElement({t2: ONE})).scale(c)
        rhs = rhs + ctx.multiply(UqElement({t1: ONE}), ctx.antipode(UqElement({t2: ONE}))).scale(c)
    return lhs == want and rhs == want
