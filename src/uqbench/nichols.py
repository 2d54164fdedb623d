"""Nichols algebras of diagonal type via the radical of the extended bilinear form.

The braided tensor algebra T(V) carries the shuffle-type coproduct determined
by Delta(v) = 1 (x) v + v (x) 1 extended as an algebra map into the braided
tensor square.

The bilinear form starts from <v_i, v_j> = delta_ij / (q_i - q_i^{-1}) and
extends by <x y, z> = <x (x) y, Delta z> with <x (x) y, a (x) b> =
<x, a> <y, b> and no braiding twist.  Its radical per multidegree is the
kernel of the Gram matrix on words; the Nichols algebra is the quotient, with
dimension the Gram rank.  Basis words are the greedy lexicographic pivots of
the Gram elimination, so reduction is deterministic.

Every Gram entry of multidegree deg is prod_i <v_i, v_i>^{deg_i} times a
Laurent polynomial in q with integer coefficients, and scaling the rows by
that constant changes neither the pivots nor the reduced form.  So the Gram
matrix is kept as integer Laurent polynomials and eliminated fraction-free
(`linalg.rref_laurent`): exactly, with a coefficient bound on every minor
that makes the integer (Kronecker) encoding lossless.  The pivot words and
reductions are those of `linalg.rref` over Q(q); a rational function is
built only for the entries of the final reduction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .braiding import BraidedSpace, TensorElement, Word
from .errors import CapError, ConfigError
from .linalg import rref_laurent
from .rootdata import RootDatum
from .scalars import ScalarQ, q_binomial
from .sparse import add_term

ZERO = ScalarQ.zero()
ONE = ScalarQ.one()
_LAURENT_ONE: dict[int, int] = {0: 1}

Degree = tuple[int, ...]

TensorPair = dict[tuple[Word, Word], ScalarQ]


def diagonal_space(datum: RootDatum) -> BraidedSpace:
    """The braided vector space of the datum: b(i, j) = q^{(alpha_i, alpha_j)}."""
    coeff = tuple(
        tuple(ScalarQ.q_power(datum.pairing[i][j]) for j in range(datum.rank))
        for i in range(datum.rank)
    )
    return BraidedSpace(dim=datum.rank, coeff=coeff)


def words_of_degree(deg: Degree) -> list[Word]:
    """All arrangements of the multiset with deg[i] copies of letter i, lex sorted."""
    letters: list[int] = []
    for i, k in enumerate(deg):
        letters.extend([i] * k)
    return sorted(set(itertools.permutations(letters)))


def braided_coproduct(space: BraidedSpace, x: TensorElement) -> TensorPair:
    """Delta on T(V): for a word w, sum over position subsets S of
    beta_S * (w|_S (x) w|_{S^c}), where beta_S is the crossing scalar picked up
    by each chosen letter passing the earlier unchosen ones."""
    out: TensorPair = {}
    for w, coef in x.terms.items():
        n = len(w)
        for mask in range(1 << n):
            left, right = [], []
            beta = ONE
            for pos in range(n):
                if (mask >> pos) & 1:
                    for a in range(pos):
                        if not (mask >> a) & 1:
                            beta = beta * space.b(w[a], w[pos])
                    left.append(w[pos])
                else:
                    right.append(w[pos])
            add_term(out, (tuple(left), tuple(right)), coef * beta)
    return out


# ---------------------------------------------------------------------------
# The extended bilinear form and its radical
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairingSpec:
    """Diagonal generator pairings <v_i, v_i>; zero off the diagonal."""

    diag: tuple[ScalarQ, ...]

    @staticmethod
    def from_datum(datum: RootDatum) -> "PairingSpec":
        vals = []
        for d in datum.d:
            denom = ScalarQ.q_power(d) - ScalarQ.q_power(-d)
            vals.append(denom.inverse())
        return PairingSpec(diag=tuple(vals))


class NicholsContext:
    """Caches Gram matrices, pivot bases, and reductions for one datum.

    The degree cap bounds the total degree of any word entering the pairing
    or reduction; crossing it raises CapError rather than truncating.
    """

    def __init__(self, datum: RootDatum, cap: int = 8):
        self.datum = datum
        self.space = diagonal_space(datum)
        self.pairing = PairingSpec.from_datum(datum)
        self.cap = cap
        self._pair_memo: dict[tuple[Word, Word], dict[int, int]] = {}
        self._basis_cache: dict[Degree, "NicholsBasis"] = {}

    # -- pairing ------------------------------------------------------------

    def pairing_eval(self, x: TensorElement | Word, y: TensorElement | Word) -> ScalarQ:
        if isinstance(x, tuple):
            x = TensorElement.basis(x)
        if isinstance(y, tuple):
            y = TensorElement.basis(y)
        out = ZERO
        for wx, cx in x.terms.items():
            if len(wx) > self.cap:
                raise CapError(f"word degree {len(wx)} above cap {self.cap}")
            for wy, cy in y.terms.items():
                if len(wy) > self.cap:
                    raise CapError(f"word degree {len(wy)} above cap {self.cap}")
                v = self._pair_words(wx, wy)
                if v:
                    scale = self._gram_scale(self.space.word_degree(wx))
                    out = out + cx * cy * scale * ScalarQ(v)
        return out

    def _gram_scale(self, deg: Degree) -> ScalarQ:
        """prod_i <v_i, v_i>^{deg_i}, the factor every pairing of degree deg carries."""
        out = ONE
        for d, k in zip(self.pairing.diag, deg):
            out = out * d ** k
        return out

    def _pair_words(self, x: Word, y: Word) -> dict[int, int]:
        """<x, y> divided by `_gram_scale` of its degree: a Laurent polynomial
        {exponent: int} with integer coefficients.  Results are shared through
        the memo and must not be mutated."""
        if len(x) != len(y):
            return {}
        if not x:
            return _LAURENT_ONE
        if self.space.word_degree(x) != self.space.word_degree(y):
            return {}
        key = (x, y)
        hit = self._pair_memo.get(key)
        if hit is not None:
            return hit
        # <v_i x', y> = sum over positions of y carrying letter i, with the
        # crossing weight q^{sum_a (alpha_{y[a]}, alpha_i)} of that letter
        # moving past the letters y[a] before it to the front of y.
        i, rest = x[0], x[1:]
        pairing = self.datum.pairing
        acc: dict[int, int] = {}
        shift = 0
        for pos, letter in enumerate(y):
            if letter == i:
                for e, c in self._pair_words(rest, y[:pos] + y[pos + 1:]).items():
                    e += shift
                    s = acc.get(e, 0) + c
                    if s:
                        acc[e] = s
                    else:
                        del acc[e]
            shift += pairing[letter][i]
        self._pair_memo[key] = acc
        return acc

    # -- Gram data per multidegree -------------------------------------------

    def graded_gram(self, deg: Degree) -> tuple[list[Word], list[list[dict[int, int]]]]:
        """The words of degree deg and their Gram matrix divided by `_gram_scale`."""
        if sum(deg) > self.cap:
            raise CapError(f"multidegree {deg} has total degree above cap {self.cap}")
        words = words_of_degree(deg)
        gram = [[self._pair_words(u, w) for w in words] for u in words]
        return words, gram

    def nichols_basis(self, deg: Degree) -> "NicholsBasis":
        hit = self._basis_cache.get(deg)
        if hit is not None:
            return hit
        words, gram = self.graded_gram(deg)
        red, pivots = rref_laurent(gram)
        basis_words = [words[c] for c in pivots]
        pivot_set = set(pivots)
        reduction: dict[Word, dict[Word, ScalarQ]] = {}
        for c, w in enumerate(words):
            if c in pivot_set:
                reduction[w] = {w: ONE}
            else:
                expr: dict[Word, ScalarQ] = {}
                for r, pc in enumerate(pivots):
                    if red[r][c]:
                        expr[words[pc]] = ScalarQ(red[r][c], red[r][pc])
                reduction[w] = expr
        nb = NicholsBasis(degree=deg, words=tuple(words), basis_words=tuple(basis_words),
                          reduction=reduction)
        self._basis_cache[deg] = nb
        return nb

    def nichols_dim(self, deg: Degree) -> int:
        return len(self.nichols_basis(deg).basis_words)

    def radical_basis(self, deg: Degree) -> list[TensorElement]:
        """One radical vector per non-pivot word w: w minus its reduction."""
        nb = self.nichols_basis(deg)
        out = []
        for w in nb.words:
            red = nb.reduction[w]
            if w in red:
                continue
            out.append(TensorElement({u: ONE if u == w else -red[u]
                                      for u in nb.words if u == w or u in red}))
        return out

    def reduce_mod_radical(self, x: TensorElement) -> TensorElement:
        """Canonical representative of x in the span of pivot basis words.

        Handles inhomogeneous input degree by degree."""
        out = TensorElement()
        for w, coef in x.terms.items():
            if len(w) > self.cap:
                raise CapError(f"word degree {len(w)} above cap {self.cap}")
            deg = self.space.word_degree(w)
            nb = self.nichols_basis(deg)
            for bw, c in nb.reduction[w].items():
                out.add_term(bw, coef * c)
        return out

    def is_in_radical(self, x: TensorElement) -> bool:
        return self.reduce_mod_radical(x).is_zero()


@dataclass(frozen=True)
class NicholsBasis:
    """Pivot words of one multidegree plus the reduction of every word."""

    degree: Degree
    words: tuple[Word, ...]
    basis_words: tuple[Word, ...]
    reduction: Mapping[Word, Mapping[Word, ScalarQ]]


def serre_element(datum: RootDatum, i: int, j: int) -> TensorElement:
    """The quantum Serre element
    sum_k (-1)^k [1-a_ij choose k]_{q_i} v_i^{1-a_ij-k} v_j v_i^k  (i != j)."""
    if i == j:
        raise ConfigError("serre element needs distinct indices")
    a = datum.cartan[i][j]
    n = 1 - a
    di = datum.d[i]
    out = TensorElement()
    for k in range(n + 1):
        coef = q_binomial(n, k, di)
        if k % 2 == 1:
            coef = -coef
        word = (i,) * (n - k) + (j,) + (i,) * k
        out.add_term(word, coef)
    return out
