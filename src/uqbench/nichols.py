"""Nichols algebras of diagonal type via the radical of the extended bilinear form.

V has basis v_i, one letter per simple root, and the diagonal braiding
c(v_i (x) v_j) = q^{(alpha_i, alpha_j)} v_j (x) v_i that the datum's
pairing fixes.  The braided tensor algebra T(V) carries the shuffle-type
coproduct determined by Delta(v) = 1 (x) v + v (x) 1 extended as an algebra
map into the braided tensor square; `_pair_words` reads its crossing
weights from `datum.pairing`.  An element of T(V) is a plain dict
{word: ScalarQ} of tensor words v_{i1} (x) ... (x) v_{in}, built with
`sparse.add_term` and `sparse.add_scaled`.

The bilinear form starts from <v_i, v_j> = delta_ij / (q_i - q_i^{-1}) and
extends by <x y, z> = <x (x) y, Delta z> with <x (x) y, a (x) b> =
<x, a> <y, b> and no braiding twist.  It is symmetric, and its radical is a
graded ideal; the Nichols algebra is the quotient, with dimension per
multidegree the Gram rank.  Basis words are the greedy lexicographic pivots:
a word is a basis word when it is not congruent, modulo the radical, to a
combination of lex-earlier words.  So reduction is deterministic.

Only the right extensions need the Gram matrix.  A non-basis word w' of
degree beta - alpha_i is congruent to a combination of earlier words, and
since the radical is an ideal so is w' i: every basis word of beta is b i
with b a basis word of beta - alpha_i (Kharchenko 1999).  These words b i
are the candidates of beta.  Congruent words have equal Gram rows, so every
row is a combination of candidate rows, and `nichols_basis` eliminates the
candidate Gram matrix alone with `linalg.rref`: its pivots are the basis
words and its columns the reductions of the candidates.

Other reductions are built on demand and kept by `reduce_word`: a
non-candidate w' i reduces as (reduce w') i, a combination of candidates,
followed by the candidate reductions.  Dimensions never build one.

Every Gram entry of multidegree deg is prod_i <v_i, v_i>^{deg_i} times a
Laurent polynomial in q with integer coefficients (`_pair_words`).  Scaling
the Gram matrix by that constant changes neither the pivots nor the reduced
form, so it is left out of the elimination.  `dual_basis` puts it back when
it inverts the Gram of the basis words of deg for the coefficients of the
quasi-R-matrix; no other module reads the integer Gram.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapError, ConfigError
from .linalg import invert, rref
from .rootdata import RootDatum
from .scalars import ScalarQ, q_binomial, q_diff
from .sparse import add_scaled, add_term

ONE = ScalarQ.one()
_LAURENT_ONE: dict[int, int] = {0: 1}

Word = tuple[int, ...]
Degree = tuple[int, ...]


def words_of_degree(deg: Degree) -> list[Word]:
    """All arrangements of the multiset with deg[i] copies of letter i, lex sorted."""
    if not any(deg):
        return [()]
    return [(i,) + w for i, k in enumerate(deg) if k > 0
            for w in words_of_degree(_lower(deg, i))]


def _lower(deg: Degree, i: int) -> Degree:
    """deg - alpha_i."""
    return deg[:i] + (deg[i] - 1,) + deg[i + 1:]


def word_degree(w: Word, rank: int) -> Degree:
    """The multidegree of w: how often each letter 0..rank-1 occurs."""
    return tuple(w.count(i) for i in range(rank))


def multidegrees(rank: int, total: int):
    """The multidegrees of `rank` letters with the given total, in lex order."""
    if rank == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in multidegrees(rank - 1, total - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# The extended bilinear form and its radical
# ---------------------------------------------------------------------------

class NicholsContext:
    """Caches pairings, pivot bases and reductions for one datum.

    The degree cap bounds the total degree of any word entering the pairing
    or reduction; crossing it raises CapError rather than truncating.
    """

    def __init__(self, datum: RootDatum, cap: int = 8):
        self.datum = datum
        self.cap = cap
        self._pair_memo: dict[tuple[Word, Word], dict[int, int]] = {}
        self._basis_cache: dict[Degree, "NicholsBasis"] = {}
        self._reductions: dict[Word, dict[Word, ScalarQ]] = {}
        self._dual_memo: dict[Degree, list[list[ScalarQ]]] = {}

    # -- pairing ------------------------------------------------------------

    def _pair_words(self, x: Word, y: Word) -> dict[int, int]:
        """<x, y> for two words of one degree deg, divided by the factor
        prod_i <v_i, v_i>^{deg_i} every pairing of that degree carries:
        a Laurent polynomial {exponent: int} with positive integer
        coefficients.  Results are shared through the memo and must not be
        mutated."""
        if not x:
            return _LAURENT_ONE
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
                # every coefficient is positive: no sum cancels to zero
                for e, c in self._pair_words(rest, y[:pos] + y[pos + 1:]).items():
                    e += shift
                    acc[e] = acc.get(e, 0) + c
            shift += pairing[letter][i]
        self._pair_memo[key] = acc
        return acc

    # -- basis and reduction per multidegree ----------------------------------

    def graded_gram(self, deg: Degree) -> tuple[list[Word], list[list[dict[int, int]]]]:
        """The candidate words b i of degree deg, b a basis word of
        deg - alpha_i, lex sorted, and their integer Gram matrix
        (`_pair_words`; its entries are shared and must not be mutated)."""
        if sum(deg) > self.cap:
            raise CapError(f"multidegree {deg} has total degree above cap {self.cap}")
        if not any(deg):
            words = [()]
        else:
            words = sorted(b + (i,) for i, k in enumerate(deg) if k > 0
                           for b in self.nichols_basis(_lower(deg, i)).basis_words)
        return words, [[self._pair_words(u, w) for w in words] for u in words]

    def nichols_basis(self, deg: Degree) -> "NicholsBasis":
        """The basis words of degree deg; reduces the candidates on the way."""
        hit = self._basis_cache.get(deg)
        if hit is not None:
            return hit
        words, gram = self.graded_gram(deg)
        red, pivots = rref([[ScalarQ(e) for e in row] for row in gram], ONE)
        for c, w in enumerate(words):
            self._reductions[w] = {words[pc]: red[r][c]
                                   for r, pc in enumerate(pivots) if red[r][c]}
        nb = NicholsBasis(basis_words=tuple(words[c] for c in pivots))
        self._basis_cache[deg] = nb
        return nb

    def nichols_dim(self, deg: Degree) -> int:
        return len(self.nichols_basis(deg).basis_words)

    def dual_basis(self, beta: Degree) -> list[list[ScalarQ]]:
        """G^{-1} for G[u][b] = <E_u, F_b> = (-1)^{|beta|} <u, b> on the basis
        words of beta, in order, so E_{b*} = sum_u (G^{-1})[b][u] E_u.  G is
        (-1)^{|beta|} prod_i (q_i - q_i^{-1})^{-beta_i} times the integer Gram
        of `_pair_words`, which is what gets inverted.  Shared through the
        memo; must not be mutated."""
        hit = self._dual_memo.get(beta)
        if hit is not None:
            return hit
        words = self.nichols_basis(beta).basis_words
        inv = invert([[ScalarQ(self._pair_words(u, b)) for b in words]
                      for u in words], ONE)
        scale = ONE if sum(beta) % 2 == 0 else -ONE
        for d, k in zip(self.datum.d, beta):
            scale = scale * q_diff(d) ** k
        hit = self._dual_memo[beta] = [[scale * c for c in row] for row in inv]
        return hit

    def reduce_word(self, w: Word) -> dict[Word, ScalarQ]:
        """{basis word: coefficient}, basis words in lex order: the
        combination that w is congruent to modulo the radical.  Shared
        through the memo; must not be mutated."""
        hit = self._reductions.get(w)
        if hit is not None:
            return hit
        if len(w) > self.cap:
            raise CapError(f"word degree {len(w)} above cap {self.cap}")
        self.nichols_basis(word_degree(w, self.datum.rank))
        hit = self._reductions.get(w)
        if hit is None:
            # w = w' i is no candidate: (reduce w') i is a combination of
            # candidates b i, whose reductions are known now
            tail = w[-1:]
            acc: dict[Word, ScalarQ] = {}
            for b, a in self.reduce_word(w[:-1]).items():
                add_scaled(acc, self._reductions[b + tail].items(), a)
            hit = self._reductions[w] = {u: acc[u] for u in sorted(acc)}
        return hit

    def reduce_mod_radical(self, x: dict[Word, ScalarQ]) -> dict[Word, ScalarQ]:
        """Canonical representative of x in the span of pivot basis words.

        Handles inhomogeneous input degree by degree."""
        out: dict[Word, ScalarQ] = {}
        for w, coef in x.items():
            add_scaled(out, self.reduce_word(w).items(), coef)
        return out


@dataclass(frozen=True)
class NicholsBasis:
    """The pivot words of one multidegree, lex sorted."""

    basis_words: tuple[Word, ...]


def serre_element(datum: RootDatum, i: int, j: int) -> dict[Word, ScalarQ]:
    """The quantum Serre element
    sum_k (-1)^k [1-a_ij choose k]_{q_i} v_i^{1-a_ij-k} v_j v_i^k  (i != j)."""
    if i == j:
        raise ConfigError("serre element needs distinct indices")
    a = datum.cartan[i][j]
    n = 1 - a
    di = datum.d[i]
    out: dict[Word, ScalarQ] = {}
    for k in range(n + 1):
        coef = q_binomial(n, k, di)
        if k % 2 == 1:
            coef = -coef
        word = (i,) * (n - k) + (j,) + (i,) * k
        add_term(out, word, coef)
    return out
