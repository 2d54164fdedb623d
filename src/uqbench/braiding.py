"""Braided vector spaces of diagonal type and braid group actions on tensor powers.

A diagonal braiding on V with basis (v_i) is c(v_i (x) v_j) = b(i,j) v_j (x) v_i
for invertible scalars b(i,j).

One engine applies braid words.  A pair table lists the image of each label
pair, table[x, y] = ((x2, y2), c), ...; `braid_slot` applies it to tensor
slots (slot, slot+1) of sparse vectors of label tuples, and
`braid_relation_holds` checks its braid relation on label triples.  A
diagonal space gives the tables of c and c^{-1}; `weightmods` gives those of
the module braiding sigma and sigma^{-1}.  A diagonal braiding always
satisfies the hexagon identity; `check_hexagon` verifies it anyway, sparsely,
on every basis word of V (x) V (x) V.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import CapError
from .scalars import ScalarQ
from .sparse import Sparse, add_term

Word = tuple[int, ...]

ZERO = ScalarQ.zero()
ONE = ScalarQ.one()


class TensorElement(Sparse):
    """A finite k-linear combination of pure tensor words v_{i1} (x) ... (x) v_{in}.

    Stored sparsely as {word: ScalarQ}.  Words of an element may span several
    lengths or multidegrees; operations that need homogeneity must check."""

    __slots__ = ()

    @staticmethod
    def basis(word: Sequence[int]) -> "TensorElement":
        return TensorElement({tuple(word): ONE})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"({c})*{''.join(f'v{i}' for i in w) or '1'}" for w, c in sorted(self.terms.items())]
        return " + ".join(bits)


@dataclass(frozen=True)
class BraidedSpace:
    """Diagonal braided vector space: labels 0..dim-1 and the coefficient table.

    `coeff[i][j]` is the scalar b(i,j) in c(v_i (x) v_j) = b(i,j) v_j (x) v_i.
    `degrees[i]` is the multidegree of v_i in N^I (standard basis by default).
    """

    dim: int
    coeff: tuple[tuple[ScalarQ, ...], ...]
    degrees: tuple[tuple[int, ...], ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.degrees is None:
            std = tuple(tuple(1 if k == i else 0 for k in range(self.dim)) for i in range(self.dim))
            object.__setattr__(self, "degrees", std)
        for row in self.coeff:
            for c in row:
                if c.is_zero():
                    raise ValueError("braiding coefficients must be invertible")

    def b(self, i: int, j: int) -> ScalarQ:
        return self.coeff[i][j]

    def word_degree(self, word: Word) -> tuple[int, ...]:
        n = len(self.degrees[0])
        out = [0] * n
        for i in word:
            for k, d in enumerate(self.degrees[i]):
                out[k] += d
        return tuple(out)


def braid_slot(table: Mapping, slot: int, vec: Mapping, window=None) -> dict:
    """Apply a pair map on tensor slots (slot, slot+1) of the key tuples of vec.

    table[x, y] lists the image of the pair as ((x2, y2), c).  When a window
    is given, every image tuple must lie in it, or CapError is raised."""
    out: dict = {}
    for labels, c in vec.items():
        for (x, y), c2 in table[labels[slot], labels[slot + 1]]:
            new = labels[:slot] + (x, y) + labels[slot + 2:]
            if window is not None and new not in window:
                raise CapError(f"braid image {new!r} leaves the depth window")
            add_term(out, new, c * c2)
    return out


def braid_relation_holds(table: Mapping, triples: Iterable, window=None) -> bool:
    """(t (x) 1)(1 (x) t)(t (x) 1) = (1 (x) t)(t (x) 1)(1 (x) t) on every
    label triple of `triples`, for the pair map t of `table`."""
    def act(vec, slots):
        for slot in slots:
            vec = braid_slot(table, slot, vec, window)
        return vec

    return all(act({t: ONE}, (0, 1, 0)) == act({t: ONE}, (1, 0, 1))
               for t in triples)


def _pair_table(space: BraidedSpace, inverse: bool = False) -> dict:
    """c, or c^{-1}, as a pair table: (a, b) -> v_b (x) v_a times b(a, b),
    or times 1/b(b, a)."""
    d = range(space.dim)
    if inverse:
        return {(a, b): (((b, a), space.b(b, a).inverse()),) for a in d for b in d}
    return {(a, b): (((b, a), space.b(a, b)),) for a in d for b in d}


def check_hexagon(space: BraidedSpace) -> bool:
    """Exact check of (c12)(c23)(c12) = (c23)(c12)(c23) on V (x) V (x) V."""
    return braid_relation_holds(_pair_table(space),
                                itertools.product(range(space.dim), repeat=3))


def _generator_index(i: int, n: int) -> int:
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for {n} strands")
    return i


def braid_generator(space: BraidedSpace, n: int, i: int, x: TensorElement) -> TensorElement:
    """sigma_i = Id^(i-1) (x) c (x) Id^(n-i-1) applied to x in V^(x)n; i is 1-based."""
    return braid_word_action(space, n, (_generator_index(i, n),), x)


def braid_generator_inverse(space: BraidedSpace, n: int, i: int, x: TensorElement) -> TensorElement:
    """sigma_i^{-1} applied to x in V^(x)n; i is 1-based."""
    return braid_word_action(space, n, (-_generator_index(i, n),), x)


def braid_word_action(space: BraidedSpace, n: int, word: Sequence[int], x: TensorElement) -> TensorElement:
    """Apply a braid word given as signed generator indices (negative = inverse),
    leftmost letter acting first."""
    out = x.terms
    for g in word:
        slot = _generator_index(abs(g), n) - 1
        if any(len(w) != n for w in out):
            raise ValueError("word length does not match strand count")
        out = braid_slot(_pair_table(space, g < 0), slot, out)
    return TensorElement(out)


def braid_generator_matrix(space: BraidedSpace, n: int, i: int) -> tuple[list[Word], list[list[ScalarQ]]]:
    """sigma_i as an exact matrix over the lexicographic basis of words of length n."""
    words = [tuple(w) for w in itertools.product(range(space.dim), repeat=n)]
    index = {w: k for k, w in enumerate(words)}
    m = [[ZERO] * len(words) for _ in range(len(words))]
    for w in words:
        img = braid_generator(space, n, i, TensorElement.basis(w))
        for nw, c in img.terms.items():
            m[index[nw]][index[w]] = c
    return words, m
