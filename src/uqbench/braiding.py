"""Braided vector spaces of diagonal type and the one braid-word engine.

A diagonal braiding on V with basis (v_i) is c(v_i (x) v_j) = b(i,j) v_j (x) v_i
for invertible scalars b(i,j); `nichols` builds its Nichols algebras on it.

A pair table lists the image of each label pair, table[x, y] =
((x2, y2), c), ...; `braid_slot` applies it to tensor slots (slot, slot+1)
of sparse vectors of label tuples inside a window, and
`braid_relation_holds` checks its braid relation on label triples.
`weightmods` gives the tables of the module braiding sigma and sigma^{-1},
which is a module map for the bar-coproduct (Lusztig, Introduction to
Quantum Groups, Thm 4.1.2; see `weightmods`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import CapError
from .scalars import ScalarQ
from .sparse import Sparse, add_term

Word = tuple[int, ...]

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


def braid_slot(table: Mapping, slot: int, vec: Mapping, window) -> dict:
    """Apply a pair map on tensor slots (slot, slot+1) of the key tuples of vec.

    table[x, y] lists the image of the pair as ((x2, y2), c).  Every image
    tuple must lie in `window`, or CapError is raised."""
    out: dict = {}
    for labels, c in vec.items():
        for (x, y), c2 in table[labels[slot], labels[slot + 1]]:
            new = labels[:slot] + (x, y) + labels[slot + 2:]
            if new not in window:
                raise CapError(f"braid image {new!r} leaves the depth window")
            add_term(out, new, c * c2)
    return out


def braid_relation_holds(table: Mapping, triples: Iterable, window) -> bool:
    """(t (x) 1)(1 (x) t)(t (x) 1) = (1 (x) t)(t (x) 1)(1 (x) t) on every
    label triple of `triples`, for the pair map t of `table`, with every
    image inside `window`."""
    def act(vec, slots):
        for slot in slots:
            vec = braid_slot(table, slot, vec, window)
        return vec

    return all(act({t: ONE}, (0, 1, 0)) == act({t: ONE}, (1, 0, 1))
               for t in triples)
