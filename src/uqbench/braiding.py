"""Tensor words and the one braid-word engine.

`TensorElement` holds combinations of tensor words v_{i1} (x) ... (x) v_{in},
the elements of the tensor algebra that `nichols` reduces modulo its radical;
`nichols` reads the diagonal braiding of V from the datum's pairing.

A pair table lists the image of each label pair, table[x, y] =
((x2, y2), c), ...; `braid_slot` applies it to tensor slots (slot, slot+1)
of sparse vectors of label tuples inside a window, and
`braid_relation_holds` checks its braid relation on label triples.
`weightmods` gives the tables of the module braiding sigma and sigma^{-1},
which is a module map for the bar-coproduct (Lusztig, Introduction to
Quantum Groups, Thm 4.1.2; see `weightmods`).
"""

from __future__ import annotations

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
