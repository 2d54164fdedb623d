"""Braided vector spaces of diagonal type and braid group actions on tensor powers.

A diagonal braiding on V with basis (v_i) is c(v_i (x) v_j) = b(i,j) v_j (x) v_i
for invertible scalars b(i,j).  Such a braiding always satisfies the hexagon
identity; `check_hexagon` verifies it anyway by exact matrix arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .scalars import ScalarQ
from .sparse import Sparse

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

    def crossing(self, left: Word, right: Word) -> ScalarQ:
        """Product of b(a, b) over all letters a of `left` and b of `right`:
        the scalar picked up when the whole of `left` braids past `right`."""
        out = ONE
        for a in left:
            for b in right:
                out = out * self.coeff[a][b]
        return out


def _diagonal_as_matrix(space: BraidedSpace) -> list[list[ScalarQ]]:
    d = space.dim
    m = [[ZERO] * (d * d) for _ in range(d * d)]
    for i in range(d):
        for j in range(d):
            m[j * d + i][i * d + j] = space.b(i, j)
    return m


def _lift(c: list[list[ScalarQ]], dim: int, slot: int) -> list[list[ScalarQ]]:
    """c acting on factors (slot, slot+1) of V^(x)3 as an exact dim^3 matrix."""
    n = dim ** 3
    m = [[ZERO] * n for _ in range(n)]
    for a in range(dim):
        for b in range(dim):
            for cix in range(dim):
                col = (a * dim + b) * dim + cix
                if slot == 0:
                    for k in range(dim):
                        for l in range(dim):
                            x = c[k * dim + l][a * dim + b]
                            if not x.is_zero():
                                m[(k * dim + l) * dim + cix][col] = x
                else:
                    for k in range(dim):
                        for l in range(dim):
                            x = c[k * dim + l][b * dim + cix]
                            if not x.is_zero():
                                m[(a * dim + k) * dim + l][col] = x
    return m


def check_hexagon(space: BraidedSpace) -> bool:
    """Exact check of (c12)(c23)(c12) = (c23)(c12)(c23) on V (x) V (x) V."""
    from .linalg import mat_eq, mat_mul

    c = _diagonal_as_matrix(space)
    c12 = _lift(c, space.dim, 0)
    c23 = _lift(c, space.dim, 1)
    lhs = mat_mul(mat_mul(c12, c23, ZERO), c12, ZERO)
    rhs = mat_mul(mat_mul(c23, c12, ZERO), c23, ZERO)
    return mat_eq(lhs, rhs)


def braid_generator(space: BraidedSpace, n: int, i: int, x: TensorElement) -> TensorElement:
    """sigma_i = Id^(i-1) (x) c (x) Id^(n-i-1) applied to x in V^(x)n; i is 1-based."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for {n} strands")
    out = TensorElement()
    for w, coef in x.terms.items():
        if len(w) != n:
            raise ValueError("word length does not match strand count")
        a, b = w[i - 1], w[i]
        nw = w[: i - 1] + (b, a) + w[i + 1:]
        out.add_term(nw, coef * space.b(a, b))
    return out


def braid_generator_inverse(space: BraidedSpace, n: int, i: int, x: TensorElement) -> TensorElement:
    out = TensorElement()
    for w, coef in x.terms.items():
        if len(w) != n:
            raise ValueError("word length does not match strand count")
        a, b = w[i - 1], w[i]
        nw = w[: i - 1] + (b, a) + w[i + 1:]
        out.add_term(nw, coef / space.b(b, a))
    return out


def braid_word_action(space: BraidedSpace, n: int, word: Sequence[int], x: TensorElement) -> TensorElement:
    """Apply a braid word given as signed generator indices (negative = inverse),
    leftmost letter acting first."""
    out = x
    for g in word:
        if g == 0:
            raise ValueError("generator indices are nonzero signed integers")
        if g > 0:
            out = braid_generator(space, n, g, out)
        else:
            out = braid_generator_inverse(space, n, -g, out)
    return out


def braid_generator_matrix(space: BraidedSpace, n: int, i: int) -> tuple[list[Word], list[list[ScalarQ]]]:
    """sigma_i as an exact matrix over the lexicographic basis of words of length n."""
    import itertools

    words = [tuple(w) for w in itertools.product(range(space.dim), repeat=n)]
    index = {w: k for k, w in enumerate(words)}
    m = [[ZERO] * len(words) for _ in range(len(words))]
    for w in words:
        img = braid_generator(space, n, i, TensorElement.basis(w))
        for nw, c in img.terms.items():
            m[index[nw]][index[w]] = c
    return words, m
