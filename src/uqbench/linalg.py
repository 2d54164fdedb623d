"""Small exact linear algebra over any field-like scalar (ScalarQ or Fraction).

Matrices are lists of lists.  Scalars must support +, -, * and /, and their
truth value must mean "nonzero" (int, Fraction and ScalarQ all qualify); one
is passed in, and the routines make every other entry they create from it
(zero = one - one).
Pivoting is always "first nonzero column, first usable row", which keeps
every reduction deterministic; callers encode their preferred pivot
preference by ordering rows/columns beforehand.

`rref` is the one elimination.  The Nichols radical runs it over Q(q) on
the Gram matrix of the right-extension candidates, the deformation solvers
over Q through `solve`, and `invert` is built on it.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

S = TypeVar("S")


def rref(rows: Sequence[Sequence[S]], one: S) -> tuple[list[list[S]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    Row operations touch only the nonzero columns of the pivot row.  Those
    are all at or right of the pivot column: every earlier column is either
    a pivot column, already cleared outside its own pivot row, or was zero
    from the current row down when it was passed and stays so.  Skipped
    entries would only have been multiplied or reduced by zero, so the
    result equals the dense elimination entry for entry.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        nz = [j for j in range(c, ncols) if prow[j]]
        inv = one / prow[c]
        for j in nz:
            prow[j] = inv * prow[j]
        for i in range(len(m)):
            row = m[i]
            if i != r and row[c]:
                f = row[c]
                for j in nz:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def solve(rows: Sequence[Sequence[S]], rhs: Sequence[S], ncols: int,
          one: S) -> list[S] | None:
    """One solution x (length `ncols`) of A x = b with free coordinates set
    to zero, or None when the system is inconsistent.  An empty system is
    solved by every x, so it returns the zero vector."""
    if len(rhs) != len(rows) or any(len(r) != ncols for r in rows):
        raise ValueError("solve: rows must have ncols entries, one rhs each")
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, one)
    if ncols in pivots:
        return None  # pivot in the rhs column: inconsistent
    x = [one - one] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def invert(rows: Sequence[Sequence[S]], one: S) -> list[list[S]]:
    n, zero = len(rows), one - one
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug, one)
    if pivots != list(range(n)):
        raise ArithmeticError("matrix is singular")
    return [row[n:] for row in red]

