"""Small exact linear algebra over any field-like scalar (ScalarQ or Fraction).

Matrices are lists of lists.  Scalars must support +, -, * and /, and their
truth value must mean "nonzero" (int, Fraction and ScalarQ all qualify); one
is passed in, and the routines make every other entry they create from it
(zero = one - one).
Pivoting is always "first nonzero column, first usable row", which keeps
every reduction deterministic.  The reduced row echelon form depends only
on the row space, so only the column order sets the pivots, and so the
solution `solve` picks; row order and repeated rows change neither, only
the work (a sparse pivot row touches few columns).  Callers encode their
pivot preference by ordering the columns.

`rref` is the one elimination.  The Nichols radical runs it over Q(q) on
the Gram matrix of the right-extension candidates, and `invert` is built on
it.  The deformation solvers reach it over Q through `solve`, which splits
its system into connected components (rows linked by a shared nonzero
column) and eliminates only the components its right-hand side reaches:
their systems are sparse, with few nonzero right-hand-side entries.
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
    solved by every x, so it returns the zero vector.

    Two rows are in one component when they share a nonzero column, and
    `rref` runs only on the components that hold a nonzero right-hand side,
    each on its own columns with rows and columns in their original order.
    The result is the whole system's, value for value: rows of different
    components share no column, so the reduced row echelon form of A is the
    direct sum of theirs, and pivots and free coordinates are per component.
    A component with a zero right-hand side is homogeneous, so consistent
    and solved by 0 with its free coordinates zero; any other is
    inconsistent exactly when its own right-hand-side column is a pivot.
    A zero row with a nonzero right-hand side is inconsistent by itself."""
    if len(rhs) != len(rows) or any(len(r) != ncols for r in rows):
        raise ValueError("solve: rows must have ncols entries, one rhs each")
    parent = list(range(ncols))  # union-find forest over the columns

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    supported = []  # (first nonzero column, row, rhs) of each nonzero row
    for row, b in zip(rows, rhs):
        cols = [j for j, a in enumerate(row) if a]
        if not cols:
            if b:
                return None
            continue
        root = find(cols[0])
        for j in cols[1:]:
            parent[find(j)] = root
        supported.append((cols[0], row, b))
    roots = [find(c) for c, _, _ in supported]
    x = [one - one] * ncols
    for root in {r for r, (_, _, b) in zip(roots, supported) if b}:
        comp = [j for j in range(ncols) if find(j) == root]
        block = [[row[j] for j in comp] + [b]
                 for r, (_, row, b) in zip(roots, supported) if r == root]
        red, pivots = rref(block, one)
        if len(comp) in pivots:
            return None  # pivot in the rhs column: inconsistent
        for r, pc in enumerate(pivots):
            x[comp[pc]] = red[r][-1]
    return x


def invert(rows: Sequence[Sequence[S]], one: S) -> list[list[S]]:
    n, zero = len(rows), one - one
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug, one)
    if pivots != list(range(n)):
        raise ArithmeticError("matrix is singular")
    return [row[n:] for row in red]

