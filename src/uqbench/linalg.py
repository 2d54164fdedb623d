"""Small exact linear algebra over any field-like scalar (ScalarQ or Fraction).

Matrices are lists of lists.  Scalars must support +, -, * and /, and their
truth value must mean "nonzero" (int, Fraction and ScalarQ all qualify);
zero and one are passed in for the entries the routines create.  Pivoting
is always "first nonzero column, first usable row", which keeps every
reduction deterministic; callers encode their preferred pivot preference by
ordering rows/columns beforehand.

`rref_laurent` is the same elimination for matrices over Z[q, q^-1], done
fraction-free on integers, so that no rational function is built.
`mat_mul` and `mat_eq` are the dense reference that the tests check the
sparse braid actions against.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence, TypeVar

S = TypeVar("S")


def rref(rows: Sequence[Sequence[S]], zero: S, one: S) -> tuple[list[list[S]], list[int]]:
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


Laurent = Mapping[int, int]


def rref_laurent(rows: Sequence[Sequence[Laurent]]) -> tuple[list[list[dict[int, int]]], list[int]]:
    """Fraction-free Gauss-Jordan elimination over Z[q, q^-1].

    Entries are Laurent polynomials {exponent: nonzero int coefficient}.
    Returns (D, pivots): the pivot rows of the fraction-free reduced form and
    the pivot columns, chosen as in `rref`.  D[r][pivots[r]] is the same
    polynomial d for every r, and D[r][c] / d equals entry (r, c) of `rref`
    over Q(q).

    Each row is shifted by a power of q into Z[q], which is a unit row
    scaling, and evaluated at X = 2^k (Kronecker substitution); elimination
    then runs on Python ints as in Bareiss, with every row other than the
    pivot row updated to (p*a - f*b) / prev.  Every entry reached that way
    is, up to sign, a minor of the shifted matrix, and for a polynomial
    matrix ||det M||_1 <= prod_i sum_j ||M_ij||_1 (expand det over
    permutations).  With every row factor at least 1, the product over all
    rows bounds every minor, so each coefficient of an entry lies strictly
    inside (-2^(k-2), 2^(k-2)).  An entry is therefore zero exactly when its
    value at X is, each division of values is the image of an exact division
    of polynomials, and balanced base-X digits recover the coefficients.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    bound = 1
    shifted = []
    for row in rows:
        lo = min((min(p) for p in row if p), default=0)
        shifted.append([{e - lo: c for e, c in p.items()} for p in row])
        bound *= max(1, sum(abs(c) for p in row for c in p.values()))
    k = bound.bit_length() + 2
    m = [[_kronecker_pack(p, k) for p in row] for row in shifted]
    pivots: list[int] = []
    prev = 1
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
        p = prow[c]
        for i in range(len(m)):
            if i == r:
                continue
            f = m[i][c]
            new = []
            for a, b in zip(m[i], prow):
                quo, rem = divmod(p * a - f * b, prev)
                if rem:
                    raise ArithmeticError("inexact fraction-free division")
                new.append(quo)
            m[i] = new
        prev = p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [[_kronecker_unpack(x, k) for x in m[i]] for i in range(r)], pivots


def _kronecker_pack(p: Laurent, k: int) -> int:
    """The value at q = 2^k of a polynomial (exponents >= 0)."""
    return sum(c << (e * k) for e, c in p.items())


def _kronecker_unpack(x: int, k: int) -> dict[int, int]:
    """Inverse of `_kronecker_pack` for coefficients of absolute value below
    2^(k-1): the balanced base-2^k digits of x."""
    out: dict[int, int] = {}
    base, half = 1 << k, 1 << (k - 1)
    e = 0
    while x:
        d = x & (base - 1)
        if d >= half:
            d -= base
        if d:
            out[e] = d
        x = (x - d) >> k
        e += 1
    return out


def solve(rows: Sequence[Sequence[S]], rhs: Sequence[S], ncols: int,
          zero: S, one: S) -> list[S] | None:
    """One solution x (length `ncols`) of A x = b with free coordinates set
    to zero, or None when the system is inconsistent.  An empty system is
    solved by every x, so it returns the zero vector."""
    if len(rhs) != len(rows) or any(len(r) != ncols for r in rows):
        raise ValueError("solve: rows must have ncols entries, one rhs each")
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, zero, one)
    if ncols in pivots:
        return None  # pivot in the rhs column: inconsistent
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def invert(rows: Sequence[Sequence[S]], zero: S, one: S) -> list[list[S]]:
    n = len(rows)
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug, zero, one)
    if pivots != list(range(n)):
        raise ArithmeticError("matrix is singular")
    return [row[n:] for row in red]


def mat_mul(a: Sequence[Sequence[S]], b: Sequence[Sequence[S]], zero: S) -> list[list[S]]:
    out = []
    for row in a:
        orow = []
        for j in range(len(b[0])):
            acc = zero
            for k, x in enumerate(row):
                if x != zero and b[k][j] != zero:
                    acc = acc + x * b[k][j]
            orow.append(acc)
        out.append(orow)
    return out


def mat_eq(a: Sequence[Sequence[S]], b: Sequence[Sequence[S]]) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))
