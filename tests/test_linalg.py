"""Exact elimination over the rationals against sympy's reduced row echelon
form: `rref` touches only the pivot row's nonzero columns, so random sparse
matrices with zero rows, repeated rows and rank deficiency check that it
still returns the dense result, pivots and all.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqbench.linalg import rref, solve

sympy = pytest.importorskip("sympy")

ZERO, ONE = Fraction(0), Fraction(1)

entries = st.one_of(
    st.just(ZERO), st.just(ZERO),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def sparse_matrices(draw, min_rows=0):
    """0-8 x 0-8 rational matrices built from a few random base rows: each
    row is a base row, a zero row or a combination of two base rows."""
    ncols = draw(st.integers(0, 8))
    nrows = draw(st.integers(min_rows, 8))
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["base", "zero", "combo"]))
        if kind == "zero":
            rows.append([ZERO] * ncols)
            continue
        first = base[draw(st.integers(0, len(base) - 1))]
        if kind == "base":
            rows.append(list(first))
            continue
        second = base[draw(st.integers(0, len(base) - 1))]
        a, b = draw(entries), draw(entries)
        rows.append([a * x + b * y for x, y in zip(first, second)])
    return rows


def _sympy_rref(rows, ncols):
    mat = sympy.Matrix(len(rows), ncols,
                       [sympy.Rational(x.numerator, x.denominator)
                        for row in rows for x in row])
    red, pivots = mat.rref()
    return ([[Fraction(int(x.p), int(x.q)) for x in row]
             for row in red.tolist()], list(pivots))


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_rref_matches_sympy(rows):
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref(rows, ZERO, ONE)
    want_red, want_pivots = _sympy_rref(rows, ncols)
    assert pivots == want_pivots
    assert red == (want_red if rows else [])


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(min_rows=1), st.data())
def test_solve_none_exactly_when_rhs_is_a_pivot(rows, data):
    # solve needs at least one row: it reads the column count off rows[0]
    ncols = len(rows[0])
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    if data.draw(st.booleans()):
        # a right-hand side in the column space
        coeffs = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = [sum((a * c for a, c in zip(row, coeffs)), ZERO)
               for row in rows]
    aug = [row + [b] for row, b in zip(rows, rhs)]
    _, aug_pivots = _sympy_rref(aug, ncols + 1)
    x = solve(rows, rhs, ZERO, ONE)
    if ncols in aug_pivots:
        assert x is None
    else:
        assert x is not None and len(x) == ncols
        assert all(sum((a * xi for a, xi in zip(row, x)), ZERO) == b
                   for row, b in zip(rows, rhs))
