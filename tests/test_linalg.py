"""Exact elimination over the rationals against sympy's reduced row echelon
form: `rref` touches only the pivot row's nonzero columns, so random sparse
matrices with zero rows, repeated rows and rank deficiency check that it
still returns the dense result, pivots and all; `solve` is checked on the
same matrices, 0-row systems included.  Seeded integer systems check that
`solve` does not depend on row order or repeated rows.
"""

import random
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
def sparse_matrices(draw, ncols=None):
    """0-8 x 0-8 rational matrices (0-8 x ncols when ncols is given) built
    from a few random base rows: each row is a base row, a zero row or a
    combination of two base rows."""
    if ncols is None:
        ncols = draw(st.integers(0, 8))
    nrows = draw(st.integers(0, 8))
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
    red, pivots = rref(rows, ONE)
    want_red, want_pivots = _sympy_rref(rows, ncols)
    assert pivots == want_pivots
    assert red == (want_red if rows else [])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.data())
def test_solve_none_exactly_when_rhs_is_a_pivot(ncols, data):
    rows = data.draw(sparse_matrices(ncols=ncols))
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    if data.draw(st.booleans()):
        # a right-hand side in the column space
        coeffs = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = [sum((a * c for a, c in zip(row, coeffs)), ZERO)
               for row in rows]
    aug = [row + [b] for row, b in zip(rows, rhs)]
    _, aug_pivots = _sympy_rref(aug, ncols + 1)
    x = solve(rows, rhs, ncols, ONE)
    if ncols in aug_pivots:
        assert x is None
    else:
        assert x is not None and len(x) == ncols
        assert all(sum((a * xi for a, xi in zip(row, x)), ZERO) == b
                   for row, b in zip(rows, rhs))


@pytest.mark.parametrize("ncols", [0, 1, 3])
def test_solve_empty_system_returns_zero_vector(ncols):
    # every x solves a system without equations
    assert solve([], [], ncols, ONE) == [ZERO] * ncols


def test_solve_refuses_mismatched_shapes():
    with pytest.raises(ValueError):
        solve([[ONE, ZERO]], [ONE], 3, ONE)
    with pytest.raises(ValueError):
        solve([[ONE]], [], 1, ONE)


def _int_system(rng: random.Random) -> tuple[list, list, int]:
    """Up to 10 integer rows over 1-8 columns, each an integer combination
    of a few sparse base rows, with a consistent or a random right-hand
    side."""
    ncols = rng.randint(1, 8)
    base = [[rng.choice([0, 0, rng.randint(-3, 3)]) for _ in range(ncols)]
            for _ in range(rng.randint(1, 4))]
    rows = [[sum(rng.randint(-2, 2) * b[j] for b in base)
             for j in range(ncols)] for _ in range(rng.randint(1, 10))]
    if rng.random() < 0.5:
        x = [rng.randint(-3, 3) for _ in range(ncols)]
        rhs = [sum(a * xi for a, xi in zip(row, x)) for row in rows]
    else:
        rhs = [rng.randint(-3, 3) for _ in rows]
    return rows, rhs, ncols


@pytest.mark.parametrize("seed", range(60))
def test_solve_ignores_row_order_and_repeated_rows(seed):
    # the reduced row echelon form depends only on the row space, so
    # shuffling rows and repeating some gives the same solution, or None
    rng = random.Random(seed)
    rows, rhs, ncols = _int_system(rng)
    want = solve(rows, rhs, ncols, ONE)
    for _ in range(4):
        order = list(range(len(rows)))
        order += [rng.randrange(len(rows)) for _ in range(rng.randint(0, 6))]
        rng.shuffle(order)
        got = solve([rows[i] for i in order], [rhs[i] for i in order], ncols,
                    ONE)
        assert got == want
