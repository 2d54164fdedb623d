"""Exact elimination over the rationals against sympy's reduced row echelon
form: `rref` touches only the pivot row's nonzero columns, so random sparse
matrices with zero rows, repeated rows and rank deficiency check that it
still returns the dense result, pivots and all; `solve` is checked on the
same matrices, 0-row systems included, down to the particular solution it
picks.  `solve` eliminates only the connected components its right-hand
side reaches, so block-structured systems check it against one elimination
of the whole system (`oracles.whole_system_solve`), and a spy on `rref`
checks that the other blocks are never eliminated.  Seeded integer systems
check that `solve` does not depend on row order or repeated rows.  The
strategies draw dense rows, the form sympy and the oracle read; `_sparse`
hands `solve` the same rows as {column: value} dicts, with some of the
drawn zeros kept as stored zeros, which `solve` must accept.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import whole_system_solve
from uqbench import linalg
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


def _sparse(rows):
    """Dense rows as the {column: value} dicts `solve` takes, keeping the
    zeros drawn where row plus column index is a multiple of three."""
    return [{j: a for j, a in enumerate(row) if a or (i + j) % 3 == 0}
            for i, row in enumerate(rows)]


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
    red, aug_pivots = _sympy_rref(aug, ncols + 1)
    x = solve(_sparse(rows), rhs, ncols, ONE)
    if ncols in aug_pivots:
        assert x is None
    else:
        assert x is not None and len(x) == ncols
        assert all(sum((a * xi for a, xi in zip(row, x)), ZERO) == b
                   for row, b in zip(rows, rhs))
        # the particular solution: read off the pivot rows, free
        # coordinates zero
        for r, pc in enumerate(aug_pivots):
            assert x[pc] == red[r][ncols]
        assert all(x[j] == 0 for j in range(ncols) if j not in aug_pivots)


@st.composite
def block_systems(draw):
    """(rows, rhs, ncols) made of 0-4 blocks on disjoint, interleaved sets of
    0-4 columns, with int or Fraction entries.  Each block's right-hand side
    is zero, in its column space or random (most often inconsistent); a zero
    row with a nonzero right-hand side may be added, and rows are repeated
    and shuffled."""
    integral = draw(st.booleans())
    zero = 0 if integral else ZERO
    entry = (st.sampled_from([0, 0, -3, -2, -1, 1, 2, 3]) if integral
             else entries)
    widths = draw(st.lists(st.integers(0, 4), max_size=4))
    ncols = sum(widths)
    placement = draw(st.permutations(range(ncols)))
    rows, rhs = [], []
    for k, width in enumerate(widths):
        cols = placement[sum(widths[:k]):sum(widths[:k + 1])]
        base = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                             min_size=1, max_size=3))
        kind = draw(st.sampled_from(["zero", "consistent", "consistent",
                                     "random"]))
        coeffs = draw(st.lists(entry, min_size=width, max_size=width))
        for _ in range(draw(st.integers(0, 4))):
            a, b = draw(entry), draw(entry)
            first, second = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            local = [a * u + b * v for u, v in zip(first, second)]
            row = [zero] * ncols
            for c, v in zip(cols, local):
                row[c] = v
            rows.append(row)
            rhs.append(zero if kind == "zero" else
                       sum((u * c for u, c in zip(local, coeffs)), zero)
                       if kind == "consistent" else draw(entry))
    if draw(st.integers(0, 3)) == 0:
        rows.append([zero] * ncols)
        rhs.append(draw(entry.filter(bool)))
    order = list(range(len(rows)))
    if rows:
        order += draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
    order = draw(st.permutations(order))
    return [rows[i] for i in order], [rhs[i] for i in order], ncols


@settings(max_examples=400, deadline=None)
@given(block_systems())
def test_solve_matches_whole_system_elimination(system):
    rows, rhs, ncols = system
    assert solve(_sparse(rows), rhs, ncols, ONE) == whole_system_solve(
        rows, rhs, ncols, ONE)


def test_solve_eliminates_only_the_block_its_rhs_reaches(monkeypatch):
    seen = []

    def spy(rows, one):
        seen.append([list(r) for r in rows])
        return rref(rows, one)

    monkeypatch.setattr(linalg, "rref", spy)
    # blocks on columns {0, 3}, {1, 4} and {2, 5}; only the second has a
    # nonzero right-hand side
    rows = [[1, 0, 0, 2, 0, 0],
            [0, 1, 0, 0, 1, 0],
            [0, 0, 3, 0, 0, 1],
            [1, 0, 0, 1, 0, 0],
            [0, 2, 0, 0, 1, 0]]
    rhs = [0, 1, 0, 0, 4]
    assert solve(_sparse(rows), rhs, 6, ONE) == [0, 3, 0, 0, -2, 0]
    assert seen == [[[1, 1, 1], [2, 1, 4]]]


@pytest.mark.parametrize("ncols", [0, 1, 3])
def test_solve_empty_system_returns_zero_vector(ncols):
    # every x solves a system without equations
    assert solve([], [], ncols, ONE) == [ZERO] * ncols


def test_solve_refuses_mismatched_shapes():
    with pytest.raises(ValueError):
        solve([{0: ONE}], [], 1, ONE)
    # a column outside range(ncols), below or above it
    with pytest.raises(ValueError):
        solve([{0: ONE, -1: ONE}], [ONE], 3, ONE)
    with pytest.raises(ValueError):
        solve([{0: ONE, 3: ONE}], [ONE], 3, ONE)


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
    rows = _sparse(rows)
    want = solve(rows, rhs, ncols, ONE)
    for _ in range(4):
        order = list(range(len(rows)))
        order += [rng.randrange(len(rows)) for _ in range(rng.randint(0, 6))]
        rng.shuffle(order)
        got = solve([rows[i] for i in order], [rhs[i] for i in order], ncols,
                    ONE)
        assert got == want
