"""Nichols algebra dimensions, the pairing radical, and defining relations.

The dimension oracle is independent of the implementation: positive roots are
enumerated by closing the simple roots under simple reflections, and graded
dimensions are counted as monomials in one generator per positive root.  At a
generic parameter this matches the graded dimension of the Nichols algebra of
the datum's diagonal braiding.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqbench.braiding import TensorElement
from uqbench.linalg import (_kronecker_pack, _kronecker_unpack, rref,
                            rref_laurent)
from uqbench.nichols import (NicholsContext, braided_coproduct,
                             diagonal_space, serre_element, words_of_degree)
from uqbench.rootdata import load_datum
from uqbench.scalars import ScalarQ

ZERO = ScalarQ.zero()
ONE = ScalarQ.one()


def positive_roots(datum):
    """Close the simple roots under s_i(b) = b - <b, a_i^vee> a_i, keeping
    the vectors with nonnegative simple-root coordinates."""
    roots = {tuple(1 if j == i else 0 for j in range(datum.rank))
             for i in range(datum.rank)}
    while True:
        new = set()
        for beta in roots:
            for i in range(datum.rank):
                c = sum(beta[j] * datum.cartan[i][j] for j in range(datum.rank))
                img = tuple(beta[j] - (c if j == i else 0)
                            for j in range(datum.rank))
                if all(x >= 0 for x in img) and any(x > 0 for x in img):
                    new.add(img)
        if new <= roots:
            return sorted(roots)
        roots |= new


def pbw_count(roots, deg):
    """Number of ways to write deg as a nonnegative combination of roots."""
    @lru_cache(maxsize=None)
    def count(idx, rest):
        if all(x == 0 for x in rest):
            return 1
        if idx == len(roots):
            return 0
        beta = roots[idx]
        total = 0
        mult = 0
        while all(r - mult * b >= 0 for r, b in zip(rest, beta)):
            total += count(idx + 1,
                           tuple(r - mult * b for r, b in zip(rest, beta)))
            mult += 1
        return total
    return count(0, tuple(deg))


def _degrees(rank, total):
    if rank == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _degrees(rank - 1, total - head):
            yield (head,) + rest


def test_positive_root_oracle_sanity():
    assert positive_roots(load_datum("A1")) == [(1,)]
    assert positive_roots(load_datum("A2")) == [(0, 1), (1, 0), (1, 1)]
    assert len(positive_roots(load_datum("B2"))) == 4
    assert len(positive_roots(load_datum("G2"))) == 6
    assert positive_roots(load_datum("A1xA1")) == [(0, 1), (1, 0)]


def test_rank_one_dimensions_all_one():
    ctx = NicholsContext(load_datum("A1"), cap=8)
    for n in range(9):
        assert ctx.nichols_dim((n,)) == 1


def test_a2_dimensions_match_pbw_counts():
    datum = load_datum("A2")
    ctx = NicholsContext(datum, cap=6)
    roots = positive_roots(datum)
    for total in range(7):
        for deg in _degrees(2, total):
            assert ctx.nichols_dim(deg) == pbw_count(roots, deg), deg


def test_b2_dimensions_match_pbw_counts():
    datum = load_datum("B2")
    ctx = NicholsContext(datum, cap=5)
    roots = positive_roots(datum)
    for total in range(6):
        for deg in _degrees(2, total):
            assert ctx.nichols_dim(deg) == pbw_count(roots, deg), deg


def test_a1xa1_dimensions_match_pbw_counts():
    datum = load_datum("A1xA1")
    ctx = NicholsContext(datum, cap=4)
    roots = positive_roots(datum)
    for total in range(5):
        for deg in _degrees(2, total):
            assert ctx.nichols_dim(deg) == pbw_count(roots, deg), deg


def test_serre_elements_reduce_to_zero():
    for name in ("A2", "B2", "G2"):
        datum = load_datum(name)
        ctx = NicholsContext(datum, cap=8)
        for i in range(datum.rank):
            for j in range(datum.rank):
                if i == j:
                    continue
                elt = serre_element(datum, i, j)
                assert ctx.reduce_mod_radical(elt).is_zero(), (name, i, j)
                assert ctx.is_in_radical(elt), (name, i, j)


def test_a2_serre_degree_radical_is_one_dimensional():
    datum = load_datum("A2")
    ctx = NicholsContext(datum, cap=6)
    for (i, j), deg in (((0, 1), (2, 1)), ((1, 0), (1, 2))):
        rad = ctx.radical_basis(deg)
        assert len(rad) == 1
        # the Serre element spans it: reducing it mod the radical gives zero
        assert ctx.reduce_mod_radical(serre_element(datum, i, j)).is_zero()


def test_serre_element_multidegree():
    datum = load_datum("G2")
    sp = diagonal_space(datum)
    elt = serre_element(datum, 0, 1)
    want_i = 1 - datum.cartan[0][1]
    for w in elt.terms:
        deg = sp.word_degree(w)
        assert deg[0] == want_i and deg[1] == 1


def test_radical_orthogonality():
    # every radical vector pairs to zero against every word of its degree
    datum = load_datum("A2")
    ctx = NicholsContext(datum, cap=5)
    for deg in ((2, 1), (1, 2), (2, 2)):
        for v in ctx.radical_basis(deg):
            for w in words_of_degree(deg):
                assert ctx.pairing_eval(v, w).is_zero()


def test_reduce_mod_radical_is_projection():
    datum = load_datum("B2")
    ctx = NicholsContext(datum, cap=5)
    elt = serre_element(datum, 0, 1) + TensorElement.basis((0, 1, 0))
    once = ctx.reduce_mod_radical(elt)
    assert ctx.reduce_mod_radical(once) == once
    # the difference lies in the radical
    assert ctx.is_in_radical(elt - once)


def test_nichols_basis_spans_gram_rank():
    datum = load_datum("A2")
    ctx = NicholsContext(datum, cap=4)
    for deg in ((1, 1), (2, 1), (2, 2)):
        words = words_of_degree(deg)
        assert ctx.nichols_dim(deg) + len(ctx.radical_basis(deg)) == len(words)


def test_coproduct_counit_identity():
    # (eps (x) id) Delta = id, reading eps as the empty-word coefficient
    sp = diagonal_space(load_datum("A2"))
    for w in ((0,), (0, 1), (1, 0, 1)):
        pairs = braided_coproduct(sp, TensorElement.basis(w))
        left = TensorElement()
        for (a, b), c in pairs.items():
            if a == ():
                left.add_term(b, c)
        assert left == TensorElement.basis(w)


def test_coproduct_grouplike_letters():
    sp = diagonal_space(load_datum("A2"))
    pairs = braided_coproduct(sp, TensorElement.basis((0,)))
    assert pairs == {((0,), ()): ONE, ((), (0,)): ONE}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=4))
def test_coproduct_is_coassociative(letters):
    sp = diagonal_space(load_datum("A2"))
    w = tuple(letters)
    pairs = braided_coproduct(sp, TensorElement.basis(w))
    lhs = {}
    for (a, b), c in pairs.items():
        for (a1, a2), c2 in braided_coproduct(sp, TensorElement.basis(a)).items():
            key = (a1, a2, b)
            s = lhs.get(key, ScalarQ.zero()) + c * c2
            if s.is_zero():
                lhs.pop(key, None)
            else:
                lhs[key] = s
    rhs = {}
    for (a, b), c in pairs.items():
        for (b1, b2), c2 in braided_coproduct(sp, TensorElement.basis(b)).items():
            key = (a, b1, b2)
            s = rhs.get(key, ScalarQ.zero()) + c * c2
            if s.is_zero():
                rhs.pop(key, None)
            else:
                rhs[key] = s
    assert lhs == rhs


# ---------------------------------------------------------------------------
# the integer Gram and fraction-free elimination against the Q(q) path
# ---------------------------------------------------------------------------

def _pair_words_q(ctx, x, y, memo):
    """<x, y> by the pairing recursion in Q(q): crossing weights b(y[a], i)
    and the generator pairing <v_i, v_i> taken at every step."""
    if not x:
        return ONE
    key = (x, y)
    if key not in memo:
        i, rest = x[0], x[1:]
        acc = ZERO
        beta = ONE
        for pos, letter in enumerate(y):
            if letter == i:
                sub = _pair_words_q(ctx, rest, y[:pos] + y[pos + 1:], memo)
                acc = acc + beta * ctx.pairing.diag[i] * sub
            beta = beta * ctx.space.b(letter, i)
        memo[key] = acc
    return memo[key]


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A1xA1"])
def test_nichols_basis_matches_rational_rref(name):
    datum = load_datum(name)
    ctx = NicholsContext(datum, cap=4)
    memo = {}
    for total in range(5):
        for deg in _degrees(datum.rank, total):
            words, gram = ctx.graded_gram(deg)
            scale = ctx._gram_scale(deg)
            gram_q = [[scale * ScalarQ(e) for e in row] for row in gram]
            for u, row in zip(words, gram_q):
                for w, entry in zip(words, row):
                    assert entry == _pair_words_q(ctx, u, w, memo), (u, w)
            red, pivots = rref(gram_q, ZERO, ONE)
            nb = ctx.nichols_basis(deg)
            assert nb.basis_words == tuple(words[c] for c in pivots), deg
            for c, w in enumerate(words):
                if c in pivots:
                    want = {w: ONE}
                else:
                    want = {words[pc]: red[r][c] for r, pc in enumerate(pivots)
                            if not red[r][c].is_zero()}
                assert nb.reduction[w] == want, (deg, w)
                assert list(nb.reduction[w]) == list(want), (deg, w)


_laurent = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3).filter(bool),
                           max_size=3)


@st.composite
def _laurent_matrices(draw):
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(_laurent) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # a row in the span of two others, or a zero row
        i, j, k = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        a, b = draw(_laurent), draw(_laurent)
        combos = (ScalarQ(a) * ScalarQ(x) + ScalarQ(b) * ScalarQ(y)
                  for x, y in zip(rows[i], rows[j]))
        rows[k] = [{e: int(c) for e, c in z.num.items()} for z in combos]
    return rows


@settings(max_examples=60, deadline=None)
@given(_laurent_matrices())
def test_rref_laurent_matches_rational_rref(rows):
    red, pivots = rref([[ScalarQ(p) for p in row] for row in rows], ZERO, ONE)
    got, got_pivots = rref_laurent(rows)
    assert got_pivots == pivots
    assert len(got) == len(pivots)
    for r, pc in enumerate(pivots):
        assert got[r][pc] == got[0][pivots[0]]
        for c in range(len(rows[0])):
            assert ScalarQ(got[r][c], got[r][pc]) == red[r][c], (r, c)


def test_kronecker_round_trip_at_the_bound():
    for k in (2, 3, 8, 64):
        half = 1 << (k - 1)
        for p in ({0: half - 1, 3: -half, 5: 1},
                  {0: -half, 1: -half, 2: half - 1},
                  {7: half - 1}, {}):
            assert _kronecker_unpack(_kronecker_pack(p, k), k) == p
    # A diagonal matrix of sign-free polynomials has a determinant whose
    # 1-norm is exactly the product of the row norms, the coefficient bound.
    a, b = {0: 1, 1: 3, 2: 3, 3: 1}, {0: 2, 4: 5}
    got, pivots = rref_laurent([[a, {}], [{}, b]])
    ab = (ScalarQ(a) * ScalarQ(b)).num
    assert pivots == [0, 1]
    assert got == [[{e: int(c) for e, c in ab.items()}, {}],
                   [{}, {e: int(c) for e, c in ab.items()}]]
