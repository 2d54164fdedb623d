"""Nichols algebra dimensions, the pairing radical, and defining relations.

The dimension oracle is independent of the implementation: positive roots are
enumerated by closing the simple roots under simple reflections, and graded
dimensions are counted as monomials in one generator per positive root.  At a
generic parameter this matches the graded dimension of the Nichols algebra of
the datum's diagonal braiding.
"""

from functools import lru_cache

import pytest

from uqbench.linalg import rref
from uqbench.nichols import (NicholsContext, serre_element, word_degree,
                             words_of_degree)
from uqbench.rootdata import load_datum
from uqbench.scalars import ScalarQ
from uqbench.sparse import combine

from oracles import gram_scale, pairing_eval

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
    ctx = NicholsContext(datum, cap=7)
    roots = positive_roots(datum)
    for total in range(8):
        for deg in _degrees(2, total):
            assert ctx.nichols_dim(deg) == pbw_count(roots, deg), deg


def test_b2_dimensions_match_pbw_counts():
    datum = load_datum("B2")
    ctx = NicholsContext(datum, cap=6)
    roots = positive_roots(datum)
    for total in range(7):
        for deg in _degrees(2, total):
            assert ctx.nichols_dim(deg) == pbw_count(roots, deg), deg


def test_g2_dimensions_match_pbw_counts():
    datum = load_datum("G2")
    ctx = NicholsContext(datum, cap=6)
    roots = positive_roots(datum)
    for total in range(7):
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
                assert ctx.reduce_mod_radical(elt) == {}, (name, i, j)


def test_a2_serre_degree_radical_is_one_dimensional():
    datum = load_datum("A2")
    ctx = NicholsContext(datum, cap=6)
    for (i, j), deg in (((0, 1), (2, 1)), ((1, 0), (1, 2))):
        rad = ctx.radical_basis(deg)
        assert len(rad) == 1
        # the Serre element spans it: reducing it mod the radical gives zero
        assert ctx.reduce_mod_radical(serre_element(datum, i, j)) == {}


def test_serre_element_multidegree():
    datum = load_datum("G2")
    elt = serre_element(datum, 0, 1)
    want_i = 1 - datum.cartan[0][1]
    for w in elt:
        assert word_degree(w, datum.rank) == (want_i, 1)


def test_radical_orthogonality():
    # every radical vector pairs to zero against every word of its degree
    datum = load_datum("A2")
    ctx = NicholsContext(datum, cap=5)
    for deg in ((2, 1), (1, 2), (2, 2)):
        for v in ctx.radical_basis(deg):
            for w in words_of_degree(deg):
                assert pairing_eval(ctx, v, w).is_zero()


def test_reduce_mod_radical_is_projection():
    datum = load_datum("B2")
    ctx = NicholsContext(datum, cap=5)
    elt = combine(serre_element(datum, 0, 1), {(0, 1, 0): ONE})
    once = ctx.reduce_mod_radical(elt)
    assert ctx.reduce_mod_radical(once) == once
    # the difference lies in the radical
    assert ctx.reduce_mod_radical(combine(elt, once, -1)) == {}


def test_nichols_basis_spans_gram_rank():
    datum = load_datum("A2")
    ctx = NicholsContext(datum, cap=4)
    for deg in ((1, 1), (2, 1), (2, 2)):
        words = words_of_degree(deg)
        assert ctx.nichols_dim(deg) + len(ctx.radical_basis(deg)) == len(words)


# ---------------------------------------------------------------------------
# candidate elimination on the integer Gram against the full Q(q) Gram
# ---------------------------------------------------------------------------

def _pair_words_q(datum, x, y, memo):
    """<x, y> by the pairing recursion in Q(q): crossing weights
    b(y[a], i) = q^{(alpha_{y[a]}, alpha_i)} and the generator pairing
    <v_i, v_i> = 1/(q_i - q_i^{-1}) taken at every step."""
    if not x:
        return ONE
    key = (x, y)
    if key not in memo:
        i, rest = x[0], x[1:]
        d = datum.d[i]
        generator = (ScalarQ.q_power(d) - ScalarQ.q_power(-d)).inverse()
        acc = ZERO
        beta = ONE
        for pos, letter in enumerate(y):
            if letter == i:
                sub = _pair_words_q(datum, rest, y[:pos] + y[pos + 1:], memo)
                acc = acc + beta * generator * sub
            beta = beta * ScalarQ.q_power(datum.pairing[letter][i])
        memo[key] = acc
    return memo[key]


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A1xA1"])
def test_nichols_basis_matches_rational_rref(name):
    # The full Gram of every word in Q(q), eliminated by `rref`: its pivots
    # and the reduction of every word, key order included, are what the
    # candidate elimination and the lazy reductions give.
    datum = load_datum(name)
    ctx = NicholsContext(datum, cap=5)
    memo = {}
    for total in range(6):
        for deg in _degrees(datum.rank, total):
            words = words_of_degree(deg)
            gram_q = [[_pair_words_q(datum, u, w, memo) for w in words]
                      for u in words]
            scale = gram_scale(ctx, deg)
            for u, row in zip(words, gram_q):
                for w, entry in zip(words, row):
                    assert scale * ScalarQ(ctx._pair_words(u, w)) == entry, \
                        (u, w)
            red, pivots = rref(gram_q, ZERO, ONE)
            nb = ctx.nichols_basis(deg)
            assert nb.basis_words == tuple(words[c] for c in pivots), deg
            candidates, _ = ctx.graded_gram(deg)
            assert set(nb.basis_words) <= set(candidates), deg
            for c, w in enumerate(words):
                want = {words[pc]: red[r][c] for r, pc in enumerate(pivots)
                        if not red[r][c].is_zero()}
                got = ctx.reduce_word(w)
                assert got == want, (deg, w)
                assert list(got) == list(want), (deg, w)
