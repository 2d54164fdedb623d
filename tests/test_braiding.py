"""Diagonal braided vector spaces and braid group actions on tensor words."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqbench.braiding import (BraidedSpace, TensorElement, braid_generator,
                              braid_generator_inverse, braid_generator_matrix,
                              braid_relation_holds, braid_slot,
                              braid_word_action, check_hexagon)
from uqbench.errors import CapError
from uqbench.linalg import mat_eq, mat_mul
from uqbench.nichols import diagonal_space
from uqbench.rootdata import load_datum
from uqbench.scalars import ScalarQ

ONE = ScalarQ.one()
ZERO = ScalarQ.zero()
Q = ScalarQ.q_power


def _space(name):
    return diagonal_space(load_datum(name))


def test_diagonal_space_coefficients_match_pairing():
    datum = load_datum("A2")
    sp = _space("A2")
    for i in range(2):
        for j in range(2):
            assert sp.b(i, j) == Q(datum.pairing[i][j])


def test_hexagon_holds_for_diagonal_braidings():
    for name in ("A1", "A2", "B2", "G2", "A1xA1"):
        assert check_hexagon(_space(name))


def _dense_generator(sp, n, i):
    """sigma_i as a dense matrix built from the coefficients alone."""
    words = list(product(range(sp.dim), repeat=n))
    index = {w: k for k, w in enumerate(words)}
    m = [[ZERO] * len(words) for _ in words]
    for w in words:
        a, b = w[i - 1], w[i]
        m[index[w[:i - 1] + (b, a) + w[i + 1:]]][index[w]] = sp.b(a, b)
    return words, m


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1"])
def test_sparse_actions_match_the_dense_reference(name):
    sp = _space(name)
    words, s1 = _dense_generator(sp, 3, 1)
    _, s2 = _dense_generator(sp, 3, 2)
    assert braid_generator_matrix(sp, 3, 1) == (words, s1)
    assert mat_eq(mat_mul(s1, mat_mul(s2, s1, ZERO), ZERO),
                  mat_mul(s2, mat_mul(s1, s2, ZERO), ZERO))
    # the word (1, -2) acts by sigma_2^{-1} sigma_1, leftmost letter first;
    # s2 has one nonzero per column, so its inverse is the transpose with
    # every entry inverted
    s2_inv = [[ZERO if c.is_zero() else c.inverse() for c in row]
              for row in zip(*s2)]
    dense = mat_mul(s2_inv, s1, ZERO)
    for k, w in enumerate(words):
        image = braid_word_action(sp, 3, (1, -2), TensorElement.basis(w))
        assert image.terms == {words[r]: row[k] for r, row in enumerate(dense)
                               if not row[k].is_zero()}


def _xor_table():
    """(x, y) -> (x, x xor y): a pair map that breaks the braid relation."""
    return {(x, y): (((x, x ^ y), ONE),) for x in (0, 1) for y in (0, 1)}


def test_braid_relation_check_sees_a_failure():
    table = _xor_table()
    start = {(1, 0, 0): ONE}
    lhs = braid_slot(table, 0, braid_slot(table, 1, braid_slot(table, 0, start)))
    rhs = braid_slot(table, 1, braid_slot(table, 0, braid_slot(table, 1, start)))
    assert lhs == {(1, 0, 1): ONE} and rhs == {(1, 1, 1): ONE}
    assert not braid_relation_holds(table, [(1, 0, 0)])
    assert not braid_relation_holds(table, product((0, 1), repeat=3))
    assert braid_relation_holds(table, [(0, 0, 0), (0, 0, 1)])


def test_braid_slot_window():
    swap = {(x, y): (((y, x), Q(x + y)),) for x in (0, 1) for y in (0, 1)}
    vec = {(0, 1, 1): ONE}
    assert braid_slot(swap, 0, vec) == {(1, 0, 1): Q(1)}
    assert braid_slot(swap, 0, vec, {(1, 0, 1)}) == {(1, 0, 1): Q(1)}
    with pytest.raises(CapError, match="leaves the depth window"):
        braid_slot(swap, 0, vec, {(0, 1, 1)})
    with pytest.raises(CapError):
        braid_relation_holds(swap, [(0, 0, 1)], {(0, 0, 1)})


def test_braid_generator_swaps_with_scalar():
    sp = _space("A2")
    x = TensorElement.basis((0, 1))
    y = braid_generator(sp, 2, 1, x)
    assert y.terms == {(1, 0): sp.b(0, 1)}


def test_braid_generator_inverse_roundtrip():
    sp = _space("B2")
    for w in [(0, 1), (1, 0), (0, 0, 1), (1, 0, 1)]:
        x = TensorElement.basis(w)
        n = len(w)
        for i in range(1, n):
            back = braid_generator_inverse(sp, n, i, braid_generator(sp, n, i, x))
            assert back == x


def test_braid_relation_on_three_strands():
    # s1 s2 s1 = s2 s1 s2 on every length-3 word over two letters
    sp = _space("A2")
    for w in [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]:
        x = TensorElement.basis(w)
        lhs = braid_word_action(sp, 3, (1, 2, 1), x)
        rhs = braid_word_action(sp, 3, (2, 1, 2), x)
        assert lhs == rhs


@pytest.mark.parametrize("i", [-1, 0, 3])
def test_generator_index_out_of_range(i):
    sp = _space("A2")
    x = TensorElement.basis((0, 1, 0))
    with pytest.raises(ValueError, match="out of range"):
        braid_generator(sp, 3, i, x)
    with pytest.raises(ValueError, match="out of range"):
        braid_generator_inverse(sp, 3, i, x)


@pytest.mark.parametrize("letter", [0, 3, -3])
def test_word_letter_out_of_range(letter):
    sp = _space("A2")
    with pytest.raises(ValueError, match="out of range"):
        braid_word_action(sp, 3, (1, letter), TensorElement.basis((0, 1, 0)))


def test_word_length_must_match_strands():
    sp = _space("A2")
    with pytest.raises(ValueError, match="strand count"):
        braid_word_action(sp, 3, (1,), TensorElement.basis((0, 1)))


def test_distant_generators_commute():
    sp = _space("A2")
    for w in [(0, 1, 0, 1), (1, 1, 0, 0)]:
        x = TensorElement.basis(w)
        lhs = braid_word_action(sp, 4, (1, 3), x)
        rhs = braid_word_action(sp, 4, (3, 1), x)
        assert lhs == rhs


def test_braid_generator_matrix_diagonal_datum():
    sp = _space("A1")
    words, mat = braid_generator_matrix(sp, 2, 1)
    assert words == [(0, 0)]
    assert mat == [[Q(2)]]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=4))
def test_word_degree_counts_letters(letters):
    sp = _space("A2")
    w = tuple(letters)
    deg = sp.word_degree(w)
    assert deg == (w.count(0), w.count(1))
    assert sum(deg) == len(w)


def test_tensor_element_arithmetic():
    x = TensorElement.basis((0,))
    y = TensorElement.basis((1,))
    z = x + y
    assert not z.is_zero()
    assert (z - z).is_zero()
    assert z.scale(ScalarQ.zero()).is_zero()
