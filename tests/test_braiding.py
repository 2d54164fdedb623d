"""The braid-word engine of `weightmods` (`_braid_slot` and
`braid_relation_holds`) on the diagonal pair tables
c(v_a (x) v_b) = q^{(alpha_a, alpha_b)} v_b (x) v_a of the presets and on
test pair maps."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqbench.errors import CapError, ConfigError
from uqbench.nichols import word_degree
from uqbench.rootdata import load_datum
from uqbench.scalars import ScalarQ
from uqbench.weightmods import (_braid_slot, braid_relation_holds, braid_rep,
                                build_verma)

from oracles import mat_mul

ONE = ScalarQ.one()
ZERO = ScalarQ.zero()
Q = ScalarQ.q_power


def _b(datum, a, b):
    """The diagonal braiding coefficient q^{(alpha_a, alpha_b)}."""
    return Q(datum.pairing[a][b])


def _table(datum, inverse=False):
    """c, or c^{-1}, as a pair table: (a, b) -> v_b (x) v_a times b(a, b),
    or times 1/b(b, a)."""
    d = range(datum.rank)
    if inverse:
        return {(a, b): (((b, a), _b(datum, b, a).inverse()),) for a in d for b in d}
    return {(a, b): (((b, a), _b(datum, a, b)),) for a in d for b in d}


def _act(datum, n, word, vec):
    """A braid word of signed 1-based letters (negative = inverse) on
    V^(x)n, leftmost letter first, through `_braid_slot`."""
    window = set(product(range(datum.rank), repeat=n))
    for g in word:
        vec = _braid_slot(_table(datum, g < 0), abs(g) - 1, vec, window)
    return vec


def test_hexagon_holds_for_diagonal_braidings():
    for name in ("A1", "A2", "B2", "G2", "A1xA1"):
        datum = load_datum(name)
        triples = set(product(range(datum.rank), repeat=3))
        assert braid_relation_holds(_table(datum), triples, triples)


def _dense_generator(datum, n, i):
    """sigma_i as a dense matrix built from the coefficients alone."""
    words = list(product(range(datum.rank), repeat=n))
    index = {w: k for k, w in enumerate(words)}
    m = [[ZERO] * len(words) for _ in words]
    for w in words:
        a, b = w[i - 1], w[i]
        m[index[w[:i - 1] + (b, a) + w[i + 1:]]][index[w]] = _b(datum, a, b)
    return words, m


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1"])
def test_sparse_actions_match_the_dense_reference(name):
    datum = load_datum(name)
    words, s1 = _dense_generator(datum, 3, 1)
    _, s2 = _dense_generator(datum, 3, 2)
    for k, w in enumerate(words):
        assert _act(datum, 3, (1,), {w: ONE}) == \
            {words[r]: row[k] for r, row in enumerate(s1) if not row[k].is_zero()}
    assert mat_mul(s1, mat_mul(s2, s1, ZERO), ZERO) == \
        mat_mul(s2, mat_mul(s1, s2, ZERO), ZERO)
    # the word (1, -2) acts by sigma_2^{-1} sigma_1, leftmost letter first;
    # s2 has one nonzero per column, so its inverse is the transpose with
    # every entry inverted
    s2_inv = [[ZERO if c.is_zero() else c.inverse() for c in row]
              for row in zip(*s2)]
    dense = mat_mul(s2_inv, s1, ZERO)
    for k, w in enumerate(words):
        assert _act(datum, 3, (1, -2), {w: ONE}) == \
            {words[r]: row[k] for r, row in enumerate(dense) if not row[k].is_zero()}


def _xor_table():
    """(x, y) -> (x, x xor y): a pair map that breaks the braid relation."""
    return {(x, y): (((x, x ^ y), ONE),) for x in (0, 1) for y in (0, 1)}


def test_braid_relation_check_sees_a_failure():
    table = _xor_table()
    start = {(1, 0, 0): ONE}
    cube = set(product((0, 1), repeat=3))

    def slot(k, vec):
        return _braid_slot(table, k, vec, cube)

    lhs = slot(0, slot(1, slot(0, start)))
    rhs = slot(1, slot(0, slot(1, start)))
    assert lhs == {(1, 0, 1): ONE} and rhs == {(1, 1, 1): ONE}
    assert not braid_relation_holds(table, [(1, 0, 0)], cube)
    assert not braid_relation_holds(table, cube, cube)
    assert braid_relation_holds(table, [(0, 0, 0), (0, 0, 1)], cube)


def test_braid_slot_window():
    swap = {(x, y): (((y, x), Q(x + y)),) for x in (0, 1) for y in (0, 1)}
    vec = {(0, 1, 1): ONE}
    assert _braid_slot(swap, 0, vec, {(1, 0, 1)}) == {(1, 0, 1): Q(1)}
    with pytest.raises(CapError, match="leaves the depth window"):
        _braid_slot(swap, 0, vec, {(0, 1, 1)})
    with pytest.raises(CapError):
        braid_relation_holds(swap, [(0, 0, 1)], {(0, 0, 1)})


def test_braid_generator_swaps_with_scalar():
    datum = load_datum("A2")
    assert _act(datum, 2, (1,), {(0, 1): ONE}) == {(1, 0): _b(datum, 0, 1)}


def test_braid_generator_inverse_roundtrip():
    datum = load_datum("B2")
    for w in [(0, 1), (1, 0), (0, 0, 1), (1, 0, 1)]:
        n = len(w)
        for i in range(1, n):
            assert _act(datum, n, (i, -i), {w: ONE}) == {w: ONE}


def test_braid_relation_on_three_strands():
    # s1 s2 s1 = s2 s1 s2 on every length-3 word over two letters
    datum = load_datum("A2")
    for w in product(range(2), repeat=3):
        assert _act(datum, 3, (1, 2, 1), {w: ONE}) == _act(datum, 3, (2, 1, 2), {w: ONE})


@pytest.mark.parametrize("letter", [0, 3, -3])
def test_word_letter_out_of_range(letter):
    # braid words reach the engine through braid_rep, which refuses the letter
    M = build_verma(load_datum("A1"), 1, 2)
    with pytest.raises(ConfigError, match="out of range"):
        braid_rep(M.datum, M, 3, (1, letter), 2)


def test_word_length_must_match_strands():
    # a word of another length lies outside the window of V^(x)3
    datum = load_datum("A2")
    with pytest.raises(CapError, match="leaves the depth window"):
        _act(datum, 3, (1,), {(0, 1): ONE})


def test_distant_generators_commute():
    datum = load_datum("A2")
    for w in [(0, 1, 0, 1), (1, 1, 0, 0)]:
        assert _act(datum, 4, (1, 3), {w: ONE}) == _act(datum, 4, (3, 1), {w: ONE})


def test_braid_generator_matrix_diagonal_datum():
    # A1 has one letter, so sigma_1 on V (x) V is the 1x1 matrix (q^2)
    datum = load_datum("A1")
    assert _act(datum, 2, (1,), {(0, 0): ONE}) == {(0, 0): Q(2)}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=4))
def test_word_degree_counts_letters(letters):
    datum = load_datum("A2")
    w = tuple(letters)
    deg = word_degree(w, datum.rank)
    assert deg == (w.count(0), w.count(1))
    assert sum(deg) == len(w)
