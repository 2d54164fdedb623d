"""The sparse-vector core: add at a key, drop the key when the sum is zero.

`add_term`, `add_scaled`, `combine` and `scale` are checked against a reference that sums
per key first and drops zeros afterwards, with both `Fraction` and `ScalarQ`
coefficients.  The reference derives the key order on its own: a key sits
where its running sum last turned from zero to nonzero.  Elements of U_q and
of T(V) are plain dicts built with these, and no result of `uq` or `nichols`
stores a zero coefficient.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqbench.cli import _sample_elements
from uqbench.nichols import (NicholsContext, multidegrees, serre_element,
                             words_of_degree)
from uqbench.rootdata import load_datum
from uqbench.scalars import ScalarQ
from uqbench.sparse import add_scaled, add_term, combine, scale
from uqbench.uq import UqContext

from oracles import radical_basis

KEYS = st.sampled_from(["a", "b", "c", (0, 1), (1, 0)])
# small integers make cancellation, and re-insertion after it, common
SMALL = st.integers(-2, 2)


def _fraction(n: int, e: int) -> Fraction:
    return Fraction(n)


def _scalar(n: int, e: int) -> ScalarQ:
    return ScalarQ({e: n})


COEFF_TYPES = {"Fraction": (_fraction, Fraction(0)),
               "ScalarQ": (_scalar, ScalarQ.zero())}

OPS = st.lists(st.tuples(KEYS, SMALL, st.integers(-1, 1)), max_size=30)


def _reference(ops, make, zero) -> dict:
    """Sum per key, then drop zeros; order by the last zero-to-nonzero step."""
    total: dict = {}
    placed: dict = {}
    for step, (key, n, e) in enumerate(ops):
        before = total.get(key, zero)
        total[key] = before + make(n, e)
        if before == zero and total[key] != zero:
            placed[key] = step
    live = [k for k in total if total[k] != zero]
    return {k: total[k] for k in sorted(live, key=placed.__getitem__)}


@pytest.mark.parametrize("kind", sorted(COEFF_TYPES))
@settings(max_examples=150, deadline=None)
@given(ops=OPS)
def test_add_term_matches_reference(kind, ops):
    make, zero = COEFF_TYPES[kind]
    acc: dict = {}
    for key, n, e in ops:
        add_term(acc, key, make(n, e))
    want = _reference(ops, make, zero)
    assert acc == want
    assert list(acc) == list(want)


@pytest.mark.parametrize("kind", sorted(COEFF_TYPES))
@settings(max_examples=100, deadline=None)
@given(x_ops=OPS, y_ops=OPS, sign=st.sampled_from([1, -1]))
def test_combine_matches_reference(kind, x_ops, y_ops, sign):
    make, zero = COEFF_TYPES[kind]
    x = _reference(x_ops, make, zero)
    y = _reference(y_ops, make, zero)
    x_before, y_before = dict(x), dict(y)
    got = combine(x, y, sign)
    # x's terms first, then y's terms (negated when sign is -1), one at a time
    ops = [(k, 1, v) for k, v in x.items()] + [(k, sign, v) for k, v in y.items()]
    want = _reference(ops, lambda s, v: v if s == 1 else -v, zero)
    assert got == want
    assert list(got) == list(want)
    assert x == x_before and y == y_before


@pytest.mark.parametrize("kind", sorted(COEFF_TYPES))
@settings(max_examples=100, deadline=None)
@given(x_ops=OPS, n=SMALL, e=st.integers(-1, 1))
def test_scale_matches_reference(kind, x_ops, n, e):
    make, zero = COEFF_TYPES[kind]
    x = _reference(x_ops, make, zero)
    c = make(n, e)
    got = scale(x, c)
    want = {k: v * c for k, v in x.items() if v * c != zero}
    assert got == want
    assert list(got) == list(want)


@pytest.mark.parametrize("kind", sorted(COEFF_TYPES))
@settings(max_examples=100, deadline=None)
@given(acc_ops=OPS, x_ops=OPS, pairs=OPS, n=SMALL, e=st.integers(-1, 1))
# c = -2 cancels "a", and the repeated key puts "a" back, at the end
@example(acc_ops=[("a", 2, 1), ("b", 1, 0)], x_ops=[],
         pairs=[("a", 1, 1), ("c", 1, 0), ("a", 1, 0)], n=-2, e=0)
def test_add_scaled_matches_reference(kind, acc_ops, x_ops, pairs, n, e):
    make, zero = COEFF_TYPES[kind]
    c = make(n, e)
    acc = _reference(acc_ops, make, zero)
    x = _reference(x_ops, make, zero)
    # a dict's items, then a list of pairs with repeated keys, as `_term_mul`
    # returns them
    terms = [(k, make(m, f)) for k, m, f in pairs]
    got = dict(acc)
    add_scaled(got, x.items(), c)
    add_scaled(got, terms, c)
    ops = ([(k, 1, v) for k, v in acc.items()]
           + [(k, 1, c * v) for k, v in [*x.items(), *terms]])
    want = _reference(ops, lambda s, v: v, zero)
    assert got == want
    assert list(got) == list(want)


def test_reinsertion_after_cancel_goes_last():
    acc: dict = {}
    for key, c in [("a", 1), ("b", 1), ("a", -1), ("c", 2), ("a", 3)]:
        add_term(acc, key, Fraction(c))
    assert list(acc.items()) == [("b", 1), ("c", 2), ("a", 3)]


def test_combine_rejects_other_signs():
    with pytest.raises(ValueError):
        combine({"a": Fraction(1)}, {"a": Fraction(1)}, 2)


def test_scalar_truth_value_is_nonzero():
    assert bool(ScalarQ.zero()) is False
    assert bool(ScalarQ.q_power(3)) is True
    assert bool(ScalarQ.q_power(1) - ScalarQ.q_power(1)) is False


def _zero_free(x: dict) -> bool:
    return all(not c.is_zero() for c in x.values())


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_uq_and_nichols_results_store_no_zero(name):
    datum = load_datum(name)
    ctx = UqContext(datum, cap=6)
    one = ScalarQ.one()
    elements = _sample_elements(ctx, random.Random(5), 4)
    for i in range(datum.rank):
        for j in range(datum.rank):
            # (E_i + F_j)(F_j - E_i): for i != j the E_i F_j and F_j E_i
            # terms cancel, and Delta(E_i F_i) has a cancelling K (x) K term
            x = combine(ctx.e_gen(i), ctx.f_gen(j))
            y = combine(ctx.f_gen(j), ctx.e_gen(i), -1)
            elements += [ctx.multiply(x, y), ctx.multiply(ctx.e_gen(i), ctx.f_gen(j))]
    for x in elements:
        for y in elements[:3]:
            assert _zero_free(ctx.multiply(x, y))
        assert _zero_free(ctx.antipode(x))
        assert _zero_free(ctx.coproduct(x))
    words = [w for total in (1, 2) for deg in multidegrees(datum.rank, total)
             for w in words_of_degree(deg) if ctx.is_reduced(w)]
    for e_word in words:
        for f_word in words:
            assert _zero_free(ctx.drinfeld_reorder(e_word, f_word))
    nichols = NicholsContext(datum, cap=6)
    for total in range(5):
        for deg in multidegrees(datum.rank, total):
            for v in radical_basis(nichols, deg):
                assert _zero_free(v)
            for w in words_of_degree(deg):
                # w plus its own reduction, and w minus it: a radical vector
                red = nichols.reduce_word(w)
                for sign in (1, -1):
                    x = combine({w: one}, red, sign)
                    assert _zero_free(x)
                    assert _zero_free(nichols.reduce_mod_radical(x))
    for i in range(datum.rank):
        for j in range(datum.rank):
            if i != j:
                elt = serre_element(datum, i, j)
                assert _zero_free(elt)
                assert nichols.reduce_mod_radical(elt) == {}
