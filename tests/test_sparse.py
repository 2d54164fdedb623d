"""The sparse-vector core: add at a key, drop the key when the sum is zero.

`add_term`, `combine` and `scale` are checked against a reference that sums
per key first and drops zeros afterwards, with both `Fraction` and `ScalarQ`
coefficients.  The reference derives the key order on its own: a key sits
where its running sum last turned from zero to nonzero.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqbench.braiding import TensorElement
from uqbench.scalars import ScalarQ
from uqbench.sparse import Sparse, add_term, combine, scale
from uqbench.uq import UqElement

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


def test_sparse_classes_keep_their_type_and_drop_zeros():
    q = ScalarQ.q_power
    x = TensorElement({(0,): q(1), (1,): ScalarQ.zero(), (0, 1): q(2)})
    assert list(x.terms) == [(0,), (0, 1)]
    y = x - TensorElement.basis((0,)).scale(q(1))
    assert type(y) is TensorElement and y.terms == {(0, 1): q(2)}
    assert type(x + y) is TensorElement
    assert x.scale(ScalarQ.zero()).is_zero()
    u = UqElement({((), (0,), ()): q(1)})
    assert type(u + u) is UqElement and (u - u).is_zero()
    assert u != Sparse(u.terms) and x != u
