"""Hopf structure of the doubled quantum group on a truncated PBW window."""

import random

import pytest

from uqbench.cli import _sample_elements as _cli_sample_elements
from uqbench.errors import ConfigError
from uqbench.nichols import word_degree
from uqbench.rootdata import load_datum
from uqbench.scalars import ScalarQ, q_factorial
from uqbench.sparse import add_term, combine, scale
from uqbench.uq import (UqContext, check_antipode, check_coassociativity,
                        check_coproduct_multiplicative, check_counit)

from oracles import double_pairing

ONE = ScalarQ.one()
Q = ScalarQ.q_power


@pytest.fixture(scope="module")
def a1():
    return UqContext(load_datum("A1"), cap=8)


@pytest.fixture(scope="module")
def a2():
    return UqContext(load_datum("A2"), cap=6)


@pytest.fixture(scope="module")
def b2():
    return UqContext(load_datum("B2"), cap=6)


def _sample_elements(ctx, seed, count):
    rng = random.Random(seed)
    rank = ctx.datum.rank
    atoms = []
    for i in range(rank):
        atoms.append(ctx.e_gen(i))
        atoms.append(ctx.f_gen(i))
        unit = tuple(1 if j == i else 0 for j in range(ctx.datum.lattice_rank))
        atoms.append(ctx.k_elt(unit))
        atoms.append(ctx.k_elt(tuple(-u for u in unit)))
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        elt = ctx.multiply_all([atoms[rng.randrange(len(atoms))]
                                for _ in range(n)])
        elt = scale(elt, ScalarQ.from_int(rng.choice([-2, -1, 1, 2])))
        if rng.random() < 0.5:
            elt = combine(elt, atoms[rng.randrange(len(atoms))])
        out.append(elt)
    return out


def test_ef_commutator_rank_one(a1):
    # E F - F E = (K - K^-1) / (q - q^-1)
    ef = a1.multiply(a1.e_gen(0), a1.f_gen(0))
    fe = a1.multiply(a1.f_gen(0), a1.e_gen(0))
    dk = scale(combine(a1.k_elt((1,)), a1.k_elt((-1,)), -1),
               (Q(1) - Q(-1)).inverse())
    assert combine(ef, fe, -1) == dk


def test_k_conjugation_rank_one(a1):
    # K E = q^2 E K and K F = q^-2 F K
    k = a1.k_elt((1,))
    assert a1.multiply(k, a1.e_gen(0)) == scale(a1.multiply(a1.e_gen(0), k), Q(2))
    assert a1.multiply(k, a1.f_gen(0)) == scale(a1.multiply(a1.f_gen(0), k), Q(-2))


def test_k_inverse(a1):
    assert a1.multiply(a1.k_elt((1,)), a1.k_elt((-1,))) == a1.one()


def test_multiplication_is_associative(a1):
    elts = _sample_elements(a1, seed=11, count=5)
    for x in elts:
        for y in elts[:3]:
            for z in elts[:2]:
                lhs = a1.multiply(a1.multiply(x, y), z)
                rhs = a1.multiply(x, a1.multiply(y, z))
                assert lhs == rhs


def test_multiplication_is_associative_rank_two(a2):
    elts = _sample_elements(a2, seed=5, count=4)
    for x in elts:
        for y in elts[:2]:
            for z in elts[:2]:
                assert a2.multiply(a2.multiply(x, y), z) == \
                    a2.multiply(x, a2.multiply(y, z))


def test_hopf_axioms_on_generators(a1, a2):
    for ctx in (a1, a2):
        gens = [ctx.e_gen(i) for i in range(ctx.datum.rank)] + \
               [ctx.f_gen(i) for i in range(ctx.datum.rank)]
        for x in gens:
            assert check_counit(ctx, x)
            assert check_coassociativity(ctx, x)
            assert check_antipode(ctx, x)
        for x in gens:
            for y in gens:
                assert check_coproduct_multiplicative(ctx, x, y)


def test_hopf_axioms_on_random_elements(a1):
    elts = _sample_elements(a1, seed=3, count=5)
    for x in elts:
        assert check_counit(a1, x)
        assert check_coassociativity(a1, x)
        assert check_antipode(a1, x)
    for k in range(len(elts)):
        assert check_coproduct_multiplicative(
            a1, elts[k], elts[(k + 1) % len(elts)])


def test_hopf_axioms_on_random_elements_rank_two(a2):
    elts = _sample_elements(a2, seed=7, count=4)
    for x in elts:
        assert check_counit(a2, x)
        assert check_coassociativity(a2, x)
        assert check_antipode(a2, x)
    for k in range(len(elts)):
        assert check_coproduct_multiplicative(
            a2, elts[k], elts[(k + 1) % len(elts)])


def test_k_elt_rejects_a_weight_of_the_wrong_length(a2):
    # K_lambda carries one coordinate per lattice direction; a short lambda
    # is a configuration error (exit 2), not a Cartan element
    with pytest.raises(ConfigError, match="2 coordinates, got 1"):
        a2.k_elt((1,))


def test_counit_values(a1):
    assert a1.counit(a1.one()) == ONE
    assert a1.counit(a1.e_gen(0)).is_zero()
    assert a1.counit(a1.f_gen(0)).is_zero()
    assert a1.counit(a1.k_elt((1,))) == ONE


def test_double_pairing_closed_form(a1):
    # <E^n, F^n> = (-1)^n q^{n(n-1)/2} [n]! / (q - q^-1)^n
    D = (Q(1) - Q(-1)).inverse()
    for n in range(5):
        e_word = (0,) * n
        want = q_factorial(n) * Q(n * (n - 1) // 2) * (D ** n)
        if n % 2:
            want = -want
        assert double_pairing(a1, e_word, e_word) == want


def test_double_pairing_off_diagonal_vanishes(a1):
    assert double_pairing(a1, (0,), (0, 0)).is_zero()
    assert double_pairing(a1, (0, 0), (0,)).is_zero()


def test_double_pairing_mixed_degrees_rank_two(a2):
    # pairing respects multidegree: mismatched letters pair to zero
    assert double_pairing(a2, (0,), (1,)).is_zero()
    assert not double_pairing(a2, (0,), (0,)).is_zero()
    # <E_0 E_1, F_1 F_0> = q / (q^4 - 2 q^2 + 1) = q^-1 / (q - q^-1)^2
    D = (Q(1) - Q(-1)).inverse()
    assert double_pairing(a2, (0, 1), (1, 0)) == Q(-1) * D ** 2


def test_drinfeld_reorder_matches_multiply_on_generators(a1, a2):
    for ctx in (a1, a2):
        for i in range(ctx.datum.rank):
            for j in range(ctx.datum.rank):
                direct = ctx.multiply(ctx.e_gen(i), ctx.f_gen(j))
                assert ctx.drinfeld_reorder((i,), (j,)) == direct


def test_drinfeld_reorder_on_longer_words(a1, a2, b2):
    for e_len in range(1, 4):
        for f_len in range(1, 4):
            e_word = (0,) * e_len
            f_word = (0,) * f_len
            direct = a1.multiply(
                a1.multiply_all([a1.e_gen(0)] * e_len),
                a1.multiply_all([a1.f_gen(0)] * f_len))
            assert a1.drinfeld_reorder(e_word, f_word) == direct
    for ctx in (a2, b2):
        words = [(i, j) for i in range(2) for j in range(2)
                 if ctx.is_reduced((i, j))]
        assert len(words) == 4
        for e_word in words:
            for f_word in words:
                direct = ctx.multiply(
                    ctx.multiply_all([ctx.e_gen(i) for i in e_word]),
                    ctx.multiply_all([ctx.f_gen(j) for j in f_word]))
                assert ctx.drinfeld_reorder(e_word, f_word) == direct


def test_drinfeld_reorder_never_uses_the_cross_relation():
    # the double's route shares _term_mul with multiply, but only on terms
    # with an empty F- or E-word, so _reorder never sees E-word * F-word
    for name, words in (("A1", [(0,), (0, 0)]), ("A2", [(0,), (1,), (0, 1)])):
        ctx = UqContext(load_datum(name), cap=6)
        calls = []
        reorder = ctx._reorder

        def spy(e, f):
            calls.append((e, f))
            return reorder(e, f)

        ctx._reorder = spy
        for e_word in words:
            for f_word in words:
                ctx.drinfeld_reorder(e_word, f_word)
        assert calls
        assert [c for c in calls if c[0] and c[1]] == []
        ctx.multiply(ctx.e_gen(0), ctx.f_gen(0))
        assert ((0,), (0,)) in calls


def test_term_mul_matches_the_product_of_generators(a2):
    zero = (0, 0)
    t1 = ((1,), (1, 0), (0, 1))
    t2 = ((0,), (0, -1), (1,))
    got = {}
    for t, c in a2._term_mul(t1, t2):
        add_term(got, t, c)
    assert got == a2.multiply_all([
        a2.f_gen(1), a2.k_elt((1, 0)), a2.e_gen(0), a2.e_gen(1),
        a2.f_gen(0), a2.k_elt((0, -1)), a2.e_gen(1)])
    assert a2._term_mul(((), zero, ()), t2) == [(t2, ONE)]


def _term_mul_unshortcut(ctx, t1, t2):
    """`_term_mul` with no shortcut: every crossing exponent computed, the
    empty word reduced by `NicholsContext.reduce_word`, and every factor, 1
    or not, multiplied in with `*`.  The skip of a factor of one is not
    repeated here: it lives in `ScalarQ.__mul__`, which returns the other
    factor itself."""
    (f1, l1, e1), (f2, l2, e2) = t1, t2
    nichols = ctx.nichols

    def cross(lam, w):
        beta = ctx.datum.root_combination(word_degree(w, ctx.datum.rank))
        return sum(a * b for a, b in zip(lam, beta))

    def reduce(w):
        return nichols.reduce_word(w).items()

    out = []
    for (fa, mu, ea), c in ctx._reorder(e1, f2):
        q = Q(-cross(l1, fa) - cross(l2, ea))
        lam = tuple(a + b + cc for a, b, cc in zip(l1, mu, l2))
        for fw, cf in reduce(f1 + fa):
            for ew, ce in reduce(ea + e2):
                out.append(((fw, lam, ew), c * q * cf * ce))
    return out


@pytest.mark.parametrize("name", ["a2", "b2"])
def test_term_mul_shortcuts_match_the_full_product(name, request):
    # Terms with empty F- or E-words and zero or nonzero K indices: the
    # products that skip crossings, reductions and factors of 1.  The word
    # (1, 0, 0) is not a Nichols basis word, so a skipped reduction shows.
    ctx = request.getfixturevalue(name)
    assert ctx.nichols.reduce_word((1, 0, 0)) != {(1, 0, 0): ONE}
    words = [(), (0,), (1,), (1, 0), (1, 0, 0)]
    lams = [ctx._zero_dual, ctx.datum.t_indices[0],
            tuple(-x for x in ctx.datum.t_indices[1])]
    terms = [(f, lam, e) for f in words for lam in lams for e in words[:4]]
    for t1 in terms:
        for t2 in terms:
            assert ctx._term_mul(t1, t2) == _term_mul_unshortcut(ctx, t1, t2)


def test_antipode_is_algebra_antihomomorphism(a1):
    elts = _sample_elements(a1, seed=13, count=4)
    for x in elts[:3]:
        for y in elts[:3]:
            lhs = a1.antipode(a1.multiply(x, y))
            rhs = a1.multiply(a1.antipode(y), a1.antipode(x))
            assert lhs == rhs


def test_antipode_on_generators(a1):
    # S(E) = -E K^-1, S(F) = -K F, S(K) = K^-1
    e, f, k = a1.e_gen(0), a1.f_gen(0), a1.k_elt((1,))
    kinv = a1.k_elt((-1,))
    assert a1.antipode(e) == scale(a1.multiply(e, kinv), -ONE)
    assert a1.antipode(f) == scale(a1.multiply(k, f), -ONE)
    assert a1.antipode(k) == kinv


MEMOS = ("_reorder_memo", "_pair_memo", "_term_mul_memo", "_coproduct_memo",
         "_antipode_memo")


def _hopf_check_pass(ctx, seed, samples):
    """Every check `hopf-check` runs, on its generators and sample set."""
    elements = []
    for i in range(ctx.datum.rank):
        elements += [ctx.e_gen(i), ctx.f_gen(i)]
    elements += _cli_sample_elements(ctx, random.Random(seed), samples)
    for k, x in enumerate(elements):
        assert check_coproduct_multiplicative(
            ctx, x, elements[(k + 1) % len(elements)])
        assert check_counit(ctx, x)
        assert check_coassociativity(ctx, x)
        assert check_antipode(ctx, x)
    for i in range(ctx.datum.rank):
        for j in range(ctx.datum.rank):
            assert ctx.drinfeld_reorder((i,), (j,)) == \
                ctx.multiply(ctx.e_gen(i), ctx.f_gen(j))


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_memo_values_match_fresh_computations(name):
    # After a whole hopf-check workload through one context, every memoised
    # value still equals an independent computation: a caller that mutated a
    # shared value would show here.
    datum = load_datum(name)
    ctx = UqContext(datum, cap=6)
    for seed in (901, 7):
        _hopf_check_pass(ctx, seed, samples=8)
    assert ctx._term_mul_memo and ctx._coproduct_memo and ctx._antipode_memo
    fresh = UqContext(datum, cap=6)
    for (t1, t2), value in ctx._term_mul_memo.items():
        assert value == _term_mul_unshortcut(fresh, t1, t2)
    for t, value in ctx._coproduct_memo.items():
        assert value == fresh.coproduct({t: ONE})
    for t, value in ctx._antipode_memo.items():
        assert value == fresh.antipode({t: ONE})


def test_memos_start_empty_and_are_not_shared():
    datum = load_datum("A1")
    a, b = UqContext(datum, cap=4), UqContext(datum, cap=4)
    for memo in MEMOS:
        assert getattr(a, memo) == {} and getattr(b, memo) == {}
        assert getattr(a, memo) is not getattr(b, memo)
    x = a.multiply(a.e_gen(0), a.f_gen(0))
    a.coproduct(x)
    a.antipode(x)
    a.drinfeld_reorder((0,), (0,))
    assert all(getattr(a, memo) for memo in MEMOS)
    assert all(getattr(b, memo) == {} for memo in MEMOS)
