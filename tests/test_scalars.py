"""Exact Laurent-fraction arithmetic and p-adic valuations."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqbench.scalars import (_ONE_DEN, PadicParams, ScalarError, ScalarQ,
                             ValuationBound, _lp_add, _lp_mul, _lp_neg,
                             gauss_valuation, is_prime, q_binomial,
                             q_factorial, q_int, q_rising, vp, vp_factorial)

try:
    import sympy
except ImportError:  # sympy is the oracle of the field-operation tests
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="needs sympy")

ONE = ScalarQ.one()
ZERO = ScalarQ.zero()
Q = ScalarQ.q_power


def test_constants():
    assert ZERO.is_zero() and not ZERO.is_one()
    assert ONE.is_one() and not ONE.is_zero()
    assert ScalarQ.from_int(0) == ZERO
    assert ScalarQ.from_int(1) == ONE
    assert ScalarQ.from_fraction(Fraction(2, 2)) == ONE


def test_laurent_canonical_strings():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q(5) + Q(1) + Q(-3)) == "q^5 + q + q^-3"
    assert str(ScalarQ.from_fraction(Fraction(-3, 2))) == "-3/2"
    assert repr(q_int(2)) == "ScalarQ(q + q^-1)"


def test_fraction_string_shows_num_over_den():
    f = ONE / (Q(1) - Q(-1))
    s = str(f)
    assert "/" in s and "q" in s
    assert not f.is_laurent()


def test_field_identities_on_samples():
    samples = [ONE, Q(3), q_int(4), q_int(2) - Q(5),
               ONE / (Q(1) - Q(-1)), ScalarQ.from_fraction(Fraction(7, 3))]
    for a in samples:
        assert a * a.inverse() == ONE
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        assert (a / a) == ONE


def test_pow_and_inverse():
    a = q_int(3)
    assert a ** 0 == ONE
    assert a ** 3 == a * a * a
    assert a ** -2 == (a * a).inverse()
    with pytest.raises(ArithmeticError):
        ZERO.inverse()


@pytest.mark.parametrize("den", [{0: 0}, {}, {1: 0, 3: Fraction(0)}],
                         ids=["zero-constant", "empty", "zero-coefficients"])
def test_zero_denominator_raises(den):
    # an empty dict is the zero polynomial, not the default denominator 1
    with pytest.raises(ScalarError, match="zero denominator"):
        ScalarQ({0: 1}, den)


def test_q_power_shift_identity():
    assert Q(2) * Q(-2) == ONE
    assert Q(3) == Q(1) ** 3


def test_q_int_small_values():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(2) == Q(1) + Q(-1)
    assert str(q_int(3)) == "q^2 + 1 + q^-2"
    assert q_int(-3) == -q_int(3)


def test_q_int_defining_quotient():
    # [n] = (q^n - q^-n) / (q - q^-1), checked as a cleared identity.
    den = Q(1) - Q(-1)
    for n in range(0, 9):
        assert q_int(n) * den == Q(n) - Q(-n)


def test_q_int_rescaled_variable():
    den = Q(2) - Q(-2)
    for n in range(0, 7):
        assert q_int(n, d=2) * den == Q(2 * n) - Q(-2 * n)


def test_at_one_specializes_to_integers():
    for n in range(8):
        assert q_int(n).at_one() == n
        assert q_factorial(n).at_one() == math.factorial(n)
    assert q_binomial(6, 2).at_one() == 15


def test_substitute_power_matches_d_parameter():
    for n in range(6):
        assert q_int(n).substitute_power(3) == q_int(n, d=3)
        assert q_factorial(n).substitute_power(2) == q_factorial(n, d=2)


def test_q_factorial_recursion():
    assert q_factorial(0) == ONE
    for n in range(1, 8):
        assert q_factorial(n) == q_int(n) * q_factorial(n - 1)


def _binomial_by_product(n, k):
    # independent oracle: prod_{j=1}^{k} [n-k+j]/[j]
    acc = ONE
    for j in range(1, k + 1):
        acc = acc * q_int(n - k + j) / q_int(j)
    return acc


def test_q_binomial_against_product_formula():
    for n in range(9):
        for k in range(n + 1):
            assert q_binomial(n, k) == _binomial_by_product(n, k)


def test_q_binomial_pascal_rule():
    # [n choose k] = q^{n-k} [n-1 choose k-1] + q^{-k} [n-1 choose k]
    for n in range(1, 8):
        for k in range(1, n):
            lhs = q_binomial(n, k)
            rhs = Q(n - k) * q_binomial(n - 1, k - 1) \
                + Q(-k) * q_binomial(n - 1, k)
            assert lhs == rhs


def test_q_binomial_is_laurent():
    for n in range(8):
        for k in range(n + 1):
            assert q_binomial(n, k).is_laurent()


def test_q_rising_is_factorial_ratio():
    # prod_{j=1..k} [a+j] = [a+k]!/[a]! for a >= 0.
    for a in range(0, 5):
        for k in range(4):
            assert q_rising(a, k) == q_factorial(a + k) / q_factorial(a)


@settings(max_examples=60, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_ring_axioms_on_laurent_monomials(a, b, c):
    x, y, z = Q(a), Q(b) + ONE, Q(c) - Q(0)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10))
def test_q_int_addition_rule(m, n):
    # [m+n] = q^n [m] + q^-m [n]
    assert q_int(m + n) == Q(n) * q_int(m) + Q(-m) * q_int(n)


# ---------------------------------------------------------------------------
# Integer-Laurent fast path against the general constructor and sympy
# ---------------------------------------------------------------------------

coefficients = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
laurents = st.dictionaries(st.integers(-3, 3), coefficients, max_size=4)
int_laurents = st.dictionaries(st.integers(-4, 4), st.integers(-4, 4),
                               max_size=5)


@st.composite
def rational_functions(draw):
    """A ScalarQ with its (num, den) input: Laurent (den None) or a quotient,
    with negative exponents and integral or non-integral coefficients."""
    num = draw(laurents)
    if draw(st.booleans()):
        return ScalarQ(num), (num, {0: 1})
    den = draw(laurents.filter(lambda d: any(d.values())))
    return ScalarQ(num, den), (num, den)


def _assert_coefficient_types(x):
    """Integral coefficients are int, the rest Fraction (never float), and
    the shared denominator marks exactly the integer Laurent values."""
    for c in [*x._num.values(), *x._den.values()]:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
    int_laurent = x._den == {0: 1} and all(type(c) is int
                                          for c in x._num.values())
    assert (x._den is _ONE_DEN) == int_laurent


def _sym(d):
    q = sympy.Symbol("q")
    return sum((sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
                * q ** e for e, c in d.items()), sympy.Integer(0))


def _sym_canonical(expr):
    """The canonical (num, den) dicts of a sympy rational function in q: den
    a monic polynomial with nonzero constant term, any q^k moved to num."""
    q = sympy.Symbol("q")
    n, d = sympy.fraction(sympy.cancel(sympy.together(expr)))
    if n == 0:
        return {}, {0: 1}
    nt = {e: Fraction(int(c.p), int(c.q))
          for (e,), c in sympy.Poly(n, q).terms()}
    dt = {e: Fraction(int(c.p), int(c.q))
          for (e,), c in sympy.Poly(d, q).terms()}
    k, lc = min(dt), dt[max(dt)]
    return ({e - k: c / lc for e, c in nt.items()},
            {e - k: c / lc for e, c in dt.items()})


@needs_sympy
@settings(max_examples=300, deadline=None)
@given(rational_functions(), rational_functions(),
       st.sampled_from(["+", "-", "*", "/", "inverse", "**"]),
       st.integers(-3, 3))
def test_field_operations_against_sympy_cancel(a, b, op, k):
    (x, (xn, xd)), (y, (yn, yd)) = a, b
    ex, ey = _sym(xn) / _sym(xd), _sym(yn) / _sym(yd)
    if (op == "/" and y.is_zero()) or (x.is_zero() and (
            op == "inverse" or (op == "**" and k < 0))):
        with pytest.raises(ScalarError):
            {"/": lambda: x / y, "inverse": x.inverse,
             "**": lambda: x ** k}[op]()
        return
    got, want = {
        "+": (lambda: x + y, lambda: ex + ey),
        "-": (lambda: x - y, lambda: ex - ey),
        "*": (lambda: x * y, lambda: ex * ey),
        "/": (lambda: x / y, lambda: ex / ey),
        "inverse": (x.inverse, lambda: 1 / ex),
        "**": (lambda: x ** k, lambda: ex ** k),
    }[op]
    result = got()
    assert (result.num, result.den) == _sym_canonical(want())
    for z in (x, y, result):
        _assert_coefficient_types(z)


@settings(max_examples=200, deadline=None)
@given(int_laurents, int_laurents)
def test_fast_path_equals_general_constructor(a_num, b_num):
    a, b = ScalarQ(a_num), ScalarQ(b_num)
    # each fast-path value next to the value the general constructor builds
    # from the same data (for + and *, the operands of the Euclidean path)
    cases = [
        (a, ScalarQ(a_num, {0: 1})),
        (a + b, ScalarQ(_lp_add(_lp_mul(a.num, b.den), _lp_mul(b.num, a.den)),
                        _lp_mul(a.den, b.den))),
        (a - b, ScalarQ(_lp_add(a.num, _lp_neg(b.num)), {0: 1})),
        (a * b, ScalarQ(_lp_mul(a.num, b.num), _lp_mul(a.den, b.den))),
        (-a, ScalarQ(_lp_neg(a.num), {0: Fraction(1)})),
    ]
    for fast, general in cases:
        assert fast._den is _ONE_DEN
        assert fast._key == general._key
        assert hash(fast) == hash(general)
        assert str(fast) == str(general)
        assert fast == general
        _assert_coefficient_types(fast)
        _assert_coefficient_types(general)


def test_rational_laurent_values_take_the_general_path():
    # 1/2 q + 1/2 q = q: the sum of non-integral coefficients is integral
    half = ScalarQ({1: Fraction(1, 2)})
    assert half._den is not _ONE_DEN and half.is_laurent()
    for x in (half + half, half * ScalarQ.from_int(2), half / half):
        _assert_coefficient_types(x)
    assert half + half == Q(1) and (half + half)._num == {1: 1}


def test_inputs_are_stored_as_int_or_fraction():
    x = ScalarQ({0: 0.5, 1: 2.0, 2: Fraction(4, 2), 3: 0, -1: True})
    assert x._num == {0: Fraction(1, 2), 1: 2, 2: 2, -1: 1}
    _assert_coefficient_types(x)
    y = ScalarQ({0: 3.0, 2: Fraction(6)}, {1: 2.0, 0: 0.0})
    assert (y._num, y._den) == ({-1: Fraction(3, 2), 1: 3}, {0: 1})
    _assert_coefficient_types(y)
    for z in (ZERO, ONE, ScalarQ({}, {3: 5}), Q(-2), q_int(4), -Q(3)):
        _assert_coefficient_types(z)
        assert z._den is _ONE_DEN


def test_num_and_den_are_copies():
    x = q_int(3)
    x.num[0] = 7
    x.den[0] = 7
    assert str(x) == "q^2 + 1 + q^-2"
    assert _ONE_DEN == {0: 1}


# ---------------------------------------------------------------------------
# p-adic side
# ---------------------------------------------------------------------------

def _vp_naive(n, p):
    n = abs(n)
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return Fraction(v)


def test_vp_integers_against_naive_loop():
    for p in (2, 3, 5, 7):
        for n in range(-30, 31):
            assert vp(n, p) == _vp_naive(n, p)


def test_vp_fractions():
    assert vp(Fraction(3, 4), 2) == Fraction(-2)
    assert vp(Fraction(50, 3), 5) == Fraction(2)
    assert vp(Fraction(0), 7) is None


def test_vp_refuses_units_and_zero():
    # |p| < 2 has no valuation; the division loop used to spin forever
    for p in (1, -1, 0):
        with pytest.raises(ValueError):
            vp(5, p)


def test_is_prime_against_divisor_count():
    for n in range(-5, 200):
        divisors = [d for d in range(1, n + 1) if n % d == 0] if n > 0 else []
        assert is_prime(n) == (divisors == [1, n] and n > 1), n


def test_vp_factorial_legendre():
    for p in (2, 3, 5):
        for n in range(0, 40):
            direct = vp(math.factorial(n), p) or Fraction(0)
            assert vp_factorial(n, p) == direct


@settings(max_examples=60, deadline=None)
@given(st.integers(-200, 200).filter(lambda n: n != 0),
       st.integers(-200, 200).filter(lambda n: n != 0),
       st.sampled_from([2, 3, 5, 7]))
def test_vp_is_additive(a, b, p):
    assert vp(a * b, p) == vp(a, p) + vp(b, p)


def test_padic_params_validation():
    params = PadicParams(5, Fraction(1))
    assert params.exp_bound == Fraction(1, 4)
    assert params.exp_convergent()
    assert not PadicParams(5, Fraction(1, 4)).exp_convergent()
    with pytest.raises(ValueError):
        PadicParams(4, Fraction(1))
    with pytest.raises(ValueError):
        PadicParams(5, Fraction(0))


def test_valuation_bound_infinite():
    assert ValuationBound(None, True).is_infinite()
    assert not ValuationBound(Fraction(1), True).is_infinite()


def test_gauss_valuation_of_q_minus_qinv():
    # v(q - q^-1) = v(2) + vh: the difference is 2 hbar to leading order.
    f = Q(1) - Q(-1)
    for p, vh in ((5, Fraction(1)), (7, Fraction(1)), (3, Fraction(2))):
        b = gauss_valuation(f, PadicParams(p, vh))
        assert b.exact
        assert b.lower == (vp(2, p) or 0) + vh


def test_gauss_valuation_of_balanced_integers():
    # v([n]) = v_p(n) whenever exp converges.
    for p, vh in ((5, Fraction(1)), (7, Fraction(1)), (3, Fraction(2))):
        params = PadicParams(p, vh)
        for n in range(1, 21):
            b = gauss_valuation(q_int(n), params)
            assert b.exact, (p, vh, n)
            assert b.lower == (vp(n, p) or 0), (p, vh, n)


def test_gauss_valuation_of_balanced_factorials():
    params = PadicParams(5, Fraction(1))
    for n in range(1, 11):
        b = gauss_valuation(q_factorial(n), params)
        assert b.exact
        assert b.lower == (vp(math.factorial(n), 5) or 0)


def test_gauss_valuation_zero_is_infinite():
    b = gauss_valuation(ZERO, PadicParams(5, Fraction(1)))
    assert b.is_infinite()
