"""Exact Laurent-fraction arithmetic and p-adic valuations."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqbench.scalars as scalars
from uqbench.scalars import (_ONE_DEN, PadicParams, ScalarError, ScalarQ,
                             ValuationBound, _laurent, _lp_add, _lp_mul,
                             _lp_neg, _poly_gcd, _primitive, _reduced,
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
    assert ScalarQ({0: Fraction(2, 2)}) == ONE


def test_laurent_canonical_strings():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q(5) + Q(1) + Q(-3)) == "q^5 + q + q^-3"
    assert str(ScalarQ({0: Fraction(-3, 2)})) == "-3/2"
    assert repr(q_int(2)) == "ScalarQ(q + q^-1)"


def test_fraction_string_shows_num_over_den():
    f = ONE / (Q(1) - Q(-1))
    s = str(f)
    assert "/" in s and "q" in s
    assert not f.is_laurent()


def test_field_identities_on_samples():
    samples = [ONE, Q(3), q_int(4), q_int(2) - Q(5),
               ONE / (Q(1) - Q(-1)), ScalarQ({0: Fraction(7, 3)})]
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


def _at_one(x):
    """x evaluated at q = 1: the coefficient sums of numerator and denominator."""
    return Fraction(sum(x.num.values())) / sum(x.den.values())


def _substitute_power(x, d):
    """The image of x under q -> q^d."""
    return ScalarQ({e * d: c for e, c in x.num.items()},
                   {e * d: c for e, c in x.den.items()})


def test_at_one_specializes_to_integers():
    for n in range(8):
        assert _at_one(q_int(n)) == n
        assert _at_one(q_factorial(n)) == math.factorial(n)
    assert _at_one(q_binomial(6, 2)) == 15


def test_substitute_power_matches_d_parameter():
    for n in range(6):
        assert _substitute_power(q_int(n), 3) == q_int(n, d=3)
        assert _substitute_power(q_factorial(n), 2) == q_factorial(n, d=2)


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


def test_q_binomial_matches_division_in_q_of_q():
    # the exact Z[q] division against the field division it replaced
    for d in (1, 2, 3):
        for n in range(-8, 11):
            for k in range(-1, 9):
                want = ZERO if k < 0 else ONE
                if k > 0:
                    num = ONE
                    for j in range(1, k + 1):
                        num = num * q_int(n - j + 1, d)
                    want = num / q_factorial(k, d)
                got = q_binomial(n, k, d)
                assert got == want and str(got) == str(want)
                assert got._den is _ONE_DEN


def test_q_int_is_canonical():
    for d in (1, 2):
        for n in range(-5, 6):
            x = q_int(n, d)
            assert x == ScalarQ(dict(x._num))
            assert x._den is _ONE_DEN


def _reference_str(x):
    # the general formatting, through the monic `num` and `den` copies
    ns = ScalarQ._fmt_laurent(x.num)
    return ns if x.is_laurent() else f"({ns})/({ScalarQ._fmt_laurent(x.den)})"


def test_str_matches_the_reference_formatting():
    samples = [ZERO, ONE, -ONE, ScalarQ.from_int(-7), ScalarQ.from_int(12),
               Q(1), Q(-1), -Q(4), Q(5) - Q(2) * ScalarQ.from_int(3) + ONE,
               q_int(4) - Q(-6), q_binomial(5, 2, 2),
               ScalarQ({0: Fraction(-3, 2)}),
               ONE / (Q(1) - Q(-1)),
               ScalarQ({2: 3, 0: -1}, {1: 2, 0: 4}),
               ScalarQ({0: -5}, {3: -3, 1: 1, 0: 2}),
               ScalarQ({1: Fraction(1, 2)}, {2: 3, 0: 1})]
    assert any(not x.is_laurent() and x._den[max(x._den)] != 1 for x in samples)
    for x in samples:
        assert str(x) == _reference_str(x)
        assert repr(x) == f"ScalarQ({_reference_str(x)})"


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
    """A ScalarQ with its (num, den) input: Laurent (no den given) or a quotient,
    with negative exponents and integral or non-integral coefficients."""
    num = draw(laurents)
    if draw(st.booleans()):
        return ScalarQ(num), (num, {0: 1})
    den = draw(laurents.filter(lambda d: any(d.values())))
    return ScalarQ(num, den), (num, den)


def _assert_canonical(x):
    """Only int coefficients are stored; the denominator is a polynomial with
    nonzero constant term and positive leading coefficient; numerator and
    denominator share no integer content and no polynomial factor; and the
    shared denominator marks exactly the denominator 1."""
    for c in [*x._num.values(), *x._den.values()]:
        assert type(c) is int, c
    assert min(x._den) == 0 and x._den[max(x._den)] > 0, x._den
    assert math.gcd(*x._num.values(), *x._den.values()) == 1
    if len(x._num) > 1 and len(x._den) > 1:
        k = min(x._num)
        g = _poly_gcd(_primitive({e - k: c for e, c in x._num.items()}),
                      _primitive(x._den))
        assert max(g) == 0, (x._num, x._den)
    assert (x._den is _ONE_DEN) == (x._den == {0: 1})


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
        _assert_canonical(z)


@settings(max_examples=200, deadline=None)
@given(int_laurents, int_laurents)
def test_fast_path_equals_general_constructor(a_num, b_num):
    a, b = ScalarQ(a_num), ScalarQ(b_num)
    # each fast-path value next to the value the general constructor builds
    # from the same data (for + and *, the operands of the general path);
    # ScalarQ(num) also next to `_laurent` of the same dict
    cases = [
        (a, ScalarQ(a_num, {0: 1})),
        (a, _laurent({e: c for e, c in a_num.items() if c})),
        (a + b, ScalarQ(_lp_add(_lp_mul(a.num, b.den), _lp_mul(b.num, a.den)),
                        _lp_mul(a.den, b.den))),
        (a - b, ScalarQ(_lp_add(a.num, _lp_neg(b.num)), {0: 1})),
        (a * b, ScalarQ(_lp_mul(a.num, b.num), _lp_mul(a.den, b.den))),
        (-a, ScalarQ(_lp_neg(a.num), {0: Fraction(1)})),
    ]
    for fast, general in cases:
        assert fast._den is _ONE_DEN
        assert fast._num == general._num and fast._den == general._den
        assert hash(fast) == hash(general)
        assert str(fast) == str(general)
        assert fast == general
        _assert_canonical(fast)
        _assert_canonical(general)


def _laurent_input(num):
    return ScalarQ(num), (num, {0: 1})


@settings(max_examples=200, deadline=None)
@given(st.one_of(int_laurents.map(_laurent_input), rational_functions()),
       rational_functions())
def test_every_route_gives_one_dict_key(x_input, y_input):
    # equality compares the canonical dicts and the hash is computed from
    # them on first use, so a value built by any route finds the same key
    x, (num, den) = x_input
    y = y_input[0]
    routes = [ScalarQ(num, den), -(-x), x * ONE]
    if y:
        routes.append((x * y) / y)
    if den == {0: 1} and all(type(c) is int for c in num.values()):
        routes.append(_laurent({e: c for e, c in num.items() if c}))
    table = {x: "x"}
    for r in routes:
        assert r == x and not r != x
        assert hash(r) == hash(x)
        assert table[r] == "x"
        assert str(r) == str(x)
        _assert_canonical(r)
    assert len({x, *routes}) == 1
    assert hash(x) == x._hash


def _general(num, den):
    """num/den through the general constructor: copies of the dicts, so no
    fast path applies."""
    return ScalarQ(dict(num), dict(den))


@needs_sympy
@settings(max_examples=200, deadline=None)
@given(int_laurents,
       rational_functions().filter(lambda x: x[0]._den is not _ONE_DEN),
       st.integers(-3, 3), st.integers(-4, 4).filter(bool))
def test_gcd_free_routes_against_the_general_constructor_and_sympy(
        a_num, x_input, k, c):
    # a Laurent, x = n/d with d != 1, and the monomial c q^k: every route
    # that skips the gcd next to the general constructor and sympy.cancel
    a, mono = ScalarQ(a_num), ScalarQ({k: c})
    x, (xn, xd) = x_input
    ea, ex, em = _sym(a_num), _sym(xn) / _sym(xd), _sym({k: c})
    plus = _general(_lp_add(_lp_mul(a._num, x._den), x._num), x._den)
    times = _general(_lp_mul(mono._num, x._num), x._den)
    cases = [
        (a + x, plus, ea + ex),
        (x + a, plus, ex + ea),
        (x.inverse(), _general(x._den, x._num), 1 / ex),
        (mono * x, times, em * ex),
        (x * mono, times, ex * em),
    ]
    if a:
        cases.append((a.inverse(), _general({0: 1}, a._num), 1 / ea))
    for got, general, expr in cases:
        assert got._num == general._num and got._den == general._den
        assert got == general and hash(got) == hash(general)
        assert (got.num, got.den) == _sym_canonical(expr)
        _assert_canonical(got)


def test_monomial_times_rational_divides_out_the_content():
    # 2q * 1/(2q + 2) = q/(q + 1): only the integer content can cancel
    x = ScalarQ({1: 2}) * ScalarQ({0: 1}, {0: 2, 1: 2})
    assert (x._num, x._den) == ({1: 1}, {0: 1, 1: 1})
    assert x == ScalarQ({1: 1}, {0: 1, 1: 1}) and str(x) == "(q)/(q + 1)"
    y = ScalarQ({0: -6}, {0: 1}) * ScalarQ({2: 1}, {0: 3, 1: 3})
    assert (y._num, y._den) == ({2: -2}, {0: 1, 1: 1})
    _assert_canonical(x)
    _assert_canonical(y)


def test_assert_canonical_catches_a_common_factor():
    # _reduced trusts its caller to have no common polynomial factor; a
    # route that broke that promise would fail every _assert_canonical
    bad = _reduced({1: 1, 2: 1}, {0: 2, 1: 3, 2: 1})  # q(q+1)/((q+1)(q+2))
    with pytest.raises(AssertionError):
        _assert_canonical(bad)
    _assert_canonical(_reduced({1: 1}, {0: 2, 1: 1}))


def test_hash_ignores_dict_insertion_order():
    a, b = _laurent({2: 1, 0: -3, -1: 5}), _laurent({-1: 5, 0: -3, 2: 1})
    assert list(a._num) != list(b._num)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert q_int(3) != Q(2) + Q(-2) and ONE != ZERO and ZERO == -ZERO


def test_rational_laurent_values_have_a_constant_denominator():
    # 1/2 q + 1/2 q = q: the sum of non-integral coefficients is integral
    half = ScalarQ({1: Fraction(1, 2)})
    assert (half._num, half._den) == ({1: 1}, {0: 2}) and half.is_laurent()
    for x in (half + half, half * ScalarQ.from_int(2), half / half):
        _assert_canonical(x)
    assert half + half == Q(1) and (half + half)._num == {1: 1}
    assert (half + half)._den is _ONE_DEN


def test_inputs_are_stored_over_the_integers():
    x = ScalarQ({0: 0.5, 1: 2.0, 2: Fraction(4, 2), 3: 0, -1: True})
    assert x.num == {0: Fraction(1, 2), 1: 2, 2: 2, -1: 1}
    assert (x._num, x._den) == ({0: 1, 1: 4, 2: 4, -1: 2}, {0: 2})
    _assert_canonical(x)
    y = ScalarQ({0: 3.0, 2: Fraction(6)}, {1: 2.0, 0: 0.0})
    assert (y.num, y.den) == ({-1: Fraction(3, 2), 1: 3}, {0: 1})
    assert (y._num, y._den) == ({-1: 3, 1: 6}, {0: 2})
    _assert_canonical(y)
    for z in (ZERO, ONE, ScalarQ({}, {3: 5}), Q(-2), q_int(4), -Q(3)):
        _assert_canonical(z)
        assert z._den is _ONE_DEN


@pytest.mark.parametrize("num, den, stored, text", [
    # (2q+1)(q+3) / ((2q+1)(q-1)): a common factor with leading coefficient 2
    ({0: 3, 1: 7, 2: 2}, {0: -1, 1: -1, 2: 2},
     ({0: 3, 1: 1}, {0: -1, 1: 1}), "(q + 3)/(q - 1)"),
    # (3q+1)(q+2) / ((3q+1)(2q+1)): pseudo-division must scale the dividend
    ({0: 2, 1: 7, 2: 3}, {0: 1, 1: 5, 2: 6},
     ({0: 2, 1: 1}, {0: 1, 1: 2}), "(1/2*q + 1)/(q + 1/2)"),
    # 6(q+1)^2 / (-3(q+1)(q-1)(q+3)): a remainder with integer content
    ({0: 6, 1: 12, 2: 6}, {0: 9, 1: 3, 2: -9, 3: -3},
     ({0: -2, 1: -2}, {0: -3, 1: 2, 2: 1}), "(-2*q - 2)/(q^2 + 2*q - 3)"),
    # (-2q-2) / (4q+4): integer content and sign
    ({0: -2, 1: -2}, {0: 4, 1: 4}, ({0: -1}, {0: 2}), "-1/2"),
    ({0: 0.5}, {0: 1}, ({0: 1}, {0: 2}), "1/2"),
], ids=["non-monic-factor", "scaled-remainder", "remainder-content",
        "content-and-sign", "float"])
def test_integer_normal_form(num, den, stored, text):
    x = ScalarQ(num, den)
    assert (x._num, x._den) == stored
    assert str(x) == text
    _assert_canonical(x)
    with pytest.raises(ScalarError, match="zero denominator"):
        ScalarQ(num, {})


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
    # lower = None encodes +infinity: the valuation of zero, and of no unit
    params = PadicParams(5, Fraction(1))
    assert gauss_valuation(ZERO, params) == ValuationBound(None, True)
    assert gauss_valuation(Q(3), params) == ValuationBound(Fraction(0), True)


def test_gauss_valuation_with_a_non_monic_denominator():
    # q/3 is stored as q over the non-monic 3, so `num` is q/3 in Fractions
    f = ScalarQ({1: 1}, {0: 3})
    assert f.num == {1: Fraction(1, 3)}
    assert gauss_valuation(f, PadicParams(3, Fraction(1))) == \
        ValuationBound(Fraction(-1), True)
    # (q+1)/3: a constant denominator is Laurent and still carries v_3(3)
    f = ScalarQ({0: 1, 1: 1}, {0: 3})
    assert f.is_laurent()
    assert gauss_valuation(f, PadicParams(3, Fraction(1))) == \
        ValuationBound(Fraction(-1), True)


def test_gauss_valuation_expands_only_int_coefficients(monkeypatch):
    # the stored numerator and denominator are int, and the valuation reads
    # them as they are, never the monic Fraction forms `num` and `den`
    seen = []
    inner = scalars._laurent_gauss

    def spy(poly, params):
        seen.extend(poly.values())
        return inner(poly, params)

    monkeypatch.setattr(scalars, "_laurent_gauss", spy)
    params = PadicParams(3, Fraction(1))
    values = [ScalarQ({1: 1}, {0: 3}), ScalarQ({0: 1, 1: 1}, {0: 3}),
              ScalarQ({0: 2, 2: 5}, {0: 1, 1: 3}), ScalarQ({0: 7}, {0: 6}),
              ScalarQ({0: 1}, {0: 2, 1: 9}), q_int(4), Q(1) - Q(-1)]
    for f in values:
        gauss_valuation(f, params)
    assert seen and all(type(c) is int for c in seen)


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
    assert b.lower is None
