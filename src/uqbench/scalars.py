"""Exact arithmetic in the rational function field Q(q), balanced q-combinatorics,
and Gauss valuations for the substitution q = exp(hbar) over Q_p.

Elements of Q(q) are kept as reduced fractions of Laurent polynomials with
rational coefficients.  The canonical form fixes the denominator to be an
honest polynomial in q with nonzero constant term and leading coefficient 1,
with any monomial unit q^k folded into the numerator.  Equality of canonical
forms is therefore plain representational equality, which keeps hash-based
memo tables sound.

A stored coefficient is an int when it is integral and a Fraction otherwise
(never a float); int and Fraction agree on ==, hash and str, so keys and
printed forms do not depend on the type.  Every integer Laurent polynomial
(denominator 1, int coefficients) stores the one shared denominator dict
`_ONE_DEN`.  `+` and `*` of two such values skip the normalisation: a sum or
product of integer Laurent polynomials is again one, with denominator 1, and
has no zero coefficient after `_lp_add`/`_lp_mul`, so it is canonical as it
stands.  A numerator given without a denominator is canonical for the same
reason.  Every other value, Laurent polynomials with non-integral
coefficients included (their sums can become integral), goes through the
Euclidean normalisation.

The valuation side interprets q as exp(hbar) with v_p(hbar) = vh.  Then
v(q - 1) = vh whenever vh > 1/(p-1) (the convergence disc of exp), and the
valuation of a Laurent polynomial is bounded below by the Gauss minimum
min_k (v_p(c_k) + k*vh) of its expansion sum c_k (q-1)^k.  The bound is the
exact valuation precisely when the minimum is attained by a unique k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Mapping


class ScalarError(ArithmeticError):
    """Division by zero or a malformed scalar operation."""


class ValuationError(ArithmeticError):
    """A valuation query whose certified answer cannot be produced."""


# ---------------------------------------------------------------------------
# Laurent polynomial helpers.  A Laurent polynomial is a dict {exponent: coeff}
# with int exponents, int or Fraction coefficients, and no zero values stored.
# ---------------------------------------------------------------------------

def _lp_clean(d: Mapping[int, Fraction]) -> dict[int, Fraction]:
    return {e: c for e, c in d.items() if c != 0}


def _lp_add(a: Mapping[int, Fraction], b: Mapping[int, Fraction]) -> dict[int, Fraction]:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _lp_neg(a: Mapping[int, Fraction]) -> dict[int, Fraction]:
    return {e: -c for e, c in a.items()}


def _lp_mul(a: Mapping[int, Fraction], b: Mapping[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _lp_shift(a: Mapping[int, Fraction], k: int) -> dict[int, Fraction]:
    return {e + k: c for e, c in a.items()}


def _poly_from_laurent(a: Mapping[int, Fraction]) -> tuple[dict[int, Fraction], int]:
    """Split a nonzero Laurent polynomial as q^shift * (polynomial with nonzero
    constant term); returns (polynomial, shift)."""
    m = min(a)
    return _lp_shift(a, -m), m


def _poly_degree(a: Mapping[int, Fraction]) -> int:
    return max(a)


def _poly_divmod(num: Mapping[int, Fraction], den: Mapping[int, Fraction]) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """Long division for ordinary polynomials (all exponents >= 0)."""
    num = dict(num)
    q: dict[int, Fraction] = {}
    dd = _poly_degree(den)
    dlc = den[dd]
    while num and _poly_degree(num) >= dd:
        d = _poly_degree(num)
        c = num[d] / dlc
        q[d - dd] = c
        for e, cc in den.items():
            e2 = e + d - dd
            s = num.get(e2, Fraction(0)) - c * cc
            if s == 0:
                num.pop(e2, None)
            else:
                num[e2] = s
    return q, num


def _poly_gcd(a: Mapping[int, Fraction], b: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """Monic gcd by the Euclidean algorithm; cheap exits for unit inputs."""
    a, b = dict(a), dict(b)
    while b:
        if _poly_degree(b) == 0:
            return {0: Fraction(1)}
        _, r = _poly_divmod(a, b)
        a, b = b, r
    lc = a[_poly_degree(a)]
    return {e: c / lc for e, c in a.items()}


# ---------------------------------------------------------------------------
# ScalarQ
# ---------------------------------------------------------------------------

# The denominator of every integer Laurent polynomial (denominator 1, int
# coefficients only), shared by all of them: `x._den is _ONE_DEN` is the
# fast-path test.  No stored dict is ever mutated.
_ONE_DEN: dict[int, int] = {0: 1}
_ONE_DEN_KEY = ((0, 1),)


def _int_if_integral(c: Fraction) -> Fraction | int:
    return c.numerator if c.denominator == 1 else c


def _laurent_den(num: Mapping[int, Fraction | int]) -> dict[int, int]:
    """The denominator to store for the canonical Laurent numerator `num`:
    the shared `_ONE_DEN` when every coefficient is an int, else a fresh
    {0: 1} (a sum of rational coefficients can be integral, so such values
    must take the general path)."""
    if all(type(c) is int for c in num.values()):
        return _ONE_DEN
    return {0: 1}


class ScalarQ:
    """An element of Q(q) in canonical reduced form.

    Internally a pair of Laurent-coefficient maps (num, den) with den a
    monic polynomial of nonzero constant term, gcd(num-part, den) = 1.
    Instances are immutable and hashable.
    """

    __slots__ = ("_num", "_den", "_key", "__weakref__")

    def __init__(self, num: Mapping[int, Fraction | int], den: Mapping[int, Fraction | int] | None = None):
        if den is None:
            # A Laurent polynomial is canonical as given: drop zeros and
            # store integral coefficients as int.
            n = {}
            for e, c in num.items():
                if type(c) is not int:
                    c = _int_if_integral(Fraction(c))
                if c:
                    n[int(e)] = c
            self._num = n
            self._den = _laurent_den(n)
            self._key = (tuple(sorted(n.items())), _ONE_DEN_KEY)
            return
        n = _lp_clean({int(e): Fraction(c) for e, c in num.items()})
        d = _lp_clean({int(e): Fraction(c) for e, c in den.items()})
        if not d:
            raise ScalarError("zero denominator")
        if not n:
            self._num: dict[int, Fraction | int] = {}
            self._den: dict[int, Fraction | int] = _ONE_DEN
        else:
            npoly, nshift = _poly_from_laurent(n)
            dpoly, dshift = _poly_from_laurent(d)
            if _poly_degree(dpoly) > 0 and _poly_degree(npoly) > 0:
                g = _poly_gcd(npoly, dpoly)
                if _poly_degree(g) > 0:
                    npoly, _ = _poly_divmod(npoly, g)
                    dpoly, _ = _poly_divmod(dpoly, g)
            lc = dpoly[_poly_degree(dpoly)]
            shift = nshift - dshift
            self._num = {e + shift: _int_if_integral(c / lc) for e, c in npoly.items()}
            if len(dpoly) == 1:
                self._den = _laurent_den(self._num)
            else:
                self._den = {e: _int_if_integral(c / lc) for e, c in dpoly.items()}
        self._key = (
            tuple(sorted(self._num.items())),
            tuple(sorted(self._den.items())),
        )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ScalarQ":
        return ScalarQ({})

    @staticmethod
    def one() -> "ScalarQ":
        return ScalarQ({0: 1})

    @staticmethod
    def from_int(n: int) -> "ScalarQ":
        return ScalarQ({0: n})

    @staticmethod
    def from_fraction(x: Fraction) -> "ScalarQ":
        return ScalarQ({0: x})

    @staticmethod
    def q_power(k: int) -> "ScalarQ":
        return ScalarQ({k: 1})

    # -- structure ---------------------------------------------------------

    @property
    def num(self) -> dict[int, Fraction]:
        return dict(self._num)

    @property
    def den(self) -> dict[int, Fraction]:
        return dict(self._den)

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_one(self) -> bool:
        return self._num == {0: 1} and self._den == {0: 1}

    def is_laurent(self) -> bool:
        return self._den == {0: 1}

    def __hash__(self):
        return hash(self._key)

    def __eq__(self, other):
        if not isinstance(other, ScalarQ):
            return NotImplemented
        return self._key == other._key

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ScalarQ") -> "ScalarQ":
        if self._den is _ONE_DEN and other._den is _ONE_DEN:
            return _laurent(_lp_add(self._num, other._num))
        if self._den == other._den:
            return ScalarQ(_lp_add(self._num, other._num), self._den)
        return ScalarQ(
            _lp_add(_lp_mul(self._num, other._den), _lp_mul(other._num, self._den)),
            _lp_mul(self._den, other._den),
        )

    def __neg__(self) -> "ScalarQ":
        out = object.__new__(ScalarQ)
        out._num = _lp_neg(self._num)
        out._den = self._den
        out._key = (tuple((e, -c) for e, c in self._key[0]), self._key[1])
        return out

    def __sub__(self, other: "ScalarQ") -> "ScalarQ":
        return self + (-other)

    def __mul__(self, other: "ScalarQ") -> "ScalarQ":
        if self._den is _ONE_DEN and other._den is _ONE_DEN:
            return _laurent(_lp_mul(self._num, other._num))
        if self.is_zero() or other.is_zero():
            return ScalarQ.zero()
        return ScalarQ(_lp_mul(self._num, other._num), _lp_mul(self._den, other._den))

    def inverse(self) -> "ScalarQ":
        if self.is_zero():
            raise ScalarError("inverse of zero")
        return ScalarQ(self._den, self._num)

    def __truediv__(self, other: "ScalarQ") -> "ScalarQ":
        return self * other.inverse()

    def __pow__(self, k: int) -> "ScalarQ":
        if k < 0:
            return self.inverse() ** (-k)
        out = ScalarQ.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- evaluation and display ---------------------------------------------

    def at_one(self) -> Fraction:
        """Evaluate at q = 1 (denominator must not vanish there)."""
        dv = sum(self._den.values(), Fraction(0))
        if dv == 0:
            raise ScalarError("denominator vanishes at q = 1")
        return sum(self._num.values(), Fraction(0)) / dv

    def substitute_power(self, d: int) -> "ScalarQ":
        """The image under q -> q^d (d a nonzero integer)."""
        if d == 0:
            raise ScalarError("q -> q^0 is not a field map")
        return ScalarQ({e * d: c for e, c in self._num.items()},
                       {e * d: c for e, c in self._den.items()})

    @staticmethod
    def _fmt_laurent(d: Mapping[int, Fraction]) -> str:
        if not d:
            return "0"
        parts = []
        for e in sorted(d, reverse=True):
            c = d[e]
            if e == 0:
                term = str(c) if c > 0 else f"-{-c}"
                parts.append(("+ " if c > 0 else "- ") + term.lstrip("-"))
                continue
            mag = -c if c < 0 else c
            if mag == 1:
                body = ""
            else:
                body = f"{mag}*"
            qq = "q" if e == 1 else f"q^{e}"
            parts.append(("+ " if c > 0 else "- ") + body + qq)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def __str__(self) -> str:
        ns = self._fmt_laurent(self._num)
        if self.is_laurent():
            return ns
        ds = self._fmt_laurent(self._den)
        return f"({ns})/({ds})"

    def __repr__(self) -> str:
        return f"ScalarQ({self})"


def _laurent(num: dict[int, int]) -> ScalarQ:
    """The ScalarQ of an integer Laurent polynomial, which is canonical as it
    stands: no gcd, no shift, no coefficient conversion.  `num` must have int
    coefficients and no zeros; the new value owns it."""
    out = object.__new__(ScalarQ)
    out._num = num
    out._den = _ONE_DEN
    out._key = (tuple(sorted(num.items())), _ONE_DEN_KEY)
    return out


# ---------------------------------------------------------------------------
# Balanced q-combinatorics.  All functions take an optional d >= 1 and work in
# q_d := q^d, so `q_int(n, d)` is the balanced [n] in the rescaled variable.
# ---------------------------------------------------------------------------

def q_int(n: int, d: int = 1) -> ScalarQ:
    """Balanced q-integer [n] = q^(n-1) + q^(n-3) + ... + q^(-n+1) in q^d."""
    if n == 0:
        return ScalarQ.zero()
    if n < 0:
        return -q_int(-n, d)
    return ScalarQ({d * (n - 1 - 2 * k): 1 for k in range(n)})


def q_factorial(n: int, d: int = 1) -> ScalarQ:
    if n < 0:
        raise ScalarError("q-factorial of a negative integer")
    out = ScalarQ.one()
    for m in range(2, n + 1):
        out = out * q_int(m, d)
    return out


def q_binomial(n: int, k: int, d: int = 1) -> ScalarQ:
    """Balanced q-binomial [n choose k]; a Laurent polynomial for all integer n.

    Computed multiplicatively as prod_{j=1..k} [n-j+1]/[j]; the division is
    exact so the result carries denominator 1.
    """
    if k < 0:
        return ScalarQ.zero()
    if k == 0:
        return ScalarQ.one()
    num = ScalarQ.one()
    for j in range(1, k + 1):
        num = num * q_int(n - j + 1, d)
    out = num / q_factorial(k, d)
    return out


def q_rising(a: int, k: int, d: int = 1) -> ScalarQ:
    """The factorial ratio [a+k]!/[a]! read as prod_{j=1..k} [a+j], which is
    well defined for every integer a (including negative)."""
    out = ScalarQ.one()
    for j in range(1, k + 1):
        out = out * q_int(a + j, d)
    return out


# ---------------------------------------------------------------------------
# p-adic layer
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    """Trial division; False for every n < 2."""
    return n >= 2 and all(n % r for r in range(2, isqrt(n) + 1))


@dataclass(frozen=True)
class PadicParams:
    """The pair (p, vh) with p an odd prime and vh = v_p(hbar) > 0.

    Operations that interpret q = exp(hbar) additionally require
    vh > 1/(p-1) (the exp convergence disc); they check `exp_convergent`
    and refuse otherwise.  The constructor itself only demands vh > 0 so
    that boundary and failing parameter points can still be expressed.
    """

    p: int
    vh: Fraction

    def __post_init__(self):
        if self.p == 2 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        object.__setattr__(self, "vh", Fraction(self.vh))
        if self.vh <= 0:
            raise ValueError("vh must be positive")

    @property
    def exp_bound(self) -> Fraction:
        return Fraction(1, self.p - 1)

    def exp_convergent(self) -> bool:
        return self.vh > self.exp_bound


@dataclass(frozen=True)
class ValuationBound:
    """A certified lower bound for a valuation; `exact` means equality holds.

    `lower = None` encodes +infinity (the element was zero)."""

    lower: Fraction | None
    exact: bool

    def is_infinite(self) -> bool:
        return self.lower is None


def vp(n: int | Fraction, p: int) -> Fraction | None:
    """p-adic valuation of a rational; None encodes +infinity (input 0).

    |p| must be at least 2: for p = 0 or +-1 there is no valuation, and the
    division loop would never end."""
    if abs(p) < 2:
        raise ValueError(f"no p-adic valuation for p = {p}")
    x = Fraction(n)
    if x == 0:
        return None
    v = 0
    a = x.numerator
    while a % p == 0:
        a //= p
        v += 1
    b = x.denominator
    while b % p == 0:
        b //= p
        v -= 1
    return Fraction(v)


def vp_factorial(n: int, p: int) -> Fraction:
    """v_p(n!) by the digit-sum form (n - s_p(n))/(p-1)."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    s, m = 0, n
    while m:
        s += m % p
        m //= p
    return Fraction(n - s, p - 1)


def _laurent_gauss(poly: Mapping[int, Fraction], params: PadicParams) -> ValuationBound:
    """Gauss bound for a nonzero Laurent polynomial under q = exp(hbar).

    The monomial unit q^k has valuation 0, so only the polynomial part
    matters; it is expanded exactly in u = q - 1 by shifted binomials.
    """
    base, _shift = _poly_from_laurent(poly)
    deg = _poly_degree(base)
    coeffs = [Fraction(0)] * (deg + 1)
    for e, c in base.items():
        # q^e = (1+u)^e; binomial row
        b = 1
        for k in range(e + 1):
            coeffs[k] += c * b
            b = b * (e - k) // (k + 1)
    vals = []
    for k, c in enumerate(coeffs):
        v = vp(c, params.p)
        if v is not None:
            vals.append(v + k * params.vh)
    best = min(vals)
    return ValuationBound(lower=best, exact=vals.count(best) == 1)


def gauss_valuation(f: ScalarQ, params: PadicParams) -> ValuationBound:
    """Certified lower bound (exact when flagged) for v(f(exp hbar)).

    For a quotient the valuation is the difference of numerator and
    denominator valuations; when the denominator's Gauss minimum is tied the
    difference cannot be certified and a ValuationError is raised instead of
    returning an uncertified number.
    """
    if not params.exp_convergent():
        raise ValuationError(
            f"gauss valuation needs vh > 1/(p-1) = {params.exp_bound}; got vh = {params.vh}"
        )
    if f.is_zero():
        return ValuationBound(lower=None, exact=True)
    nb = _laurent_gauss(f.num, params)
    if f.is_laurent():
        return nb
    db = _laurent_gauss(f.den, params)
    if not db.exact:
        raise ValuationError("denominator valuation not certified (tied Gauss minimum)")
    return ValuationBound(lower=nb.lower - db.lower, exact=nb.exact)
