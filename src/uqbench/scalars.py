"""Exact arithmetic in the rational function field Q(q), balanced q-combinatorics,
and Gauss valuations for the substitution q = exp(hbar) over Q_p.

Elements of Q(q) are kept as reduced fractions n/d of Laurent polynomials
with integer coefficients.  In canonical form d is an honest polynomial in q
with nonzero constant term and positive leading coefficient, any monomial
unit q^k is folded into n, and n and d are coprime in Z[q, q^-1], their
integer contents included.  That form is unique, so `==` compares the
canonical numerator and denominator dicts and is still exact equality, and
the hash, computed from those dicts on first use and cached, keeps
hash-based memo tables sound; no value builds a key it may never need.
The constructor is the one routine that brings any n/d with rational
coefficients to it: clear denominators, shift to polynomials,
divide both exactly by the gcd of their primitive parts (`_poly_gcd`, a
primitive remainder sequence), then by their common integer content, signed
so that d leads positive.  `num` and `den` give the same value over the
monic denominator, as printed.

Every integer Laurent polynomial (denominator 1) stores the one shared
denominator dict `_ONE_DEN`.  `ScalarQ(num)` with int coefficients, and `+`
and `*` of two such values, skip the normalisation: a sum or product of
integer Laurent polynomials is again one, and has no zero coefficient after
`_lp_add`/`_lp_mul`, so it is canonical as it stands.  Three more routes skip
only the gcd, since no polynomial factor can cancel, and go through the
shift, content and sign step `_reduced` that ends the constructor: the
inverse of a canonical n/d, a Laurent a plus a canonical c/d, which is
(a d + c)/d, and a monomial c q^k times a canonical n/d.  A product with a
factor equal to one builds nothing: `*` returns the other factor itself.
Sharing it is sound because values are immutable, no stored dict is ever
mutated, and every canonical 1 has the shared denominator `_ONE_DEN`, so
the test is one identity check and one small dict compare.

The valuation side interprets q as exp(hbar) with v_p(hbar) = vh.  Then
v(q - 1) = vh whenever vh > 1/(p-1) (the convergence disc of exp), and the
valuation of a Laurent polynomial is bounded below by the Gauss minimum
min_k (v_p(c_k) + k*vh) of its expansion sum c_k (q-1)^k.  The bound is the
exact valuation precisely when the minimum is attained by a unique k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .errors import ConfigError


class ScalarError(ArithmeticError):
    """Division by zero or a malformed scalar operation."""


class ValuationError(ArithmeticError):
    """A valuation query whose certified answer cannot be produced."""


# ---------------------------------------------------------------------------
# Laurent polynomial helpers.  A Laurent polynomial is a dict {exponent: coeff}
# with int exponents, int coefficients, and no zero values stored.
# ---------------------------------------------------------------------------

def _lp_add(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _lp_neg(a: Mapping[int, int]) -> dict[int, int]:
    return {e: -c for e, c in a.items()}


def _lp_mul(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _pseudo_divmod(a: Mapping[int, int], b: Mapping[int, int]) -> tuple[dict[int, int], dict[int, int]]:
    """Divide a by b != 0 in Z[q] (all exponents >= 0): (quot, rem) with
    c*a = quot*b + rem and deg rem < deg b, for some integer c > 0.  c grows
    only at a leading coefficient that lc(b) does not divide, so c = 1 and
    the quotient is exact when b divides a in Z[q]."""
    db = max(b)
    lb = b[db]
    quot: dict[int, int] = {}
    rem = dict(a)
    for d in range(max(rem, default=-1), db - 1, -1):
        lead = rem.get(d)
        if lead is None:
            continue
        if lead % lb:
            m = abs(lb) // gcd(lead, lb)
            quot = {e: c * m for e, c in quot.items()}
            rem = {e: c * m for e, c in rem.items()}
            lead *= m
        k = lead // lb
        quot[d - db] = k
        for e, c in b.items():
            e += d - db
            s = rem.get(e, 0) - k * c
            if s == 0:
                rem.pop(e, None)
            else:
                rem[e] = s
    return quot, rem


def _poly_gcd(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """The gcd in Z[q], up to sign, of two primitive polynomials, b nonzero.
    Primitive remainder sequence: each pseudo-remainder is divided by its
    integer content, which keeps the gcd primitive and no coefficient larger
    than it needs to be; a constant remainder means the gcd is 1."""
    while b:
        if max(b) == 0:
            return {0: 1}
        _, r = _pseudo_divmod(a, b)
        a, b = b, _primitive(r)
    return a


def _primitive(a: Mapping[int, int]) -> dict[int, int]:
    """a divided by the gcd of its coefficients."""
    content = gcd(*a.values())
    return {e: c // content for e, c in a.items()}


# ---------------------------------------------------------------------------
# ScalarQ
# ---------------------------------------------------------------------------

# The denominator of every integer Laurent polynomial, shared by all of them:
# `x._den is _ONE_DEN` is the fast-path test.  No stored dict is ever mutated.
_ONE_DEN: dict[int, int] = {0: 1}
# The numerator of one, compared against, never stored.
_ONE_NUM: dict[int, int] = {0: 1}


class ScalarQ:
    """An element of Q(q) in canonical reduced form.

    Internally a pair of integer Laurent-coefficient maps (num, den) with den
    a polynomial of nonzero constant term and positive leading coefficient,
    num and den coprime over Z.  Instances are immutable and hashable.
    Equality compares the canonical dicts; the hash is computed on first use
    and cached in the `_hash` slot, which stays unset until then.
    """

    __slots__ = ("_num", "_den", "_hash", "__weakref__")

    def __init__(self, num: Mapping[int, Fraction | int], den: Mapping[int, Fraction | int] = _ONE_DEN):
        n = {int(e): c for e, c in num.items() if c}
        if den is _ONE_DEN and all(type(c) is int for c in n.values()):
            # an integer Laurent polynomial is canonical as it stands
            self._num, self._den = n, _ONE_DEN
            return
        d = {int(e): c for e, c in den.items() if c}
        if not d:
            raise ScalarError("zero denominator")
        if not n:
            self._num, self._den = {}, _ONE_DEN
            return
        if not all(type(c) is int for c in (*n.values(), *d.values())):
            n = {e: Fraction(c) for e, c in n.items()}
            d = {e: Fraction(c) for e, c in d.items()}
            m = lcm(*(c.denominator for c in (*n.values(), *d.values())))
            n = {e: (c * m).numerator for e, c in n.items()}
            d = {e: (c * m).numerator for e, c in d.items()}
        if len(n) > 1 and len(d) > 1:
            nshift, dshift = min(n), min(d)
            n = {e - nshift: c for e, c in n.items()}
            d = {e - dshift: c for e, c in d.items()}
            g = _poly_gcd(_primitive(n), _primitive(d))
            if max(g) > 0:
                n, _ = _pseudo_divmod(n, g)
                d, _ = _pseudo_divmod(d, g)
            n = {e + nshift - dshift: c for e, c in n.items()}
        out = _reduced(n, d)
        self._num, self._den = out._num, out._den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ScalarQ":
        return _laurent({})

    @staticmethod
    def one() -> "ScalarQ":
        return _laurent({0: 1})

    @staticmethod
    def from_int(n: int) -> "ScalarQ":
        return ScalarQ({0: n})

    @staticmethod
    def q_power(k: int) -> "ScalarQ":
        return _laurent({k: 1})

    # -- structure ---------------------------------------------------------

    @property
    def num(self) -> dict[int, Fraction | int]:
        """The numerator over the monic denominator `den`."""
        return self._monic(self._num)

    @property
    def den(self) -> dict[int, Fraction | int]:
        """The denominator scaled to leading coefficient 1."""
        return self._monic(self._den)

    def _monic(self, d: Mapping[int, int]) -> dict[int, Fraction | int]:
        lc = self._den[max(self._den)]
        if lc == 1:
            return dict(d)
        return {e: Fraction(c, lc) for e, c in d.items()}

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_one(self) -> bool:
        return self._den is _ONE_DEN and self._num == _ONE_NUM

    def is_laurent(self) -> bool:
        return len(self._den) == 1

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((frozenset(self._num.items()),
                               frozenset(self._den.items())))
            return self._hash

    def __eq__(self, other):
        if not isinstance(other, ScalarQ):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ScalarQ") -> "ScalarQ":
        if self._den is _ONE_DEN and other._den is _ONE_DEN:
            return _laurent(_lp_add(self._num, other._num))
        if self._den is _ONE_DEN or other._den is _ONE_DEN:
            # a + c/d = (a d + c)/d: a factor it shared with d would divide c
            a, x = (self, other) if self._den is _ONE_DEN else (other, self)
            return _reduced(_lp_add(_lp_mul(a._num, x._den), x._num), x._den)
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
        return out

    def __sub__(self, other: "ScalarQ") -> "ScalarQ":
        return self + (-other)

    def __mul__(self, other: "ScalarQ") -> "ScalarQ":
        # a factor of one gives the other factor itself, shared, not copied
        if self._den is _ONE_DEN and self._num == _ONE_NUM:
            return other
        if other._den is _ONE_DEN and other._num == _ONE_NUM:
            return self
        if self._den is _ONE_DEN:
            if other._den is _ONE_DEN:
                return _laurent(_lp_mul(self._num, other._num))
            # c q^k times n/d: q and n are prime to d, so only content cancels
            if len(self._num) == 1:
                return _reduced(_lp_mul(self._num, other._num), other._den)
        elif other._den is _ONE_DEN and len(other._num) == 1:
            return _reduced(_lp_mul(self._num, other._num), self._den)
        if self.is_zero() or other.is_zero():
            return ScalarQ.zero()
        return ScalarQ(_lp_mul(self._num, other._num), _lp_mul(self._den, other._den))

    def inverse(self) -> "ScalarQ":
        if self.is_zero():
            raise ScalarError("inverse of zero")
        return _reduced(self._den, self._num)

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

    # -- display ------------------------------------------------------------

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
        if self._den is _ONE_DEN:
            return self._fmt_laurent(self._num)
        ns = self._fmt_laurent(self.num)
        if self.is_laurent():
            return ns
        ds = self._fmt_laurent(self.den)
        return f"({ns})/({ds})"

    def __repr__(self) -> str:
        return f"ScalarQ({self})"


def _reduced(n: dict[int, int], d: dict[int, int]) -> ScalarQ:
    """The canonical ScalarQ of n/d, for nonzero integer Laurent polynomials
    n and d whose only common factors in Z[q, q^-1] are integers: shift d to
    a polynomial with nonzero constant term, folding q^k into n, divide both
    by their common integer content, signed so that d leads positive.  The
    new value owns neither input."""
    shift = min(d)
    content = gcd(*n.values(), *d.values())
    if d[max(d)] < 0:
        content = -content
    d = {e - shift: c // content for e, c in d.items()}
    out = object.__new__(ScalarQ)
    out._num = {e - shift: c // content for e, c in n.items()}
    out._den = _ONE_DEN if d == _ONE_DEN else d
    return out


def _laurent(num: dict[int, int]) -> ScalarQ:
    """The ScalarQ of an integer Laurent polynomial, which is canonical as it
    stands: no gcd, no shift, no coefficient conversion.  `num` must have int
    coefficients and no zeros; the new value owns it."""
    out = object.__new__(ScalarQ)
    out._num = num
    out._den = _ONE_DEN
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
    return _laurent({d * (n - 1 - 2 * k): 1 for k in range(n)})


def q_diff(d: int) -> ScalarQ:
    """q^d - q^(-d) for d >= 1: q_i - q_i^{-1} of a root of length d."""
    return _laurent({d: 1, -d: -1})


def q_factorial(n: int, d: int = 1) -> ScalarQ:
    if n < 0:
        raise ScalarError("q-factorial of a negative integer")
    return q_rising(0, n, d)


def q_binomial(n: int, k: int, d: int = 1) -> ScalarQ:
    """Balanced q-binomial [n choose k]; a Laurent polynomial for all integer n.

    Computed as prod_{j=1..k} [n-j+1] divided by [k]! exactly in Z[q], both
    shifted to polynomials; [k]! is monic, so the quotient has integer
    coefficients and a nonzero remainder would mean a wrong product.
    """
    if k < 0:
        return ScalarQ.zero()
    if k == 0:
        return ScalarQ.one()
    num = ScalarQ.one()
    for j in range(1, k + 1):
        num = num * q_int(n - j + 1, d)
    if num.is_zero():
        return num
    den = q_factorial(k, d)._num
    nshift, dshift = min(num._num), min(den)
    quot, rem = _pseudo_divmod({e - nshift: c for e, c in num._num.items()},
                               {e - dshift: c for e, c in den.items()})
    if rem:
        raise ScalarError(f"[{n} choose {k}] is not a Laurent polynomial")
    return _laurent({e + nshift - dshift: c for e, c in quot.items()})


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

# Miller-Rabin with the primes up to 41 as bases decides every n below
# _MR_BOUND (Sorenson and Webster 2015), and certifies nothing from there on.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; False for every n < 2.  Raises
    ConfigError for n >= _MR_BOUND, whose primality it cannot certify."""
    if n >= _MR_BOUND:
        raise ConfigError(f"primality of {n} is not certified: the "
                          f"Miller-Rabin test decides only n < {_MR_BOUND}")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 2 ** r, n) != n - 1 for r in range(s)):
            return False  # b witnesses that n is composite
    return True


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


def _laurent_gauss(poly: Mapping[int, int],
                   params: PadicParams) -> ValuationBound:
    """Gauss bound for a nonzero Laurent polynomial under q = exp(hbar).

    The monomial unit q^k has valuation 0, so only the polynomial part
    matters; it is expanded exactly in u = q - 1 by shifted binomials, on int.
    """
    shift = min(poly)
    coeffs = [0] * (max(poly) - shift + 1)
    for e, c in poly.items():
        e -= shift
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

    For a quotient the valuation is the difference of the valuations of the
    stored int numerator and denominator, where a common constant factor
    cancels; when the denominator's Gauss minimum is tied the
    difference cannot be certified and a ValuationError is raised instead of
    returning an uncertified number.
    """
    if not params.exp_convergent():
        raise ValuationError(
            f"gauss valuation needs vh > 1/(p-1) = {params.exp_bound}; got vh = {params.vh}"
        )
    if f.is_zero():
        return ValuationBound(lower=None, exact=True)
    nb = _laurent_gauss(f._num, params)
    if f._den is _ONE_DEN:
        return nb
    db = _laurent_gauss(f._den, params)
    if not db.exact:
        raise ValuationError("denominator valuation not certified (tied Gauss minimum)")
    return ValuationBound(lower=nb.lower - db.lower, exact=nb.exact)
