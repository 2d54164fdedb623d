"""The norm layer: radii, admissibility and convergence certificates.

Statements about norms are checked through exact valuations: v is the Gauss
valuation at q = exp(hbar) and radii are powers of p.

Conventions fixed here:
  * radii are p-powers, r = p^{r_exp} and s = p^{s_exp}, any rational
    exponents; the admissibility inequality 1 <= |q_i - q_i^{-1}| r s reads
    -v(q_i - q_i^{-1}) + r_exp + s_exp >= 0 in exponent form;
  * a convergence certificate stores a slope/offset line that bounds term
    valuations from below, plus the prefix length on which the bound was
    re-verified term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError
from .rootdata import RootDatum
from .scalars import PadicParams, ScalarQ, gauss_valuation, vp, vp_factorial


@dataclass(frozen=True)
class RadiusParams:
    """Radii r = p^{r_exp} and s = p^{s_exp}, stored as exact exponents.

    Any rational exponent is allowed; the radii themselves are positive by
    construction, so no separate positivity invariant is needed.
    """

    r_exp: Fraction
    s_exp: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r_exp", Fraction(self.r_exp))
        object.__setattr__(self, "s_exp", Fraction(self.s_exp))

    @property
    def product_exp(self) -> Fraction:
        """Exponent of r*s, the quantity admissibility constrains."""
        return self.r_exp + self.s_exp


def admissible(datum: RootDatum, params: PadicParams,
               radii: RadiusParams) -> bool | None:
    """Whether 1 <= |q_i - q_i^{-1}| r s holds for every i.

    Checked in exponent form: -v(q_i - q_i^{-1}) + r_exp + s_exp >= 0 with v
    the Gauss valuation.  Returns True or False when every comparison is
    certified.  When some valuation is only a lower bound that straddles the
    threshold the answer is indeterminate and None is returned; None is
    deliberately distinct from False.
    """
    bound = radii.product_exp
    indeterminate = False
    for i in range(datum.rank):
        di = datum.d[i]
        val = gauss_valuation(ScalarQ.q_power(di) - ScalarQ.q_power(-di), params)
        if val.is_infinite():
            raise ConfigError(f"q_{i} - q_{i}^{-1} vanished; datum is degenerate")
        if val.exact:
            if val.lower > bound:
                return False
        else:
            if val.lower > bound:
                # the true valuation is at least the bound's right side,
                # so this i certainly fails
                return False
            indeterminate = True
    return None if indeterminate else True


def rmatrix_condition(datum: RootDatum, params: PadicParams) -> bool:
    """Whether the Cartan exponential factor of the braiding converges.

    The sufficient condition is vh + min_{i,j} v_p(A^{-1}_{i,j}) > 1/(p-1)
    where A is the symmetrised Cartan matrix; equivalently
    |hbar| max |A^{-1}_{i,j}| < p^{1/(1-p)}.  Exact rational comparison.
    """
    ainv = datum.cartan_inverse()
    if ainv is None:
        raise ConfigError("the symmetrised Cartan matrix is singular")
    min_v: Fraction | None = None
    for row in ainv:
        for entry in row:
            v = vp(entry, params.p)
            if v is None:
                continue
            if min_v is None or v < min_v:
                min_v = v
    if min_v is None:
        raise ConfigError("the Cartan inverse is the zero matrix")
    return params.vh + min_v > params.exp_bound


@dataclass(frozen=True)
class ConvergenceCertificate:
    """A linear lower bound v_k >= slope*k + offset for term valuations.

    verified_prefix is the largest k for which the bound was re-checked
    against the exact term valuation; beyond it the generic-term analysis
    (Legendre's digit-sum formula) guarantees the bound.
    """

    slope: Fraction
    offset: Fraction
    verified_prefix: int

    def bound_at(self, k: int) -> Fraction:
        return self.slope * k + self.offset

    def to_dict(self) -> dict:
        return {
            "slope": str(self.slope),
            "offset": str(self.offset),
            "verified_prefix": self.verified_prefix,
        }


def coaction_term_valuation(k: int, params: PadicParams) -> Fraction:
    """Exact valuation of the k-th coaction coefficient
    q^{-k(k-1)/2} (q-q^{-1})^k/[k]!.

    |q - q^{-1}| = |2 hbar| and |[n]| = |n| once vh > 1/(p-1), and the unit
    q^{-k(k-1)/2} has norm 1 (v(q) = 0), so the term norm is
    |2 hbar|^k / |k!| and its valuation is k*vh - v_p(k!) for odd p.
    """
    if k < 0:
        raise ConfigError("term index must be nonnegative")
    return k * params.vh - vp_factorial(k, params.p)


def coaction_convergence(params: PadicParams,
                         radii: RadiusParams) -> ConvergenceCertificate:
    """Certificate that the coaction series terms go to zero in norm.

    The k-th term of the canonical coaction carries coefficient
    q^{-k(k-1)/2} (q-q^{-1})^k/[k]!, whose valuation is that of
    (q-q^{-1})^k/[k]! because v(q) = 0, together with an F-word of length
    k; on a window with
    norm exponents as built here the r-powers cancel exactly (r^k from the
    word against r^{-k} from the target), so the certificate does not depend
    on the radii.  The radii stay in the signature because the statement is
    about the coaction into the radius-r tensor factor.

    Term valuation: v_k = k*vh - v_p(k!) >= slope*k with
    slope = vh - 1/(p-1), using v_p(k!) = (k - digitsum_p(k))/(p-1).
    Raises ConfigError when the slope is not positive.
    """
    del radii
    slope = params.vh - params.exp_bound
    if slope <= 0:
        raise ConfigError(
            f"slope {slope} <= 0: need vh > 1/(p-1) = {params.exp_bound}")
    prefix = 30
    cert = ConvergenceCertificate(slope=slope, offset=Fraction(0),
                                  verified_prefix=prefix)
    if not reverify_certificate(cert, params):
        raise ConfigError("internal: certified line failed its own prefix check")
    return cert


def reverify_certificate(cert: ConvergenceCertificate,
                         params: PadicParams) -> bool:
    """Brute-force recheck of the certificate on its verified prefix."""
    for k in range(cert.verified_prefix + 1):
        if coaction_term_valuation(k, params) < cert.bound_at(k):
            return False
    return True
