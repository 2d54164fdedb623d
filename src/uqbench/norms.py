"""The norm layer: radii, admissibility, convergence certificates, and
entry-level operator norm contracts.

All statements about operator norms on infinite-dimensional spaces are
verified here at the level of matrix-entry valuations on finite truncations:
an operator T with op-norm exponent t (so "|T| = p^t") satisfies its contract
on an entry c from a source of norm exponent e_a to a target of norm exponent
e_b exactly when

    v(c) >= (e_b - e_a) * r_exp - t

where v is the Gauss valuation at q = exp(hbar) and norm exponents are powers
of r = p^{r_exp}.  This is the strongest desk-checkable surrogate for a
"contracting" claim: on a sup-normed orthogonal basis the two are equivalent.

Conventions fixed here:
  * radii are p-powers, r = p^{r_exp} and s = p^{s_exp}, any rational
    exponents; the admissibility inequality 1 <= |q_i - q_i^{-1}| r s reads
    -v(q_i - q_i^{-1}) + r_exp + s_exp >= 0 in exponent form;
  * F-type generators have op-norm exponent r_exp, E-type s_exp, Cartan 0;
  * a convergence certificate stores a slope/offset line that bounds term
    valuations from below, plus the prefix length on which the bound was
    re-verified term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .braiding import TensorElement
from .errors import ConfigError
from .nichols import braided_coproduct, diagonal_space
from .rootdata import RootDatum
from .scalars import (PadicParams, ScalarQ, ValuationBound, gauss_valuation,
                      vp, vp_factorial)
from .weightmods import WeightModule


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
    """Exact valuation of the k-th coaction coefficient (q-q^{-1})^k/[k]!.

    |q - q^{-1}| = |2 hbar| and |[n]| = |n| once vh > 1/(p-1), so the term
    norm is |2 hbar|^k / |k!| and its valuation is k*vh - v_p(k!) for odd p.
    """
    if k < 0:
        raise ConfigError("term index must be nonnegative")
    return k * params.vh - vp_factorial(k, params.p)


def coaction_convergence(params: PadicParams,
                         radii: RadiusParams) -> ConvergenceCertificate:
    """Certificate that the coaction series terms go to zero in norm.

    The k-th term of the canonical coaction carries coefficient
    (q-q^{-1})^k/[k]! together with an F-word of length k; on a window with
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


# ---------------------------------------------------------------------------
# Entry-level norm contracts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormViolation:
    """One failed entry-level inequality; `where` locates it."""

    part: str
    where: str
    needed: Fraction
    got: Fraction | None
    certified: bool

    def __str__(self) -> str:
        got = "uncertified" if not self.certified else str(self.got)
        return f"[{self.part}] {self.where}: needs valuation >= {self.needed}, got {got}"


@dataclass
class NormReport:
    """Outcome of norm_contract_check: counts plus the list of violations."""

    checked: int
    violations: list[NormViolation]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "passed": self.passed,
            "violations": [str(v) for v in self.violations],
        }


def _entry_value(bound: ValuationBound, needed: Fraction) -> tuple[bool, bool]:
    """(ok, certified): ok when the certified lower bound meets the need."""
    if bound.is_infinite():
        return True, True
    return bound.lower >= needed, bound.exact or bound.lower >= needed


def _check_entry(report_list: list, count: list, part: str, where: str,
                 coeff: ScalarQ, needed: Fraction, params: PadicParams) -> None:
    count[0] += 1
    bound = gauss_valuation(coeff, params)
    ok, certified = _entry_value(bound, needed)
    if not ok:
        report_list.append(NormViolation(
            part=part, where=where, needed=needed,
            got=bound.lower, certified=certified))


def norm_contract_check(datum: RootDatum, params: PadicParams,
                        radii: RadiusParams,
                        modules: Sequence[WeightModule] = (),
                        degree_cap: int = 4) -> NormReport:
    """Entry-level verification of the norm-at-most-one contracts.

    Three families of inequalities are checked and every failure is listed:

      * braiding matrix entries b(i, j) = q^{(alpha_i, alpha_j)} must have
        valuation >= 0 (they are units, so this passes for any datum);
      * every coefficient of the braided coproduct of every word of length
        <= degree_cap must have valuation >= 0 (the coproduct is contracting
        whenever the braiding matrix is);
      * for each module, each generator action must satisfy its bound: for an
        entry c from label a to label b the requirement is
        v(c) >= (e_b - e_a) * r_exp - t with t = s_exp for E_i, r_exp for
        F_i, and 0 for the Cartan coefficient q^{(tau_i, wt a)}.
    """
    violations: list[NormViolation] = []
    count = [0]
    space = diagonal_space(datum)

    for i in range(datum.rank):
        for j in range(datum.rank):
            _check_entry(violations, count, "braiding", f"b({i},{j})",
                         space.b(i, j), Fraction(0), params)

    for length in range(degree_cap + 1):
        for word in product(range(datum.rank), repeat=length):
            pairs = braided_coproduct(space, TensorElement.basis(word))
            for (lw, rw), c in pairs.items():
                _check_entry(violations, count, "coproduct",
                             f"Delta{word!r} -> {lw!r}(x){rw!r}",
                             c, Fraction(0), params)

    for M in modules:
        _check_module(violations, count, M, params, radii)

    return NormReport(checked=count[0], violations=violations)


def _check_module(violations: list, count: list, M: WeightModule,
                  params: PadicParams, radii: RadiusParams) -> None:
    datum = M.datum
    name = M.window
    for i in range(datum.rank):
        tau = datum.t_indices[i]
        for a in M.labels:
            e_a = Fraction(M.norm_exps[a])
            # Cartan: coefficient q^{(tau_i, wt a)}, op exponent 0, e_b = e_a
            kc = ScalarQ.q_power(sum(x * y for x, y in zip(tau, M.weights[a])))
            _check_entry(violations, count, "action",
                         f"{name}: K_{i} on {a!r}", kc, Fraction(0), params)
            col = M.e_cols[i].get(a)
            if col is not None:
                for b, c in col:
                    needed = (Fraction(M.norm_exps[b]) - e_a) * radii.r_exp \
                        - radii.s_exp
                    _check_entry(violations, count, "action",
                                 f"{name}: E_{i} {a!r} -> {b!r}", c, needed,
                                 params)
            col = M.f_cols[i].get(a)
            if col is not None:
                for b, c in col:
                    needed = (Fraction(M.norm_exps[b]) - e_a) * radii.r_exp \
                        - radii.r_exp
                    _check_entry(violations, count, "action",
                                 f"{name}: F_{i} {a!r} -> {b!r}", c, needed,
                                 params)
