"""Truncated hbar-adic deformation workbench for the classical enveloping
algebra.

Everything lives inside a finite PBW window: monomials F^a H^b E^c with
a + b + c <= cap, exact rational coefficients, and a smaller solve window of
degree <= window (with 2 * window <= cap) from which unknowns are drawn.
Products whose degrees sum beyond the cap raise CapError instead of being
truncated, so no computation silently loses terms.

Contents:

  * TruncatedUg: the windowed algebra with datum-driven relations
      [H, E] = kappa E, [H, F] = -kappa F, [E, F] = H,
    where kappa is the self-pairing of the simple root (2 for the standard
    rank-1 preset).  Only rank-1 data are supported; higher rank would need
    a PBW basis over all positive roots, which this window model does not
    carry.
  * Chevalley-Eilenberg differentials for bounded cochains in degrees 0..2
    with values in the algebra, and a cocycle-checked coboundary solver with
    deterministic solution selection (lexicographic pivoting over the PBW
    basis, free coordinates zero, hence minimal support among echelon
    solutions).
  * hbar-series machinery (SeriesElement, SeriesMap) and the two solvers:
    rigidity_conjugator finds F = ...(1+u_2 hbar^2)(1+u_1 hbar) conjugating
    one series algebra map into another order by order, and mult_trivialize
    removes a deformed multiplication through the coboundary equation
    f(x, y) = x b(y) - b(xy) + b(x) y.

Both solvers re-verify their output from scratch before returning it: the
conjugator through the inversion-free identity F d(x) = d'(x) F, the
trivializer by transporting the original multiplication through the final
gauge and comparing against the standard table (a transport forms each
product of gauge columns once and shares it among the orders it feeds;
see _transport_table).  An order whose linear
system has no solution inside the window raises ObstructionError carrying
the order index; window solvability is a proxy for the cohomology vanishing
the full statements assume, and the solvers report obstructions without
interpreting them.

The trivializer searches over filtration-preserving gauges: each unknown
map sends a monomial to a combination of monomials of no larger total
degree (the image of 1 is a scalar, so pure rescalings are covered).  This
keeps every evaluation inside the window; deformations that would need a
degree-raising gauge surface as obstructions.  Deformed inputs must be
filtered in the same sense and are validated up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import comb

from .errors import CapError, ConfigError, ObstructionError
from .linalg import solve
from .rootdata import RootDatum
from .sparse import add_term, combine, scale

Mono = tuple[int, int, int]  # exponents of F, H, E in normal order
El = dict  # Mono -> Fraction

GEN_ORDER = ("E", "H", "F")
GEN_MONO: dict[str, Mono] = {"F": (1, 0, 0), "H": (0, 1, 0), "E": (0, 0, 1)}
UNIT: Mono = (0, 0, 0)


def el_degree(x: El) -> int:
    """Largest total degree present; -1 for the zero element."""
    return max((sum(m) for m in x), default=-1)


class TruncatedUg:
    """PBW window of the rank-1 enveloping algebra with exact products."""

    def __init__(self, datum: RootDatum, cap: int, window: int | None = None):
        if datum.rank != 1:
            raise ConfigError(
                "the deformation window supports rank-1 data only; higher "
                "rank needs a PBW basis over all positive roots")
        if cap < 2:
            raise ConfigError("cap must be at least 2")
        self.datum = datum
        self.kappa = Fraction(datum.pairing[0][0])
        self.cap = cap
        self.window = cap // 2 if window is None else window
        if self.window < 1 or 2 * self.window > cap:
            raise ConfigError(
                f"window must satisfy 1 <= window <= cap/2, got {self.window}")
        self._mono_cache: dict[tuple[Mono, Mono], El] = {}

    # -- constructors ------------------------------------------------------

    def one(self) -> El:
        return {UNIT: Fraction(1)}

    def gen(self, name: str) -> El:
        if name not in GEN_MONO:
            raise ConfigError(f"unknown generator {name!r}")
        return {GEN_MONO[name]: Fraction(1)}

    def basis(self, max_degree: int | None = None) -> list[Mono]:
        """All monomials of total degree <= max_degree (default: the solve
        window), in lexicographic order; this order fixes solver pivoting."""
        d = self.window if max_degree is None else max_degree
        if d > self.cap:
            raise CapError(f"degree {d} exceeds the cap {self.cap}")
        return sorted(m for m in iproduct(range(d + 1), repeat=3)
                      if sum(m) <= d)

    # -- multiplication ----------------------------------------------------

    def _rmul_gen(self, m: Mono, g: str) -> El:
        """Normal-ordered expansion of (F^a H^b E^c) * g."""
        a, b, c = m
        k = self.kappa
        out: El = {}
        if g == "E":
            add_term(out, (a, b, c + 1), Fraction(1))
        elif g == "H":
            # E^c H = (H - c kappa) E^c
            add_term(out, (a, b + 1, c), Fraction(1))
            if c:
                add_term(out, (a, b, c), -c * k)
        elif g == "F":
            # E^c F = F E^c + c H E^{c-1} - (kappa/2) c (c-1) E^{c-1},
            # then H^b F = F (H - kappa)^b
            for j in range(b + 1):
                add_term(out, (a + 1, j, c), comb(b, j) * (-k) ** (b - j))
            if c:
                add_term(out, (a, b + 1, c - 1), Fraction(c))
                if c > 1:
                    add_term(out, (a, b, c - 1), -k / 2 * c * (c - 1))
        else:
            raise ConfigError(f"unknown generator {g!r}")
        return out

    def mono_mul(self, m1: Mono, m2: Mono) -> El:
        """Normal-ordered product of two PBW monomials."""
        key = (m1, m2)
        hit = self._mono_cache.get(key)
        if hit is not None:
            return hit
        acc: El = {m1: Fraction(1)}
        a, b, c = m2
        for g, reps in (("F", a), ("H", b), ("E", c)):
            for _ in range(reps):
                nxt: El = {}
                for m, coef in acc.items():
                    for m3, c3 in self._rmul_gen(m, g).items():
                        add_term(nxt, m3, coef * c3)
                acc = nxt
        self._mono_cache[key] = acc
        return acc

    def multiply(self, x: El, y: El) -> El:
        out: El = {}
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                if sum(m1) + sum(m2) > self.cap:
                    raise CapError(
                        f"product degree {sum(m1)} + {sum(m2)} exceeds the "
                        f"cap {self.cap}")
                for m3, c3 in self.mono_mul(m1, m2).items():
                    add_term(out, m3, c1 * c2 * c3)
        return out

    def commutator(self, x: El, y: El) -> El:
        return combine(self.multiply(x, y), self.multiply(y, x), -1)

    # -- structure checks --------------------------------------------------

    def check_relations(self) -> bool:
        """[H,E] = kappa E, [H,F] = -kappa F, [E,F] = H inside the window."""
        e, h, f = self.gen("E"), self.gen("H"), self.gen("F")
        k = self.kappa
        return (self.commutator(h, e) == scale(e, k)
                and self.commutator(h, f) == scale(f, -k)
                and self.commutator(e, f) == h)

    def check_associativity(self, total_degree: int) -> bool:
        """(xy)z = x(yz) for all monomial triples whose degrees sum to at
        most min(total_degree, cap)."""
        bound = min(total_degree, self.cap)
        monos = self.basis(bound)
        for m1 in monos:
            d1 = sum(m1)
            for m2 in monos:
                d12 = d1 + sum(m2)
                if d12 > bound:
                    continue
                for m3 in monos:
                    if d12 + sum(m3) > bound:
                        continue
                    left = self.multiply(self.mono_mul(m1, m2),
                                         {m3: Fraction(1)})
                    right = self.multiply({m1: Fraction(1)},
                                          self.mono_mul(m2, m3))
                    if left != right:
                        return False
        return True


# ---------------------------------------------------------------------------
# Lie layer: generator brackets and the adjoint action
# ---------------------------------------------------------------------------

def lie_bracket(algebra: TruncatedUg, x: str, y: str) -> dict[str, Fraction]:
    """[x, y] for generator names, as a combination of generator names."""
    k = algebra.kappa
    table = {
        ("H", "E"): {"E": k},
        ("H", "F"): {"F": -k},
        ("E", "F"): {"H": Fraction(1)},
    }
    if x == y:
        return {}
    if (x, y) in table:
        return dict(table[(x, y)])
    return {g: -c for g, c in table[(y, x)].items()}


def adjoint_action(algebra: TruncatedUg):
    """The default module action: x . v = [x, v] inside the algebra."""

    def act(gen: str, v: El) -> El:
        return algebra.commutator(algebra.gen(gen), v)

    return act


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differentials, degrees 0..2
# ---------------------------------------------------------------------------

def _cochain2_lookup(f: dict, x: str, y: str) -> El:
    """Antisymmetric lookup of a 2-cochain stored on ordered pairs."""
    if x == y:
        return {}
    if (x, y) in f:
        return f[(x, y)]
    if (y, x) in f:
        return scale(f[(y, x)], Fraction(-1))
    return {}


def _validate_cochain2(f: dict) -> None:
    for (x, y), v in f.items():
        if x == y and v:
            raise ConfigError(
                f"2-cochain is not antisymmetric: f({x},{x}) != 0")
        if (y, x) in f and combine(v, f[(y, x)]) != {}:
            raise ConfigError(f"2-cochain is not antisymmetric on ({x},{y})")


def _eval_on_lie(f: dict, lie: dict[str, Fraction]) -> El:
    out: El = {}
    for g, c in lie.items():
        for m, v in f.get(g, {}).items():
            add_term(out, m, c * v)
    return out


def _eval2_on_lie(f: dict, lie: dict[str, Fraction], z: str) -> El:
    out: El = {}
    for g, c in lie.items():
        for m, v in _cochain2_lookup(f, g, z).items():
            add_term(out, m, c * v)
    return out


def cochain_differential(algebra: TruncatedUg, n: int, f, action=None):
    """Chevalley-Eilenberg differential of a bounded n-cochain, n in 0..2.

    Cochains take values in the windowed algebra and are given on the
    generator basis: degree 0 is a single element, degree 1 a dict over
    generator names, degree 2 a dict over ordered pairs (validated to be
    antisymmetric).  The module action defaults to the adjoint one.

      n=0:  (df)(x)     = x . f
      n=1:  (df)(x,y)   = x . f(y) - y . f(x) - f([x,y])
      n=2:  (df)(x,y,z) = x . f(y,z) - y . f(x,z) + z . f(x,y)
                          - f([x,y],z) + f([x,z],y) - f([y,z],x)
    """
    act = action if action is not None else adjoint_action(algebra)
    if n == 0:
        return {g: act(g, f) for g in GEN_ORDER}
    if n == 1:
        extra = set(f) - set(GEN_ORDER)
        if extra:
            raise ConfigError(
                f"unknown generators in cochain: {sorted(extra)}")
        out = {}
        for i, x in enumerate(GEN_ORDER):
            for y in GEN_ORDER[i + 1:]:
                term = combine(act(x, f.get(y, {})),
                               act(y, f.get(x, {})), -1)
                term = combine(
                    term, _eval_on_lie(f, lie_bracket(algebra, x, y)), -1)
                out[(x, y)] = term
        return out
    if n == 2:
        _validate_cochain2(f)
        x, y, z = GEN_ORDER
        term = act(x, _cochain2_lookup(f, y, z))
        term = combine(term, act(y, _cochain2_lookup(f, x, z)), -1)
        term = combine(term, act(z, _cochain2_lookup(f, x, y)))
        term = combine(
            term, _eval2_on_lie(f, lie_bracket(algebra, x, y), z), -1)
        term = combine(
            term, _eval2_on_lie(f, lie_bracket(algebra, x, z), y))
        term = combine(
            term, _eval2_on_lie(f, lie_bracket(algebra, y, z), x), -1)
        return {(x, y, z): term}
    raise ConfigError(f"cochain degree must be 0, 1 or 2, got {n}")


# ---------------------------------------------------------------------------
# Coboundary solver for the conjugation equation
# ---------------------------------------------------------------------------

def _el_as_vector(x: El, index: dict[Mono, int]) -> list[Fraction]:
    v = [Fraction(0)] * len(index)
    for m, c in x.items():
        if m not in index:
            raise CapError(f"element reaches monomial {m} outside the window")
        v[index[m]] = c
    return v


def coboundary_solve(algebra: TruncatedUg, f: dict, d0: dict | None = None,
                     order: int | None = None) -> El:
    """Solve [d0(x), u] = f(x) for all generators x, with u in the window.

    f is a 1-cochain over generator names; d0 maps generator names to
    elements and defaults to the tautological embedding.  The cocycle
    identity for the action x . v = [d0(x), v] is checked on generator
    pairs first; a violation is a ConfigError.  The linear system is then
    solved exactly with lexicographic pivoting and free coordinates set to
    zero, so the returned u is deterministic and of minimal support among
    echelon solutions.  If the window contains no solution,
    ObstructionError (carrying `order` when given).
    """
    if d0 is None:
        d0 = {g: algebra.gen(g) for g in GEN_ORDER}

    def act(gen: str, v: El) -> El:
        return algebra.commutator(d0[gen], v)

    at = f" at order {order}" if order is not None else ""
    for i, x in enumerate(GEN_ORDER):
        for y in GEN_ORDER[i + 1:]:
            lhs = combine(act(x, f.get(y, {})), act(y, f.get(x, {})), -1)
            lhs = combine(lhs, _eval_on_lie(f, lie_bracket(algebra, x, y)), -1)
            if lhs:
                raise ConfigError(
                    f"not a cocycle: identity fails on ({x},{y}){at}")

    unknowns = algebra.basis(algebra.window)
    deg_f = max((el_degree(v) for v in f.values()), default=-1)
    deg_d0 = max(el_degree(d0[g]) for g in GEN_ORDER)
    t_deg = min(algebra.cap,
                max(algebra.window + max(deg_d0, 0), deg_f, algebra.window))
    targets = algebra.basis(t_deg)
    t_index = {m: i for i, m in enumerate(targets)}
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for g in GEN_ORDER:
        cols = [_el_as_vector(act(g, {m: Fraction(1)}), t_index)
                for m in unknowns]
        want = _el_as_vector(f.get(g, {}), t_index)
        for r in range(len(targets)):
            row = [cols[c][r] for c in range(len(unknowns))]
            if any(row) or want[r]:
                rows.append(row)
                rhs.append(want[r])
    sol = solve(rows, rhs, len(unknowns), Fraction(0), Fraction(1))
    if sol is None:
        raise ObstructionError(
            f"coboundary equation has no solution within the window{at}",
            order=order)
    return {m: c for m, c in zip(unknowns, sol) if c}


# ---------------------------------------------------------------------------
# hbar-series machinery
# ---------------------------------------------------------------------------

@dataclass
class SeriesElement:
    """u_0 + u_1 hbar + ... + u_N hbar^N with window-algebra coefficients."""

    algebra: TruncatedUg
    coeffs: list

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> El:
        return self.coeffs[n] if n < len(self.coeffs) else {}

    def is_one(self) -> bool:
        return self.coeffs[0] == self.algebra.one() and all(
            not c for c in self.coeffs[1:])


def series_mul(algebra: TruncatedUg, a: list, b: list, upto: int) -> list:
    """Product of two coefficient lists, truncated at the hbar^upto term."""
    out: list[El] = [{} for _ in range(upto + 1)]
    for i, ai in enumerate(a):
        if i > upto or not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > upto or not bj:
                continue
            for m, c in algebra.multiply(ai, bj).items():
                add_term(out[i + j], m, c)
    return out


def series_inverse(algebra: TruncatedUg, a: list, upto: int) -> list:
    """Inverse of a series with leading coefficient 1."""
    if a[0] != algebra.one():
        raise ConfigError("series inverse needs leading coefficient 1")
    inv: list[El] = [algebra.one()] + [{} for _ in range(upto)]
    for n in range(1, upto + 1):
        acc: El = {}
        for k in range(1, n + 1):
            ak = a[k] if k < len(a) else {}
            if not ak or not inv[n - k]:
                continue
            for m, c in algebra.multiply(ak, inv[n - k]).items():
                add_term(acc, m, c)
        inv[n] = scale(acc, Fraction(-1))
    return inv


@dataclass
class SeriesMap:
    """A series of linear maps d_0 + d_1 hbar + ... stored by columns.

    columns maps each domain monomial to the list of its images per order;
    algebra maps used by the rigidity solver only need generator columns,
    while a gauge returned by mult_trivialize carries a column for every
    window monomial.
    """

    algebra: TruncatedUg
    columns: dict

    @property
    def order(self) -> int:
        return max(len(c) for c in self.columns.values()) - 1

    def gen_image(self, gen: str, n: int) -> El:
        col = self.columns.get(GEN_MONO[gen])
        if col is None:
            raise ConfigError(f"map has no column for generator {gen}")
        return col[n] if n < len(col) else {}

    def apply(self, x: El, n: int) -> El:
        out: El = {}
        for m, c in x.items():
            col = self.columns.get(m)
            if col is None:
                raise CapError(f"map is not defined on monomial {m}")
            img = col[n] if n < len(col) else {}
            for m2, c2 in img.items():
                add_term(out, m2, c * c2)
        return out


def identity_map(algebra: TruncatedUg, upto: int,
                 gens_only: bool = False) -> SeriesMap:
    monos = [GEN_MONO[g] for g in GEN_ORDER] if gens_only \
        else algebra.basis(algebra.window)
    cols = {m: [{m: Fraction(1)}] + [{} for _ in range(upto)] for m in monos}
    return SeriesMap(algebra=algebra, columns=cols)


def conjugate_map(F: SeriesElement, d: SeriesMap, upto: int) -> SeriesMap:
    """x |-> F d(x) F^{-1} order by order, on d's column domain."""
    algebra = F.algebra
    finv = series_inverse(algebra, F.coeffs, upto)
    cols = {}
    for m, col in d.columns.items():
        fd = series_mul(algebra, F.coeffs, col, upto)
        cols[m] = series_mul(algebra, fd, finv, upto)
    return SeriesMap(algebra=algebra, columns=cols)


def _check_lie_map(algebra: TruncatedUg, d: SeriesMap) -> None:
    for i, x in enumerate(GEN_ORDER):
        for y in GEN_ORDER[i + 1:]:
            lhs = algebra.commutator(d.gen_image(x, 0), d.gen_image(y, 0))
            rhs: El = {}
            for g, c in lie_bracket(algebra, x, y).items():
                for m, v in d.gen_image(g, 0).items():
                    add_term(rhs, m, c * v)
            if lhs != rhs:
                raise ConfigError(
                    f"order-0 map does not respect the bracket on ({x},{y})")


def rigidity_conjugator(d: SeriesMap, d_prime: SeriesMap, upto: int,
                        with_transcript: bool = False):
    """Find F = ...(1+u_2 hbar^2)(1+u_1 hbar) with F d F^{-1} = d' modulo
    hbar^{upto+1} on the generators.

    Both maps must agree at order 0, where they must respect the bracket.
    Each order contributes one coboundary solve for the conjugation defect;
    a window failure raises ObstructionError carrying the order.  The
    result is re-verified from scratch through the inversion-free identity
    F d(x) = d'(x) F before being returned.  with_transcript=True also
    returns the per-order record (chosen u_n, defect status) for reports.
    """
    algebra = d.algebra
    if d_prime.algebra is not algebra:
        raise ConfigError("maps live on different algebras")
    for g in GEN_ORDER:
        if d.gen_image(g, 0) != d_prime.gen_image(g, 0):
            raise ConfigError("maps are not equal mod hbar")
    _check_lie_map(algebra, d)
    d0 = {g: d.gen_image(g, 0) for g in GEN_ORDER}

    F: list[El] = [algebra.one()] + [{} for _ in range(upto)]
    transcript: list[dict] = []
    for n in range(1, upto + 1):
        finv = series_inverse(algebra, F, n)
        gamma: dict[str, El] = {}
        for g in GEN_ORDER:
            col = d.columns[GEN_MONO[g]]
            conj = series_mul(algebra, series_mul(algebra, F, col, n),
                              finv, n)
            gamma[g] = combine(conj[n], d_prime.gen_image(g, n), -1)
        if all(not gamma[g] for g in GEN_ORDER):
            transcript.append({"order": n, "u": {}, "defect": "zero"})
            continue
        u = coboundary_solve(algebra, gamma, d0=d0, order=n)
        transcript.append({"order": n, "u": u, "defect": "solved"})
        step: list[El] = [algebra.one()] + [{} for _ in range(upto)]
        step[n] = u
        F = series_mul(algebra, step, F, upto)

    result = SeriesElement(algebra=algebra, coeffs=F)
    residuals = conjugation_residuals(result, d, d_prime, upto)
    if any(r for per_gen in residuals.values() for r in per_gen):
        raise ObstructionError(
            "internal: verification failed after all orders solved")
    if with_transcript:
        return result, transcript
    return result


def conjugation_residuals(F: SeriesElement, d: SeriesMap, d_prime: SeriesMap,
                          upto: int) -> dict:
    """Residuals of F d(x) - d'(x) F per generator and order: an
    inversion-free restatement of F d F^{-1} = d', recomputed from the
    inputs alone."""
    algebra = F.algebra
    out: dict[str, list[El]] = {}
    for g in GEN_ORDER:
        lhs = series_mul(algebra, F.coeffs, d.columns[GEN_MONO[g]], upto)
        rhs = series_mul(algebra, d_prime.columns[GEN_MONO[g]], F.coeffs,
                         upto)
        out[g] = [combine(a, b, -1) for a, b in zip(lhs, rhs)]
    return out


# ---------------------------------------------------------------------------
# Multiplication trivialization
# ---------------------------------------------------------------------------

def window_pairs(algebra: TruncatedUg) -> list[tuple[Mono, Mono]]:
    monos = algebra.basis(algebra.window)
    return [(m1, m2) for m1 in monos for m2 in monos
            if sum(m1) + sum(m2) <= algebra.window]


def standard_multiplication(algebra: TruncatedUg) -> dict:
    """The undeformed order-0 table on window pairs."""
    return {(m1, m2): algebra.mono_mul(m1, m2)
            for m1, m2 in window_pairs(algebra)}


def _add_scaled(acc: El, x: El, c) -> None:
    """acc += c * x, multiplying only where neither factor is 1: basis
    monomials and identity columns carry coefficient 1."""
    if c == 1:
        for m, cm in x.items():
            add_term(acc, m, cm)
    else:
        for m, cm in x.items():
            add_term(acc, m, c if cm == 1 else c * cm)


def _table_entry(mu_n: dict, m1: Mono, m2: Mono, strict: bool) -> El:
    """mu_n(m1, m2) read in place from the table (callers never mutate it);
    a missing pair is zero for sparse higher-order terms and an error for
    the order-0 table."""
    entry = mu_n.get((m1, m2))
    if entry is None:
        if strict:
            raise CapError(
                f"multiplication table has no entry for ({m1}, {m2})")
        return {}
    return entry


def _mu_term(mu_n: dict, x: El, y: El, strict: bool,
             out: El | None = None) -> El:
    """Add a bilinear order term evaluated on two elements to `out` (a new
    dict by default) and return it; missing pairs as in `_table_entry`."""
    out = {} if out is None else out
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            c = c2 if c1 == 1 else c1 if c2 == 1 else c1 * c2
            if c:
                _add_scaled(out, _table_entry(mu_n, m1, m2, strict), c)
    return out


def _validate_deformation(algebra: TruncatedUg, mu: list) -> None:
    pairs = set(window_pairs(algebra))
    for n, mu_n in enumerate(mu[1:], start=1):
        for (m1, m2), val in mu_n.items():
            if (m1, m2) not in pairs:
                raise ConfigError(
                    f"order-{n} term is set outside the window pairs on "
                    f"({m1}, {m2})")
            if el_degree(val) > sum(m1) + sum(m2):
                raise ConfigError(
                    f"order-{n} term raises total degree on ({m1}, {m2}); "
                    "the window gauge search needs filtered deformations")


def _associativity_defect(algebra: TruncatedUg, mu: list, n: int):
    """First nonzero associativity defect at hbar-order n, or None."""
    monos = algebra.basis(algebra.window)
    for m1 in monos:
        d1 = sum(m1)
        for m2 in monos:
            d12 = d1 + sum(m2)
            if d12 > algebra.window:
                continue
            for m3 in monos:
                if d12 + sum(m3) > algebra.window:
                    continue
                acc: El = {}
                for i in range(n + 1):
                    j = n - i
                    if i >= len(mu) or j >= len(mu):
                        continue
                    inner = _table_entry(mu[j], m1, m2, strict=(j == 0))
                    _mu_term(mu[i], inner, {m3: 1}, strict=(i == 0), out=acc)
                    inner = _table_entry(mu[j], m2, m3, strict=(j == 0))
                    right = _mu_term(mu[i], {m1: 1}, inner, strict=(i == 0))
                    for m, c in right.items():
                        add_term(acc, m, -c)
                if acc:
                    return (m1, m2, m3, acc)
    return None


# Affine elements (constant El, {unknown index: coefficient El}) track how
# candidate gauge values depend linearly on the unknown generator images.

def _aff_add(a, b, sign: int = 1):
    const = combine(a[0], b[0], sign)
    lin = dict(a[1])
    for i, el in b[1].items():
        merged = combine(lin.get(i, {}), el, sign)
        if merged:
            lin[i] = merged
        else:
            lin.pop(i, None)
    return (const, lin)


def _aff_scale(a, c: Fraction):
    if c == 0:
        return ({}, {})
    return (scale(a[0], c), {i: scale(el, c) for i, el in a[1].items()})


def _aff_mul(algebra: TruncatedUg, left, a, right):
    const, lin = a
    if left is not None:
        const = algebra.multiply(left, const) if const else {}
        lin = {i: algebra.multiply(left, el) for i, el in lin.items()}
    if right is not None:
        const = algebra.multiply(const, right) if const else {}
        lin = {i: algebra.multiply(el, right) for i, el in lin.items()}
    return (const, {i: el for i, el in lin.items() if el})


def _solve_gauge_order(algebra: TruncatedUg, f_n: dict, order: int) -> dict:
    """Solve f_n(x, y) = x b(y) - b(xy) + b(x) y for a filtered window
    endomorphism b.

    On a monomial x = g w (g the leading PBW generator) the pair (g, w)
    forces b(g w) = g b(w) + b(g) w - f_n(g, w), so a filtered solution is
    determined by its values on 1 (a scalar) and on the three generators
    (degree at most one each).  Those thirteen coefficients are solved from
    the window-pair equations with lexicographic pivoting and free
    coordinates zero; inconsistency raises ObstructionError carrying the
    order index.
    """
    img_monos = algebra.basis(1)
    unknowns: list[tuple[Mono, Mono]] = [(UNIT, UNIT)]
    unknowns += [(gm, im) for gm in sorted(GEN_MONO.values())
                 for im in img_monos]
    u_index = {u: i for i, u in enumerate(unknowns)}

    beta: dict[Mono, tuple] = {
        UNIT: ({}, {u_index[(UNIT, UNIT)]: {UNIT: Fraction(1)}})}
    for m in algebra.basis(algebra.window):
        dm = sum(m)
        if dm == 0:
            continue
        if dm == 1:
            beta[m] = ({}, {u_index[(m, im)]: {im: Fraction(1)}
                            for im in img_monos})
            continue
        a, b, c = m
        if a > 0:
            g, w = (1, 0, 0), (a - 1, b, c)
        elif b > 0:
            g, w = (0, 1, 0), (a, b - 1, c)
        else:
            g, w = (0, 0, 1), (a, b, c - 1)
        t = _aff_mul(algebra, {g: Fraction(1)}, beta[w], None)
        t = _aff_add(t, _aff_mul(algebra, None, beta[g], {w: Fraction(1)}))
        t = _aff_add(t, (f_n.get((g, w), {}), {}), -1)
        beta[m] = t

    targets = algebra.basis(algebra.window)
    t_index = {mm: i for i, mm in enumerate(targets)}
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for (x, y) in window_pairs(algebra):
        t = _aff_mul(algebra, {x: Fraction(1)}, beta[y], None)
        t = _aff_add(t, _aff_mul(algebra, None, beta[x], {y: Fraction(1)}))
        for m3, c3 in algebra.mono_mul(x, y).items():
            t = _aff_add(t, _aff_scale(beta[m3], c3), -1)
        diff = combine(f_n.get((x, y), {}), t[0], -1)
        block = [[Fraction(0)] * len(unknowns) for _ in targets]
        for i, el in t[1].items():
            for mm, cc in el.items():
                block[t_index[mm]][i] += cc
        vec = _el_as_vector(diff, t_index)
        for r in range(len(targets)):
            if any(block[r]) or vec[r]:
                rows.append(block[r])
                rhs.append(vec[r])
    sol = solve(rows, rhs, len(unknowns), Fraction(0), Fraction(1))
    if sol is None:
        raise ObstructionError(
            f"gauge coboundary equation has no window solution at order "
            f"{order}", order=order)
    out: dict[Mono, El] = {}
    for m, (const, lin) in beta.items():
        el = dict(const)
        for i, elli in lin.items():
            for mm, cc in elli.items():
                add_term(el, mm, cc * sol[i])
        if el:
            out[m] = el
    return out


def identity_columns(algebra: TruncatedUg) -> dict:
    return {m: {m: Fraction(1)} for m in algebra.basis(algebra.window)}


def _column(series: list, k: int, m: Mono) -> El:
    """Column m of the order-k coefficient of a map series, read in place
    (callers never mutate it); order 0 must cover m, higher orders treat a
    missing column as zero."""
    cols = series[k] if k < len(series) else {}
    img = cols.get(m)
    if img is None:
        if k == 0:
            raise CapError(f"gauge map is not defined on monomial {m}")
        return {}
    return img


def _apply_order_term(series: list, k: int, x: El,
                      out: El | None = None) -> El:
    """Add the order-k coefficient of a map series applied to x to `out` (a
    new dict by default) and return it; missing columns as in `_column`."""
    out = {} if out is None else out
    for m, c in x.items():
        if c:
            _add_scaled(out, _column(series, k, m), c)
    return out


def _map_series_inverse(algebra: TruncatedUg, v: list, upto: int) -> list:
    """Compositional inverse of a map series with identity order-0 part."""
    ident = identity_columns(algebra)
    if any(v[0].get(m) != ident[m] for m in ident):
        raise ConfigError("map series inverse needs the identity at order 0")
    inv: list[dict] = [identity_columns(algebra)] + [{} for _ in range(upto)]
    monos = algebra.basis(algebra.window)
    for n in range(1, upto + 1):
        cols: dict = {}
        for m in monos:
            acc: El = {}
            for k in range(1, n + 1):
                if k < len(v) and v[k]:
                    src = _column(inv, n - k, m)
                    if not src:
                        continue
                    for m2, c in _apply_order_term(v, k, src).items():
                        add_term(acc, m2, -c)
            if acc:
                cols[m] = acc
        inv[n] = cols
    return inv


def _compose_map_series(algebra: TruncatedUg, a: list, b: list,
                        upto: int) -> list:
    """(a after b) order by order; both must be identity at order 0."""
    out: list[dict] = [identity_columns(algebra)] + [{} for _ in range(upto)]
    monos = algebra.basis(algebra.window)
    for n in range(1, upto + 1):
        cols: dict = {}
        for m in monos:
            acc: El = {}
            for i in range(n + 1):
                mid = _column(b, n - i, m)
                if mid:
                    _apply_order_term(a, i, mid, out=acc)
            if acc:
                cols[m] = acc
        out[n] = cols
    return out


def _transport_table(algebra: TruncatedUg, mu: list, v: list, vinv: list,
                     upto: int) -> list:
    """The gauge-transported multiplication v(mu(vinv x, vinv y)) as a list
    of per-order tables on window pairs.

    By bilinearity the order-n term on (x, y) is sum_i v_i(P_{n-i}) with
    P_s = sum_{l+j+k=s} mu_l(vinv_j x, vinv_k y), so each product is formed
    once, not once for every order it feeds.
    """
    out: list[dict] = [{} for _ in range(upto + 1)]
    for (m1, m2) in window_pairs(algebra):
        xs = [_column(vinv, j, m1) for j in range(upto + 1)]
        ys = [_column(vinv, k, m2) for k in range(upto + 1)]
        prods: list[El] = []
        for s in range(upto + 1):
            acc: El = {}
            for l in range(min(s + 1, len(mu))):
                if not mu[l]:
                    continue
                for j in range(s - l + 1):
                    if xs[j] and ys[s - l - j]:
                        _mu_term(mu[l], xs[j], ys[s - l - j],
                                 strict=(l == 0), out=acc)
            prods.append(acc)
        for n in range(upto + 1):
            acc = {}
            for i in range(n + 1):
                if prods[n - i]:
                    _apply_order_term(v, i, prods[n - i], out=acc)
            if acc:
                out[n][(m1, m2)] = acc
    return out


def derivation_gauge(algebra: TruncatedUg, gen_images: dict) -> dict:
    """Extend generator images to a window endomorphism by the Leibniz
    recursion b(g w) = g b(w) + b(g) w with b(1) = 0.

    gen_images maps generator monomials to elements; images of degree at
    most one keep the extension filtered.  A convenient builder for planted
    gauges in tests and reports.
    """
    cols: dict = {}
    for m in algebra.basis(algebra.window):
        dm = sum(m)
        if dm == 0:
            continue
        if dm == 1:
            if m in gen_images and gen_images[m]:
                cols[m] = dict(gen_images[m])
            continue
        a, b, c = m
        if a > 0:
            g, w = (1, 0, 0), (a - 1, b, c)
        elif b > 0:
            g, w = (0, 1, 0), (a, b - 1, c)
        else:
            g, w = (0, 0, 1), (a, b, c - 1)
        acc: El = {}
        if w in cols:
            for mm, cc in algebra.multiply({g: Fraction(1)}, cols[w]).items():
                add_term(acc, mm, cc)
        if g in cols:
            for mm, cc in algebra.multiply(cols[g], {w: Fraction(1)}).items():
                add_term(acc, mm, cc)
        if acc:
            cols[m] = acc
    return cols


def plant_deformation(algebra: TruncatedUg, gauge_cols: dict,
                      upto: int) -> list:
    """The deformed multiplication trivialized by V = Id + hbar * gauge:
    mu(x, y) = V^{-1}(mu_0(V x, V y)) as per-order tables on window pairs.
    Feeding the result to mult_trivialize recovers a gauge with the same
    effect (not necessarily the same columns)."""
    v = [identity_columns(algebra), dict(gauge_cols)] \
        + [{} for _ in range(max(0, upto - 1))]
    vinv = _map_series_inverse(algebra, v, upto)
    std = standard_multiplication(algebra)
    return _transport_table(algebra, [std], vinv, v, upto)


def mult_trivialize(algebra: TruncatedUg, mu: list, upto: int,
                    with_transcript: bool = False):
    """Remove a deformed multiplication order by order.

    mu is the list [mu_0, mu_1, ...] of bilinear order terms on window
    pairs (monomial pairs with total degree <= window); mu_0 must be the
    standard multiplication (pass None to use it, anything else is checked
    entry by entry) and the higher terms must be filtered, never raising
    total degree.  The solver finds a gauge V = Id + sum beta_n hbar^n of
    filtered window endomorphisms with

        V(mu(V^{-1} x, V^{-1} y)) = mu_0(x, y)  mod hbar^{upto+1},

    re-verified on every window pair from the original input before
    returning.  At each order the current multiplication must be
    associative (ConfigError otherwise) and the coboundary equation
    f_n(x, y) = x b(y) - b(xy) + b(x) y must be solvable on the window
    (ObstructionError with the order index otherwise).
    with_transcript=True also returns the per-order record.
    """
    if not mu:
        raise ConfigError("need at least the order-0 multiplication")
    pairs = window_pairs(algebra)
    std = standard_multiplication(algebra)
    if mu[0] is not None:
        for key in pairs:
            if mu[0].get(key, {}) != std[key]:
                raise ConfigError(
                    "order-0 term differs from the standard multiplication "
                    f"on {key}")
    mu = [std] + [dict(m) for m in mu[1:]]
    _validate_deformation(algebra, mu)

    current = [dict(t) for t in mu] + [{} for _ in range(upto + 1 - len(mu))]
    v_total: list[dict] = [identity_columns(algebra)] \
        + [{} for _ in range(upto)]
    transcript: list[dict] = []
    for n in range(1, upto + 1):
        defect = _associativity_defect(algebra, current, n)
        if defect is not None:
            raise ConfigError(
                f"deformed multiplication is not associative at order {n} "
                f"on {defect[:3]}")
        f_n = current[n]
        if not any(f_n.get(key) for key in pairs):
            transcript.append({"order": n, "beta": {}, "defect": "zero"})
            continue
        beta = _solve_gauge_order(algebra, f_n, order=n)
        transcript.append({"order": n, "beta": beta, "defect": "solved"})
        step: list[dict] = [identity_columns(algebra)] \
            + [{} for _ in range(upto)]
        step[n] = beta
        v_total = _compose_map_series(algebra, step, v_total, upto)
        vinv = _map_series_inverse(algebra, v_total, upto)
        current = _transport_table(algebra, mu, v_total, vinv, upto)

    vinv = _map_series_inverse(algebra, v_total, upto)
    final = _transport_table(algebra, mu, v_total, vinv, upto)
    for key in pairs:
        if final[0].get(key, {}) != std[key]:
            raise ObstructionError(
                "internal: transported multiplication lost the order-0 table")
    for order in range(1, upto + 1):
        for key in pairs:
            if final[order].get(key):
                raise ObstructionError(
                    "internal: transported multiplication is still deformed "
                    f"at order {order} on {key}")

    monos = algebra.basis(algebra.window)
    result = SeriesMap(algebra=algebra, columns={
        m: [v_total[k].get(m, {m: Fraction(1)} if k == 0 else {})
            for k in range(upto + 1)]
        for m in monos})
    if with_transcript:
        return result, transcript
    return result
