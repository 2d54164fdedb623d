"""Truncated hbar-adic deformation workbench for the classical enveloping
algebra.

Everything lives inside a finite PBW window: monomials F^a H^b E^c with
a + b + c <= cap, exact coefficients, and a smaller solve window of
degree <= window (with 2 * window <= cap) from which unknowns are drawn.
Products whose degrees sum beyond the cap raise CapError instead of being
truncated, so no computation silently loses terms.  The structure constants
are ints, so integer data stay on int: _window_solve gives linalg.solve
sparse integer rows and the one Fraction(1) that makes every pivot inverse
exact, and returns each solved coefficient as an int when it is integral,
so both solvers stay on int unless a solution is fractional.

Contents:

  * TruncatedUg: the windowed algebra with datum-driven relations
      [H, E] = kappa E, [H, F] = -kappa F, [E, F] = H,
    where kappa is the self-pairing of the simple root (2 for the standard
    rank-1 preset).  Only rank-1 data are supported; higher rank would need
    a PBW basis over all positive roots, which this window model does not
    carry.  It owns the solve window: its basis `monos`, its window pairs
    `pairs`, and the order-0 product `multiply` that both solvers read.
  * a coboundary solver with deterministic solution selection
    (lexicographic pivoting over the PBW basis, free coordinates zero, hence
    minimal support among echelon solutions), which first checks its input
    is a cocycle with the Chevalley-Eilenberg differential of bounded
    1-cochains with values in the algebra under the adjoint action
    x . v = [x, v].  Generator maps and 1-cochains are keyed by generator
    monomials, in GEN_ORDER.
  * one hbar-series core (_series_mul): truncated products of coefficient
    lists for a product passed in, algebra multiplication for element
    series and composition for gauge series; element series also have an
    inverse, which only conjugate_map uses.  Every series is plain data: an
    element series is the list of its coefficients, a generator map
    {generator monomial: element series}, and a gauge the list of its
    orders, each a {monomial: image} column dict.  On it stand the two
    solvers: rigidity_conjugator finds F = ...(1+u_2 hbar^2)(1+u_1 hbar)
    with F x F^{-1} = d'(x) on the generators order by order, and
    mult_trivialize removes a deformed multiplication through the coboundary
    equation f(x, y) = x b(y) - b(xy) + b(x) y, solved among Leibniz
    extensions as the Chevalley-Eilenberg equation on generator pairs.

Each solver reads the right-hand side of order n from an identity with no
inverse in it, evaluated on its partial solution: F x = d'(x) F for the
conjugator (conjugation_residuals), and V(mu(x, y)) = V(x) V(y) on every
window pair for the trivializer (_residual).  Both solve each order in one
helper (_window_solve) and re-verify their output from the inputs through
the same identities over all orders; the trivializer's check
(trivialization_residuals) goes through the series core and shares only the
algebra's product with _residual.  That check also certifies that the
trivializer's input is associative, so its window triples are scanned for
a Hochschild cocycle defect (_cocycle_defect) only after a solve or the
check has failed, to name the failing order and triple.  An order whose
linear system has no solution inside the window raises ObstructionError
carrying the order index; window solvability is a proxy for the cohomology
vanishing the full statements assume, and the solvers report obstructions
without interpreting them.

The trivializer searches over filtration-preserving gauges: each unknown
map sends a monomial to a combination of monomials of no larger total
degree (the image of 1 is a scalar, so pure rescalings are covered).  This
keeps every evaluation inside the window; deformations that would need a
degree-raising gauge surface as obstructions.  Deformed inputs must be
filtered in the same sense and are validated up front.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import product as iproduct
from math import comb

from .errors import CapError, ConfigError, ObstructionError
from .linalg import solve
from .rootdata import RootDatum
from .sparse import add_scaled, add_term, combine, scale

Mono = tuple[int, int, int]  # exponents of F, H, E in normal order
El = dict  # Mono -> int | Fraction

GEN_MONO: dict[str, Mono] = {"F": (1, 0, 0), "H": (0, 1, 0), "E": (0, 0, 1)}
GEN_ORDER: tuple[Mono, ...] = (GEN_MONO["E"], GEN_MONO["H"], GEN_MONO["F"])
UNIT: Mono = (0, 0, 0)


def el_degree(x: El) -> int:
    """Largest total degree present; -1 for the zero element."""
    return max((sum(m) for m in x), default=-1)


class TruncatedUg:
    """PBW window of the rank-1 enveloping algebra with exact products.

    `monos` is the solve window's basis and `pairs` its window pairs, the
    monomial pairs of total degree <= window; `multiply` and `mono_mul` are
    the order-0 product every solver reads."""

    def __init__(self, datum: RootDatum, cap: int, window: int):
        if datum.rank != 1:
            raise ConfigError(
                "the deformation window supports rank-1 data only; higher "
                "rank needs a PBW basis over all positive roots")
        if cap < 2:
            raise ConfigError("cap must be at least 2")
        self.datum = datum
        self.kappa = datum.pairing[0][0]
        self.cap = cap
        self.window = window
        if self.window < 1 or 2 * self.window > cap:
            raise ConfigError(
                f"window must satisfy 1 <= window <= cap/2, got {self.window}")
        self._mono_cache: dict[tuple[Mono, Mono], El] = {}
        self.monos = self.basis(window)

    @cached_property
    def pairs(self) -> list[tuple[Mono, Mono]]:
        """The window pairs, (m1, m2) in lexicographic order."""
        return [(m1, m2) for m1 in self.monos for m2 in self.monos
                if sum(m1) + sum(m2) <= self.window]

    # -- constructors ------------------------------------------------------

    def one(self) -> El:
        return {UNIT: 1}

    def basis(self, d: int) -> list[Mono]:
        """All monomials of total degree <= d, in lexicographic order; this
        order fixes solver pivoting."""
        if d > self.cap:
            raise CapError(f"degree {d} exceeds the cap {self.cap}")
        return sorted(m for m in iproduct(range(d + 1), repeat=3)
                      if sum(m) <= d)

    # -- multiplication ----------------------------------------------------

    def _rmul_gen(self, m: Mono, g: Mono) -> El:
        """Normal-ordered expansion of (F^a H^b E^c) * g, g a generator
        monomial."""
        a, b, c = m
        k = self.kappa
        out: El = {}
        if g == GEN_MONO["E"]:
            add_term(out, (a, b, c + 1), 1)
        elif g == GEN_MONO["H"]:
            # E^c H = (H - c kappa) E^c
            add_term(out, (a, b + 1, c), 1)
            if c:
                add_term(out, (a, b, c), -c * k)
        elif g == GEN_MONO["F"]:
            # E^c F = F E^c + c H E^{c-1} - (kappa/2) c (c-1) E^{c-1},
            # then H^b F = F (H - kappa)^b
            for j in range(b + 1):
                add_term(out, (a + 1, j, c), comb(b, j) * (-k) ** (b - j))
            if c:
                add_term(out, (a, b + 1, c - 1), c)
                if c > 1:
                    add_term(out, (a, b, c - 1), -(k * c * (c - 1) // 2))
        else:
            raise ConfigError(f"unknown generator {g!r}")
        return out

    def mono_mul(self, m1: Mono, m2: Mono) -> El:
        """Normal-ordered product of two PBW monomials, memoised by prefix:
        m1 m2 = (m1 m2') g for g the last PBW letter of m2 = m2' g.  A pair
        past the cap raises CapError and is never stored, so every stored
        product is within the cap."""
        key = (m1, m2)
        hit = self._mono_cache.get(key)
        if hit is not None:
            return hit
        if sum(m1) + sum(m2) > self.cap:
            raise CapError(
                f"product degree {sum(m1)} + {sum(m2)} exceeds the "
                f"cap {self.cap}")
        if m2 == UNIT:
            out: El = {m1: 1}
        else:
            a, b, c = m2
            g = GEN_MONO["E"] if c else GEN_MONO["H"] if b else GEN_MONO["F"]
            out = {}
            prefix = (a - g[0], b - g[1], c - g[2])
            for m, coef in self.mono_mul(m1, prefix).items():
                add_scaled(out, self._rmul_gen(m, g).items(), coef)
        self._mono_cache[key] = out
        return out

    def multiply(self, x: El, y: El) -> El:
        """x y; a monomial pair past the cap raises CapError."""
        cache = self._mono_cache
        out: El = {}
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                prod = cache.get((m1, m2)) or self.mono_mul(m1, m2)
                add_scaled(out, prod.items(), c1 * c2)
        return out

    def commutator(self, x: El, y: El) -> El:
        return combine(self.multiply(x, y), self.multiply(y, x), -1)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differential in degree 1
# ---------------------------------------------------------------------------

def cochain_differential(algebra: TruncatedUg, f: dict) -> dict:
    """Chevalley-Eilenberg differential of a bounded 1-cochain f, a dict over
    generator monomials with values in the windowed algebra, for the adjoint
    action x . v = [x, v]:

      (df)(x, y) = [x, f(y)] - [y, f(x)] - f([x, y])

    on each generator pair x before y in GEN_ORDER, [., .] the algebra's
    commutator.  A key that is no generator monomial is a ConfigError.
    """
    extra = set(f) - set(GEN_ORDER)
    if extra:
        raise ConfigError(
            f"unknown generators in cochain: {sorted(extra, key=str)}")
    out = {}
    for i, x in enumerate(GEN_ORDER):
        for y in GEN_ORDER[i + 1:]:
            term = combine(algebra.commutator({x: 1}, f.get(y, {})),
                           algebra.commutator({y: 1}, f.get(x, {})), -1)
            for g, c in algebra.commutator({x: 1}, {y: 1}).items():
                add_scaled(term, f.get(g, {}).items(), -c)
            out[(x, y)] = term
    return out


# ---------------------------------------------------------------------------
# Coboundary solver for the conjugation equation
# ---------------------------------------------------------------------------

def _window_solve(equations, n: int, max_degree: int, message: str,
                  order: int | None) -> list:
    """The linalg.solve solution s of sum_i s_i lin[i] = rhs for every
    (lin, rhs) in `equations`, each s_i an int when it is integral and an
    exact Fraction otherwise.  Each equation gives one sparse row
    {i: coefficient of m in lin[i]} per monomial m either side reaches;
    the reduced row echelon form depends only on the row space, so rows
    are neither merged nor ordered.  A monomial of degree above
    `max_degree` raises CapError, an inconsistent system
    ObstructionError(message, order)."""
    rows, rhs = [], []
    for lin, want in equations:
        block: dict[Mono, dict[int, int]] = {}
        for i, el in enumerate(lin):
            for m, c in el.items():
                block.setdefault(m, {})[i] = c
        for m in want:
            block.setdefault(m, {})
        for m, row in block.items():
            if sum(m) > max_degree:
                raise CapError(
                    f"element reaches monomial {m} outside the window")
            rows.append(row)
            rhs.append(want.get(m, 0))
    # one = Fraction(1) makes each pivot inverse one / p exact; an int one
    # would divide to a float
    sol = solve(rows, rhs, n, Fraction(1))
    if sol is None:
        raise ObstructionError(message, order=order)
    return [s.numerator if s.denominator == 1 else s for s in sol]


def coboundary_solve(algebra: TruncatedUg, f: dict,
                     order: int | None = None) -> El:
    """Solve [x, u] = f(x) for all generators x, with u in the window.

    f is a 1-cochain over generator monomials.  The cocycle identity for the
    adjoint action x . v = [x, v] is checked on generator pairs first; a
    violation is a ConfigError.  The linear system has one row per
    generator and monomial reached; a monomial of degree above
    min(cap, max(window, deg f)) raises CapError.  It is solved exactly
    with lexicographic pivoting and free coordinates set to zero, so the
    returned u is deterministic and of minimal support among echelon
    solutions.  If the window contains no solution, ObstructionError
    (carrying `order` when given).
    """
    at = f" at order {order}" if order is not None else ""
    for (x, y), v in cochain_differential(algebra, f).items():
        if v:
            raise ConfigError(
                f"not a cocycle: identity fails on ({x},{y}){at}")

    unknowns = algebra.monos
    deg_f = max((el_degree(v) for v in f.values()), default=-1)
    t_deg = min(algebra.cap, max(algebra.window, deg_f))
    sol = _window_solve(
        (([algebra.commutator({g: 1}, {m: 1}) for m in unknowns], f.get(g, {}))
         for g in GEN_ORDER),
        len(unknowns), t_deg,
        f"coboundary equation has no solution within the window{at}", order)
    return {m: c for m, c in zip(unknowns, sol) if c}


# ---------------------------------------------------------------------------
# hbar-series: one truncated product for every kind of series
# ---------------------------------------------------------------------------

# A series is the list of its hbar-coefficients.  `mul(x, y, out)` adds
# x y to `out`: algebra multiplication for element series, composition for
# map series (one column dict per order).

def _series_mul(mul, a: list, b: list, upto: int) -> list:
    """sum_{i+j=n} a_i b_j for n = 0..upto."""
    out: list = [{} for _ in range(upto + 1)]
    for i, ai in enumerate(a[:upto + 1]):
        if ai:
            for j, bj in enumerate(b[:upto + 1 - i]):
                if bj:
                    mul(ai, bj, out[i + j])
    return out


def _el_mul(algebra: TruncatedUg, x: El, y: El, out: El) -> None:
    """`mul` for element series, bound to an algebra: out += x y."""
    add_scaled(out, algebra.multiply(x, y).items(), 1)


def _compose(x: dict, y: dict, out: dict) -> None:
    """`mul` for map series: out += x after y, column by column; a column
    absent from x maps to zero."""
    for m, col in y.items():
        acc = out.get(m, {})
        for mm, c in col.items():
            img = x.get(mm)
            if img:
                add_scaled(acc, img.items(), c)
        if acc:
            out[m] = acc
        else:
            out.pop(m, None)


def series_mul(algebra: TruncatedUg, a: list, b: list, upto: int) -> list:
    """Product of two coefficient lists, truncated at the hbar^upto term."""
    return _series_mul(partial(_el_mul, algebra), a, b, upto)


def series_inverse(algebra: TruncatedUg, a: list, upto: int) -> list:
    """The right inverse of a series with leading coefficient 1:
    inv_n = -sum_{k>=1} a_k inv_{n-k}."""
    if a[0] != algebra.one():
        raise ConfigError("series inverse needs leading coefficient 1")
    inv: list = [algebra.one()]
    for n in range(1, upto + 1):
        acc: El = {}
        for k in range(1, min(n, len(a) - 1) + 1):
            if a[k] and inv[n - k]:
                _el_mul(algebra, a[k], inv[n - k], acc)
        inv.append(scale(acc, -1))
    return inv


def _at(series: list, n: int) -> El:
    """The order-n coefficient; zero past the end of the list."""
    return series[n] if n < len(series) else {}


def conjugate_map(algebra: TruncatedUg, F: list, upto: int) -> dict:
    """The generator map x |-> F x F^{-1}, order by order."""
    finv = series_inverse(algebra, F, upto)
    return {g: series_mul(algebra, series_mul(algebra, F, [{g: 1}], upto),
                          finv, upto)
            for g in GEN_ORDER}


def rigidity_conjugator(algebra: TruncatedUg, d_prime: dict,
                        upto: int) -> tuple[list, list]:
    """Find F = ...(1+u_2 hbar^2)(1+u_1 hbar) with F x F^{-1} = d'(x)
    modulo hbar^{upto+1} on the generators x.

    d' maps each generator monomial to its element series; a missing
    generator or an order-0 term other than the generator is a ConfigError.
    Each order contributes one coboundary solve for the conjugation defect,
    read from the inversion-free identity F x = d'(x) F on the F solved so
    far; a window failure raises ObstructionError carrying the order.  The
    result is re-verified from scratch through the same identity at every
    order.  Returns F as an element series and the per-order record
    (chosen u_n, defect status) for reports.
    """
    for g in GEN_ORDER:
        if g not in d_prime:
            raise ConfigError(f"map has no column for generator {g}")
    if any(_at(d_prime[g], 0) != {g: 1} for g in GEN_ORDER):
        raise ConfigError("maps are not equal mod hbar")

    F: list[El] = [algebra.one()] + [{} for _ in range(upto)]
    transcript: list[dict] = []
    for n in range(1, upto + 1):
        # F x - d'(x) F = (F x F^-1 - d'(x)) F with the first factor O(hbar^n)
        residuals = conjugation_residuals(algebra, F, d_prime, n)
        gamma = {g: residuals[g][n] for g in GEN_ORDER}
        if all(not gamma[g] for g in GEN_ORDER):
            transcript.append({"order": n, "u": {}, "defect": "zero"})
            continue
        u = coboundary_solve(algebra, gamma, order=n)
        transcript.append({"order": n, "u": u, "defect": "solved"})
        step = [algebra.one()] + [u if k == n else {}
                                  for k in range(1, upto + 1)]
        F = series_mul(algebra, step, F, upto)

    residuals = conjugation_residuals(algebra, F, d_prime, upto)
    if any(r for per_gen in residuals.values() for r in per_gen):
        raise ObstructionError(
            "internal: verification failed after all orders solved")
    return F, transcript


def conjugation_residuals(algebra: TruncatedUg, F: list, d_prime: dict,
                          upto: int) -> dict:
    """Residuals of F x - d'(x) F per generator monomial x and order: an
    inversion-free restatement of F x F^{-1} = d'(x), recomputed from the
    inputs alone."""
    out: dict[Mono, list[El]] = {}
    for g in GEN_ORDER:
        lhs = series_mul(algebra, F, [{g: 1}], upto)
        rhs = series_mul(algebra, d_prime[g], F, upto)
        out[g] = [combine(a, b, -1) for a, b in zip(lhs, rhs)]
    return out


# ---------------------------------------------------------------------------
# Multiplication trivialization
# ---------------------------------------------------------------------------

def standard_multiplication(algebra: TruncatedUg) -> dict:
    """The undeformed order-0 table on window pairs."""
    return {(m1, m2): algebra.mono_mul(m1, m2) for m1, m2 in algebra.pairs}


def _mu_term(mu_n: dict, x: El, y: El, out: El) -> None:
    """Add a deformation order term evaluated on two elements to `out`; a
    pair the table lacks is zero, and tables are read in place."""
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            add_scaled(out, mu_n.get((m1, m2), {}).items(), c1 * c2)


def _validate_deformation(algebra: TruncatedUg, mu: list) -> None:
    pairs = set(algebra.pairs)
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


def _cocycle_defect(algebra: TruncatedUg, f: dict):
    """The first window triple (x, y, z) on which the Hochschild coboundary
    f(x, y) z + f(xy, z) - x f(y, z) - f(x, yz) of f against the algebra's
    product is nonzero, or None: where mu_0 + hbar^n f fails associativity
    at order n."""
    if not f:
        return None
    for m1, m2 in algebra.pairs:
        d12 = sum(m1) + sum(m2)
        for m3 in algebra.monos:
            if d12 + sum(m3) > algebra.window:
                continue
            left = algebra.multiply(f.get((m1, m2), {}), {m3: 1})
            _mu_term(f, algebra.mono_mul(m1, m2), {m3: 1}, left)
            right = algebra.multiply({m1: 1}, f.get((m2, m3), {}))
            _mu_term(f, {m1: 1}, algebra.mono_mul(m2, m3), right)
            if left != right:
                return (m1, m2, m3)
    return None


def _lead(m: Mono) -> Mono:
    """The leading PBW letter g of a monomial m of degree >= 1: m = g w
    exactly, with no lower terms, for w = m - g."""
    return (1, 0, 0) if m[0] else (0, 1, 0) if m[1] else (0, 0, 1)


def _leibniz(algebra: TruncatedUg, images: dict, f: dict) -> dict:
    """The window map b with b(m) = images[m] on 1 and on the generators,
    and b(g w) = g b(w) + b(g) w - f(g, w) above them, g the leading PBW
    generator of the monomial g w.  f is a table on monomial pairs; columns
    are sparse, an absent monomial maps to zero."""
    cols: dict = {}
    for m in algebra.monos:
        a, b, c = m
        if a + b + c <= 1:
            if images.get(m):
                cols[m] = dict(images[m])
            continue
        g = _lead(m)
        w = (a - g[0], b - g[1], c - g[2])
        acc = algebra.multiply({g: 1}, cols[w]) if w in cols else {}
        if g in cols:
            acc = combine(acc, algebra.multiply(cols[g], {w: 1}))
        if f.get((g, w)):
            acc = combine(acc, f[(g, w)], -1)
        if acc:
            cols[m] = acc
    return cols


def _solve_gauge_order(algebra: TruncatedUg, f_n: dict, order: int) -> dict:
    """Solve f_n(x, y) = x b(y) - b(xy) + b(x) y for a filtered window
    endomorphism b, f_n a table on window pairs that is unchecked here.

    A filtered b is the Leibniz extension b(g w) = g b(w) + b(g) w - f_n(g, w)
    (g the leading PBW letter of g w) of a scalar b(1) and of generator
    images of degree at most one: thirteen unknowns, b(1) first, then the
    coefficient of each m in algebra.basis(1) in b(g), g in PBW order.  They
    are solved from b(1) = f_n(1, 1) and, on each generator pair g before h
    in GEN_ORDER, the Chevalley-Eilenberg equation
        [g, b(h)] - [h, b(g)] - b([g, h]) = f_n(g, h) - f_n(h, g),
    its rows the `cochain_differential` of the basis 1-cochains g -> m.
    Its left side is the gauge defect on (g, h) minus the one on (h, g),
    a Leibniz pair where the defect is f_n(h, g), so it is the equation on
    (g, h).  Pivoting is lexicographic over the unknowns with free
    coordinates zero; inconsistency raises ObstructionError carrying the
    order.

    For a Hochschild cocycle f_n these equations imply the equation on
    every window pair.  D = f_n - (x b(y) - b(xy) + b(x) y) is a cocycle on
    the window triples.  It vanishes on (1, 1), on each Leibniz pair (g, w)
    with w != 1, on (g, 1), where D(g, 1) = g D(1, 1) by (g, 1, 1), and on
    the generator pairs, where D(g, h) = D(h, g) and one of the two is a
    Leibniz pair.  For (g, y) with y = h w, h the leading letter of y and
    g after h in PBW order, the identity on (g, h, w) and then on
    (h, g, w) gives
        D(g, y) = h D(g, w) + D(h, g w) + D([g, h], w).
    At rank 1, h is the leading letter of h m for every monomial m of g w,
    so D(h, g w) = 0, and induction on the degree of y gives D(g, y) = 0.
    Then D(1, z) = D(1, 1) z by (1, 1, z), and on (g, w, z), for x = g w
    with g its leading letter, D(x, z) = g D(w, z) + D(g, wz) - D(g, w) z,
    so D vanishes on every window pair by induction on the degree of x.
    At window 1 no generator pair is a window pair: f_n has no entry
    there, and the homogeneous rows keep the echelon choice b(g) = 0.
    A non-cocycle may solve, but its b then fails the equation on some
    other pair, and `mult_trivialize`'s final check catches that.
    """
    unknowns = [(g, m) for g in sorted(GEN_MONO.values())
                for m in algebra.basis(1)]
    diffs = [cochain_differential(algebra, {g: {m: 1}}) for g, m in unknowns]
    equations = [([{UNIT: 1}], f_n.get((UNIT, UNIT), {}))]
    equations += [([{}] + [d[(g, h)] for d in diffs],
                   combine(f_n.get((g, h), {}), f_n.get((h, g), {}), -1))
                  for g, h in diffs[0]]
    sol = _window_solve(
        equations, 1 + len(unknowns), algebra.window,
        f"gauge coboundary equation has no window solution at order {order}",
        order)
    images: dict[Mono, El] = {UNIT: {UNIT: sol[0]}} if sol[0] else {}
    for (g, m), s in zip(unknowns, sol[1:]):
        if s:
            images.setdefault(g, {})[m] = s
    return _leibniz(algebra, images, f_n)


def identity_columns(algebra: TruncatedUg) -> dict:
    return {m: {m: 1} for m in algebra.monos}


def _residual(algebra: TruncatedUg, mu: list, V: list, n: int) -> dict:
    """Order n of V(mu(x, y)) - V(x) V(y) on every window pair, the right
    side in the algebra's product, as a table without zero entries.

    Orders past the end of mu or V are zero, and so is a column V lacks;
    V[0] is the identity on the window for both callers.  If mu' is mu
    transported through V, the difference is (mu' - mu_0)(V x, V y), so
    when it vanishes below order n its order-n term is mu'_n(x, y).
    """
    cols = [_at(V, i) for i in range(n + 1)]
    # the nonzero terms of order n, listed once for all window pairs
    terms = [(cols[i], _at(mu, n - i)) for i in range(n + 1)
             if cols[i] and _at(mu, n - i)]
    products = [(v_j, v_k) for v_j, v_k in zip(cols, reversed(cols))
                if v_j and v_k]
    out: dict = {}
    for x, y in algebra.pairs:
        acc: El = {}
        for v_i, mu_j in terms:
            for m, c in mu_j.get((x, y), {}).items():
                img = v_i.get(m)
                if img:
                    add_scaled(acc, img.items(), c)
        for v_j, v_k in products:
            vx, vy = v_j.get(x), v_k.get(y)
            if vx and vy:
                add_scaled(acc, algebra.multiply(vx, vy).items(), -1)
        if acc:
            out[(x, y)] = acc
    return out


def derivation_gauge(algebra: TruncatedUg, gen_images: dict) -> dict:
    """Extend generator images to a window endomorphism by the Leibniz
    recursion b(g w) = g b(w) + b(g) w with b(1) = 0.

    gen_images maps generator monomials to elements; images of degree at
    most one keep the extension filtered.  A convenient builder for planted
    gauges in tests and reports.
    """
    return _leibniz(algebra, {m: img for m, img in gen_images.items()
                              if m != UNIT}, {})


def plant_deformation(algebra: TruncatedUg, gauge_cols: dict,
                      upto: int) -> list:
    """The deformed multiplication trivialized by V = Id + hbar * gauge:
    mu(x, y) = V^{-1}(mu_0(V x, V y)) as per-order tables on window pairs.
    Each order solves V(mu(x, y)) = V(x) V(y): mu_n is minus the residual
    with mu_n still empty.  Feeding the result to mult_trivialize recovers
    a gauge with the same effect (not necessarily the same columns)."""
    v = [identity_columns(algebra), gauge_cols]
    mu = [standard_multiplication(algebra)]
    for n in range(1, upto + 1):
        mu.append({pair: scale(el, -1)
                   for pair, el in _residual(algebra, mu, v, n).items()})
    return mu


def mult_trivialize(algebra: TruncatedUg, mu: list,
                    upto: int) -> tuple[list, list]:
    """Remove a deformed multiplication order by order.

    mu is the list [mu_0, mu_1, ...] of bilinear order terms on window
    pairs (monomial pairs with total degree <= window); mu_0 must be the
    standard multiplication (checked entry by entry) and the higher terms
    must be filtered, never raising total degree.  The solver finds a gauge
    V = Id + sum beta_n hbar^n of filtered window endomorphisms with

        V(mu(V^{-1} x, V^{-1} y)) = mu_0(x, y)  mod hbar^{upto+1},

    re-verified before returning through the inversion-free identity
    V(mu(x, y)) = V(x) V(y) on every window pair (trivialization_residuals).
    At each order n, f_n is order n of that identity's residual for the
    gauge so far (`_residual`), and f_n(x, y) = x b(y) - b(xy) + b(x) y
    is solved as b(1) = f_n(1, 1) and the Chevalley-Eilenberg equation on
    generator pairs (`_solve_gauge_order`; ObstructionError with the order
    index if it has no window solution).  The input must be
    associative, each f_n a Hochschild cocycle.  The final check
    certifies that: if it passes, each f_n is the coboundary of the
    solved beta_n on every window pair, so a cocycle.  A non-cocycle
    therefore ends in an ObstructionError or CapError, from the loop or
    the final check; only then are the kept f_n scanned in order
    (`_cocycle_defect`), and the first failing one raises ConfigError
    naming its order and window triple in place of that error.  Returns
    V as the list of its orders, each a {monomial: image} column dict
    with absent columns zero, and the per-order record.
    """
    if not mu:
        raise ConfigError("need at least the order-0 multiplication")
    std = standard_multiplication(algebra)
    for key in algebra.pairs:
        if mu[0].get(key, {}) != std[key]:
            raise ConfigError(
                "order-0 term differs from the standard multiplication "
                f"on {key}")
    mu = [std] + [dict(m) for m in mu[1:]]
    _validate_deformation(algebra, mu)

    v_total: list[dict] = [identity_columns(algebra)] \
        + [{} for _ in range(upto)]
    transcript: list[dict] = []
    tables: list[dict] = []  # f_1, f_2, ... as the loop reads them
    try:
        for n in range(1, upto + 1):
            f_n = _residual(algebra, mu, v_total, n)
            tables.append(f_n)
            if not f_n:
                transcript.append({"order": n, "beta": {}, "defect": "zero"})
                continue
            beta = _solve_gauge_order(algebra, f_n, n)
            transcript.append({"order": n, "beta": beta, "defect": "solved"})
            step = [identity_columns(algebra)] + [beta if k == n else {}
                                                  for k in range(1, upto + 1)]
            v_total = _series_mul(_compose, step, v_total, upto)

        residuals = trivialization_residuals(algebra, mu, v_total, upto)
        if residuals:
            n, pair = residuals[0]
            raise ObstructionError(
                f"internal: V(mu(x, y)) != V(x) V(y) at order {n} on {pair}")
    except (ObstructionError, CapError):
        # a certified run makes every f_n the coboundary of beta_n, so
        # only an uncertified one can hold a non-cocycle to name
        for n, f_n in enumerate(tables, start=1):
            defect = _cocycle_defect(algebra, f_n)
            if defect is not None:
                raise ConfigError(
                    "deformed multiplication is not associative at order "
                    f"{n} on {defect}") from None
        raise
    return v_total, transcript


def trivialization_residuals(algebra: TruncatedUg, mu: list, V: list,
                             upto: int) -> list:
    """The (order, pair) list where V(mu(x, y)) != V(x) V(y) modulo
    hbar^{upto+1} on window pairs, the right side in the algebra's product:
    an inversion-free restatement of V(mu(V^{-1} x, V^{-1} y)) = mu_0(x, y),
    recomputed from the inputs alone through the series core.  It shares
    `TruncatedUg.multiply` with the solver's `_residual`, but none of its
    series bookkeeping.  mu is as for mult_trivialize, with mu[0] the
    order-0 table, and V is a gauge as mult_trivialize returns it; a column
    V lacks is zero."""
    lhs = _series_mul(_compose, V, mu, upto)
    out: list = []
    for x, y in algebra.pairs:
        rhs = series_mul(algebra, [v_k.get(x, {}) for v_k in V],
                         [v_k.get(y, {}) for v_k in V], upto)
        out += [(n, (x, y)) for n in range(upto + 1)
                if lhs[n].get((x, y), {}) != rhs[n]]
    return out
