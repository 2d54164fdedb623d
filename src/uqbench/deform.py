"""Truncated hbar-adic deformation workbench for the classical enveloping
algebra.

Everything lives inside a finite PBW window: monomials F^a H^b E^c with
a + b + c <= cap, exact coefficients, and a smaller solve window of
degree <= window (with 2 * window <= cap) from which unknowns are drawn.
Products whose degrees sum beyond the cap raise CapError instead of being
truncated, so no computation silently loses terms.  The structure constants
are ints, so integer data stay on int: _window_solve gives linalg.solve
integer rows and the one Fraction(1) that makes every pivot inverse exact,
and returns each solved coefficient as an int when it is integral, so both
solvers stay on int unless a solution is fractional.

Contents:

  * TruncatedUg: the windowed algebra with datum-driven relations
      [H, E] = kappa E, [H, F] = -kappa F, [E, F] = H,
    where kappa is the self-pairing of the simple root (2 for the standard
    rank-1 preset).  Only rank-1 data are supported; higher rank would need
    a PBW basis over all positive roots, which this window model does not
    carry.
  * a coboundary solver with deterministic solution selection
    (lexicographic pivoting over the PBW basis, free coordinates zero, hence
    minimal support among echelon solutions), which first checks its input
    is a cocycle with the Chevalley-Eilenberg differential of bounded
    1-cochains with values in the algebra.
  * one hbar-series core (_series_mul): truncated products of coefficient
    lists for a product passed in, algebra multiplication for element
    series and composition for gauge series; element series also have an
    inverse, which only conjugate_map uses.  Every series is plain data: an
    element series is the list of its coefficients, a generator map
    {generator monomial: element series}, and a gauge the list of its
    orders, each a {monomial: image} column dict.  On it stand the two
    solvers: rigidity_conjugator finds F = ...(1+u_2 hbar^2)(1+u_1 hbar)
    conjugating one series algebra map into another order by order, and
    mult_trivialize removes a deformed multiplication through the coboundary
    equation f(x, y) = x b(y) - b(xy) + b(x) y, solved among Leibniz
    extensions.

Each solver reads the right-hand side of order n from an identity with no
inverse in it, evaluated on its partial solution: F d(x) = d'(x) F for the
conjugator (conjugation_residuals), and V(mu(x, y)) = V(x) V(y) on every
window pair for the trivializer (_residual).  Both solve each order in one
helper (_window_solve) and re-verify their output from the inputs through
the same identities over all orders; the trivializer's check
(trivialization_residuals) goes through the series core and shares no code
with _residual.  An order whose linear system has no solution inside the
window raises ObstructionError carrying the order index; window
solvability is a proxy for the cohomology vanishing the full statements
assume, and the solvers report obstructions without interpreting them.

The trivializer searches over filtration-preserving gauges: each unknown
map sends a monomial to a combination of monomials of no larger total
degree (the image of 1 is a scalar, so pure rescalings are covered).  This
keeps every evaluation inside the window; deformations that would need a
degree-raising gauge surface as obstructions.  Deformed inputs must be
filtered in the same sense and are validated up front.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product as iproduct
from math import comb

from .errors import CapError, ConfigError, ObstructionError
from .linalg import solve
from .rootdata import RootDatum
from .sparse import add_term, combine, scale

Mono = tuple[int, int, int]  # exponents of F, H, E in normal order
El = dict  # Mono -> int | Fraction

GEN_ORDER = ("E", "H", "F")
GEN_MONO: dict[str, Mono] = {"F": (1, 0, 0), "H": (0, 1, 0), "E": (0, 0, 1)}
UNIT: Mono = (0, 0, 0)


def el_degree(x: El) -> int:
    """Largest total degree present; -1 for the zero element."""
    return max((sum(m) for m in x), default=-1)


class TruncatedUg:
    """PBW window of the rank-1 enveloping algebra with exact products."""

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

    # -- constructors ------------------------------------------------------

    def one(self) -> El:
        return {UNIT: 1}

    def gen(self, name: str) -> El:
        if name not in GEN_MONO:
            raise ConfigError(f"unknown generator {name!r}")
        return {GEN_MONO[name]: 1}

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
            add_term(out, (a, b, c + 1), 1)
        elif g == "H":
            # E^c H = (H - c kappa) E^c
            add_term(out, (a, b + 1, c), 1)
            if c:
                add_term(out, (a, b, c), -c * k)
        elif g == "F":
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
        """Normal-ordered product of two PBW monomials."""
        key = (m1, m2)
        hit = self._mono_cache.get(key)
        if hit is not None:
            return hit
        acc: El = {m1: 1}
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


# ---------------------------------------------------------------------------
# Lie layer: generator brackets
# ---------------------------------------------------------------------------

def lie_bracket(algebra: TruncatedUg, x: str, y: str) -> dict[str, int]:
    """[x, y] for generator names, as a combination of generator names."""
    k = algebra.kappa
    table = {
        ("H", "E"): {"E": k},
        ("H", "F"): {"F": -k},
        ("E", "F"): {"H": 1},
    }
    if x == y:
        return {}
    if (x, y) in table:
        return dict(table[(x, y)])
    return {g: -c for g, c in table[(y, x)].items()}


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differential in degree 1
# ---------------------------------------------------------------------------

def _eval_on_lie(f: dict, lie: dict[str, int]) -> El:
    """A 1-cochain f on a combination of generators."""
    out: El = {}
    for g, c in lie.items():
        for m, v in f.get(g, {}).items():
            add_term(out, m, c * v)
    return out


def cochain_differential(algebra: TruncatedUg, f: dict, act) -> dict:
    """Chevalley-Eilenberg differential of a bounded 1-cochain f, a dict over
    generator names with values in the windowed algebra, for the module
    action act(generator name, element):

      (df)(x, y) = x . f(y) - y . f(x) - f([x, y])

    on each generator pair x before y in GEN_ORDER.  An unknown generator
    name is a ConfigError.
    """
    extra = set(f) - set(GEN_ORDER)
    if extra:
        raise ConfigError(f"unknown generators in cochain: {sorted(extra)}")
    out = {}
    for i, x in enumerate(GEN_ORDER):
        for y in GEN_ORDER[i + 1:]:
            term = combine(act(x, f.get(y, {})), act(y, f.get(x, {})), -1)
            term = combine(
                term, _eval_on_lie(f, lie_bracket(algebra, x, y)), -1)
            out[(x, y)] = term
    return out


# ---------------------------------------------------------------------------
# Coboundary solver for the conjugation equation
# ---------------------------------------------------------------------------

def _window_solve(equations, n: int, targets: list[Mono], message: str,
                  order: int | None) -> list:
    """The linalg.solve solution s of sum_i s_i lin[i] = rhs for every
    (lin, rhs) in `equations`, one row per target monomial either side
    reaches, in target order, each s_i an int when it is integral and an
    exact Fraction otherwise.  A monomial outside the targets raises
    CapError, an inconsistent system ObstructionError(message, order)."""
    t_index = {m: r for r, m in enumerate(targets)}

    def row_of(m: Mono) -> int:
        r = t_index.get(m)
        if r is None:
            raise CapError(f"element reaches monomial {m} outside the window")
        return r

    rows: list[list] = []
    rhs: list = []
    for lin, want in equations:
        block: dict[int, list] = {}
        for i, el in enumerate(lin):
            for m, c in el.items():
                block.setdefault(row_of(m), [0] * n)[i] = c
        vec = {row_of(m): c for m, c in want.items()}
        for r in sorted(block.keys() | vec.keys()):
            row = block.get(r) or [0] * n
            if any(row) or vec.get(r):
                rows.append(row)
                rhs.append(vec.get(r, 0))
    # one = Fraction(1) makes each pivot inverse one / p exact; an int one
    # would divide to a float
    sol = solve(rows, rhs, n, Fraction(1))
    if sol is None:
        raise ObstructionError(message, order=order)
    return [s.numerator if s.denominator == 1 else s for s in sol]


def coboundary_solve(algebra: TruncatedUg, f: dict, d0: dict,
                     order: int | None = None) -> El:
    """Solve [d0(x), u] = f(x) for all generators x, with u in the window.

    f is a 1-cochain over generator names; d0 maps generator names to
    elements, {g: algebra.gen(g)} for the tautological embedding.  The
    cocycle identity for the action x . v = [d0(x), v] is checked on generator
    pairs first; a violation is a ConfigError.  The linear system is then
    solved exactly with lexicographic pivoting and free coordinates set to
    zero, so the returned u is deterministic and of minimal support among
    echelon solutions.  If the window contains no solution,
    ObstructionError (carrying `order` when given).
    """
    def act(gen: str, v: El) -> El:
        return algebra.commutator(d0[gen], v)

    at = f" at order {order}" if order is not None else ""
    for (x, y), v in cochain_differential(algebra, f, act).items():
        if v:
            raise ConfigError(
                f"not a cocycle: identity fails on ({x},{y}){at}")

    unknowns = algebra.basis(algebra.window)
    deg_f = max((el_degree(v) for v in f.values()), default=-1)
    deg_d0 = max(el_degree(d0[g]) for g in GEN_ORDER)
    t_deg = min(algebra.cap,
                max(algebra.window + max(deg_d0, 0), deg_f, algebra.window))
    sol = _window_solve(
        (((act(g, {m: 1}) for m in unknowns), f.get(g, {}))
         for g in GEN_ORDER),
        len(unknowns), algebra.basis(t_deg),
        f"coboundary equation has no solution within the window{at}", order)
    return {m: c for m, c in zip(unknowns, sol) if c}


# ---------------------------------------------------------------------------
# hbar-series: one truncated product for every kind of series
# ---------------------------------------------------------------------------

# A series is the list of its hbar-coefficients.  `mul(x, y, out, sign)`
# adds sign * x y to `out`: algebra multiplication for element series,
# composition for map series (one column dict per order).

def _series_mul(mul, a: list, b: list, upto: int) -> list:
    """sum_{i+j=n} a_i b_j for n = 0..upto."""
    out: list = [{} for _ in range(upto + 1)]
    for i, ai in enumerate(a[:upto + 1]):
        if ai:
            for j, bj in enumerate(b[:upto + 1 - i]):
                if bj:
                    mul(ai, bj, out[i + j], 1)
    return out


def _el_mul(algebra: TruncatedUg, x: El, y: El, out: El, sign: int) -> None:
    """`mul` for element series, bound to an algebra: out += sign * x y."""
    for m, c in algebra.multiply(x, y).items():
        add_term(out, m, c if sign == 1 else -c)


def _compose(x: dict, y: dict, out: dict, sign: int) -> None:
    """`mul` for map series: out += sign * (x after y) column by column; a
    column absent from x maps to zero."""
    for m, col in y.items():
        acc = out.get(m, {})
        for mm, c in col.items():
            img = x.get(mm)
            if img:
                _add_scaled(acc, img, c if sign == 1 else -c)
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
    inv: list = [algebra.one()] + [{} for _ in range(upto)]
    for n in range(1, upto + 1):
        for k in range(1, min(n, len(a) - 1) + 1):
            if a[k] and inv[n - k]:
                _el_mul(algebra, a[k], inv[n - k], inv[n], -1)
    return inv


def _at(series: list, n: int) -> El:
    """The order-n coefficient; zero past the end of the list."""
    return series[n] if n < len(series) else {}


def identity_map(upto: int) -> dict:
    """The generator map x |-> x: {generator monomial: element series}."""
    return {m: [{m: 1}] + [{} for _ in range(upto)]
            for m in GEN_MONO.values()}


def conjugate_map(algebra: TruncatedUg, F: list, d: dict, upto: int) -> dict:
    """x |-> F d(x) F^{-1} order by order, on d's generator columns."""
    finv = series_inverse(algebra, F, upto)
    return {m: series_mul(algebra, series_mul(algebra, F, col, upto), finv,
                          upto)
            for m, col in d.items()}


def _gen_columns(d: dict) -> dict[str, list]:
    """{generator name: element series} of a generator map; a missing
    generator is a ConfigError."""
    for g in GEN_ORDER:
        if GEN_MONO[g] not in d:
            raise ConfigError(f"map has no column for generator {g}")
    return {g: d[GEN_MONO[g]] for g in GEN_ORDER}


def _check_lie_map(algebra: TruncatedUg, d0: dict) -> None:
    for i, x in enumerate(GEN_ORDER):
        for y in GEN_ORDER[i + 1:]:
            if algebra.commutator(d0[x], d0[y]) != _eval_on_lie(
                    d0, lie_bracket(algebra, x, y)):
                raise ConfigError(
                    f"order-0 map does not respect the bracket on ({x},{y})")


def rigidity_conjugator(algebra: TruncatedUg, d: dict, d_prime: dict,
                        upto: int) -> tuple[list, list]:
    """Find F = ...(1+u_2 hbar^2)(1+u_1 hbar) with F d F^{-1} = d' modulo
    hbar^{upto+1} on the generators.

    d and d' map each generator monomial to its element series.  Both must
    agree at order 0, where they must respect the bracket.  Each order
    contributes one coboundary solve for the conjugation defect, read from
    the inversion-free identity F d(x) = d'(x) F on the F solved so far; a
    window failure raises ObstructionError carrying the order.  The result
    is re-verified from scratch through the same identity at every order
    before being returned.  Returns F as an element series and the
    per-order record (chosen u_n, defect status) for reports.
    """
    cols, cols_prime = _gen_columns(d), _gen_columns(d_prime)
    d0 = {g: _at(cols[g], 0) for g in GEN_ORDER}
    if any(d0[g] != _at(cols_prime[g], 0) for g in GEN_ORDER):
        raise ConfigError("maps are not equal mod hbar")
    _check_lie_map(algebra, d0)

    F: list[El] = [algebra.one()] + [{} for _ in range(upto)]
    transcript: list[dict] = []
    for n in range(1, upto + 1):
        # F d - d' F = (F d F^-1 - d') F with the first factor O(hbar^n)
        residuals = conjugation_residuals(algebra, F, d, d_prime, n)
        gamma = {g: residuals[g][n] for g in GEN_ORDER}
        if all(not gamma[g] for g in GEN_ORDER):
            transcript.append({"order": n, "u": {}, "defect": "zero"})
            continue
        u = coboundary_solve(algebra, gamma, d0, order=n)
        transcript.append({"order": n, "u": u, "defect": "solved"})
        step = [algebra.one()] + [u if k == n else {}
                                  for k in range(1, upto + 1)]
        F = series_mul(algebra, step, F, upto)

    residuals = conjugation_residuals(algebra, F, d, d_prime, upto)
    if any(r for per_gen in residuals.values() for r in per_gen):
        raise ObstructionError(
            "internal: verification failed after all orders solved")
    return F, transcript


def conjugation_residuals(algebra: TruncatedUg, F: list, d: dict,
                          d_prime: dict, upto: int) -> dict:
    """Residuals of F d(x) - d'(x) F per generator and order: an
    inversion-free restatement of F d F^{-1} = d', recomputed from the
    inputs alone."""
    out: dict[str, list[El]] = {}
    for g in GEN_ORDER:
        lhs = series_mul(algebra, F, d[GEN_MONO[g]], upto)
        rhs = series_mul(algebra, d_prime[GEN_MONO[g]], F, upto)
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


def _entry(table: dict, key, strict: bool) -> El:
    """The entry of a multiplication table on a monomial pair, read in place
    (callers never mutate tables).  A missing pair is zero in sparse
    higher-order terms and, where strict (order 0), a CapError."""
    entry = table.get(key)
    if entry is None and strict:
        raise CapError(f"multiplication table has no entry for {key}")
    return {} if entry is None else entry


def _mu_term(mu_n: dict, x: El, y: El, strict: bool,
             out: El | None = None) -> El:
    """Add a bilinear order term evaluated on two elements to `out` (a new
    dict by default) and return it; missing pairs as in `_entry`."""
    out = {} if out is None else out
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            c = c2 if c1 == 1 else c1 if c2 == 1 else c1 * c2
            if c:
                _add_scaled(out, _entry(mu_n, (m1, m2), strict), c)
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


def _cocycle_defect(algebra: TruncatedUg, std: dict, f: dict):
    """The first window triple (x, y, z) on which the Hochschild coboundary
    f(x, y) z + f(xy, z) - x f(y, z) - f(x, yz) of f against the standard
    table is nonzero, or None: where std + hbar^n f fails associativity at
    order n."""
    if not f:
        return None
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
                left = _mu_term(std, f.get((m1, m2), {}), {m3: 1}, True)
                _mu_term(f, std[(m1, m2)], {m3: 1}, False, left)
                right = _mu_term(std, {m1: 1}, f.get((m2, m3), {}), True)
                _mu_term(f, {m1: 1}, std[(m2, m3)], False, right)
                if left != right:
                    return (m1, m2, m3)
    return None


def _leibniz(algebra: TruncatedUg, images: dict, f: dict) -> dict:
    """The window map b with b(m) = images[m] on 1 and on the generators,
    and b(g w) = g b(w) + b(g) w - f(g, w) above them, g the leading PBW
    generator of the monomial g w.  f is a table on monomial pairs; columns
    are sparse, an absent monomial maps to zero."""
    cols: dict = {}
    for m in algebra.basis(algebra.window):
        a, b, c = m
        if a + b + c <= 1:
            if images.get(m):
                cols[m] = dict(images[m])
            continue
        g = (1, 0, 0) if a else (0, 1, 0) if b else (0, 0, 1)
        w = (a - g[0], b - g[1], c - g[2])
        acc = algebra.multiply({g: 1}, cols[w]) if w in cols else {}
        if g in cols:
            acc = combine(acc, algebra.multiply(cols[g], {w: 1}))
        if f.get((g, w)):
            acc = combine(acc, f[(g, w)], -1)
        if acc:
            cols[m] = acc
    return cols


def _gauge_defect(std: dict, b: dict, x: Mono, y: Mono) -> El:
    """x b(y) - b(xy) + b(x) y on a window pair, through the standard table
    and the sparse columns of b."""
    out: El = {}
    if y in b:
        _mu_term(std, {x: 1}, b[y], True, out)
    for m, c in std[(x, y)].items():
        if m in b:
            _add_scaled(out, b[m], -c)
    if x in b:
        _mu_term(std, b[x], {y: 1}, True, out)
    return out


def _homogeneous_gauges(algebra: TruncatedUg, std: dict) -> tuple[list, list]:
    """The thirteen homogeneous Leibniz extensions of the gauge solve, one
    per unknown coefficient (the value on 1, and on each generator one basis
    monomial of degree at most one), and their defects on every window pair
    as ((x, y), [x b(y) - b(xy) + b(x) y for each b]).  Both depend only on
    the algebra, so `mult_trivialize` builds them once for all orders."""
    unknowns = [(UNIT, UNIT)] + [(gm, im) for gm in sorted(GEN_MONO.values())
                                 for im in algebra.basis(1)]
    homogeneous = [_leibniz(algebra, {m: {im: 1}}, {})
                   for m, im in unknowns]
    return homogeneous, [((x, y), [_gauge_defect(std, b, x, y)
                                   for b in homogeneous])
                         for x, y in window_pairs(algebra)]


def _solve_gauge_order(algebra: TruncatedUg, f_n: dict, order: int,
                       std: dict, gauges: tuple[list, list]) -> dict:
    """Solve f_n(x, y) = x b(y) - b(xy) + b(x) y for a filtered window
    endomorphism b.

    On a monomial x = g w (g the leading PBW generator) the pair (g, w)
    forces b(g w) = g b(w) + b(g) w - f_n(g, w), so a filtered solution is
    determined by its values on 1 (a scalar) and on the three generators
    (degree at most one each).  b is one particular Leibniz extension (zero
    on 1 and the generators) plus a combination of the thirteen homogeneous
    ones of `gauges` (from `_homogeneous_gauges` on the standard table
    `std`); the coefficients are solved from the window-pair equations with
    lexicographic pivoting and free coordinates zero, and inconsistency
    raises ObstructionError carrying the order.
    """
    homogeneous, defects = gauges
    particular = _leibniz(algebra, {}, f_n)
    sol = _window_solve(
        ((lin, combine(f_n.get(pair, {}), _gauge_defect(std, particular, *pair),
                       -1))
         for pair, lin in defects),
        len(homogeneous), algebra.basis(algebra.window),
        f"gauge coboundary equation has no window solution at order {order}",
        order)
    out: dict[Mono, El] = {}
    for m in algebra.basis(algebra.window):
        el = dict(particular.get(m, {}))
        for s, b in zip(sol, homogeneous):
            if s and m in b:
                _add_scaled(el, b[m], s)
        if el:
            out[m] = el
    return out


def identity_columns(algebra: TruncatedUg) -> dict:
    return {m: {m: 1} for m in algebra.basis(algebra.window)}


def _residual(algebra: TruncatedUg, mu: list, V: list, n: int) -> dict:
    """Order n of V(mu(x, y)) - V(x) V(y) on every window pair, the right
    side in the order-0 table mu[0], as a table without zero entries.

    Orders past the end of mu or V are zero, and so is a column V lacks;
    V[0] is the identity on the window for both callers.  If mu' is mu
    transported through V, the difference is (mu' - mu_0)(V x, V y), so
    when it vanishes below order n its order-n term is mu'_n(x, y).
    """
    cols = [_at(V, i) for i in range(n + 1)]
    terms = [_at(mu, n - i) for i in range(n + 1)]
    out: dict = {}
    for x, y in window_pairs(algebra):
        acc: El = {}
        for v_i, mu_j in zip(cols, terms):
            for m, c in mu_j.get((x, y), {}).items():
                img = v_i.get(m)
                if img:
                    _add_scaled(acc, img, c)
        for v_j, v_k in zip(cols, reversed(cols)):
            vx, vy = v_j.get(x), v_k.get(y)
            if vx and vy:
                for m, c in _mu_term(mu[0], vx, vy, True).items():
                    add_term(acc, m, -c)
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
    gauge so far (`_residual`); it must be a Hochschild cocycle, that is
    associative at order n (ConfigError otherwise), and f_n(x, y) =
    x b(y) - b(xy) + b(x) y must be solvable on the window
    (ObstructionError with the order index otherwise).  Returns V as the
    list of its orders, each a {monomial: image} column dict with absent
    columns zero, and the per-order record.
    """
    if not mu:
        raise ConfigError("need at least the order-0 multiplication")
    pairs = window_pairs(algebra)
    std = standard_multiplication(algebra)
    for key in pairs:
        if mu[0].get(key, {}) != std[key]:
            raise ConfigError(
                "order-0 term differs from the standard multiplication "
                f"on {key}")
    mu = [std] + [dict(m) for m in mu[1:]]
    _validate_deformation(algebra, mu)

    v_total: list[dict] = [identity_columns(algebra)] \
        + [{} for _ in range(upto)]
    transcript: list[dict] = []
    gauges = None
    for n in range(1, upto + 1):
        f_n = _residual(algebra, mu, v_total, n)
        defect = _cocycle_defect(algebra, std, f_n)
        if defect is not None:
            raise ConfigError(
                f"deformed multiplication is not associative at order {n} "
                f"on {defect}")
        if not f_n:
            transcript.append({"order": n, "beta": {}, "defect": "zero"})
            continue
        if gauges is None:
            gauges = _homogeneous_gauges(algebra, std)
        beta = _solve_gauge_order(algebra, f_n, n, std, gauges)
        transcript.append({"order": n, "beta": beta, "defect": "solved"})
        step = [identity_columns(algebra)] + [beta if k == n else {}
                                              for k in range(1, upto + 1)]
        v_total = _series_mul(_compose, step, v_total, upto)

    residuals = trivialization_residuals(algebra, mu, v_total, upto)
    if residuals:
        n, pair = residuals[0]
        raise ObstructionError(
            f"internal: V(mu(x, y)) != V(x) V(y) at order {n} on {pair}")
    return v_total, transcript


def trivialization_residuals(algebra: TruncatedUg, mu: list, V: list,
                             upto: int) -> list:
    """The (order, pair) list where V(mu(x, y)) != V(x) V(y) modulo
    hbar^{upto+1} on window pairs, the right side in the standard product:
    an inversion-free restatement of V(mu(V^{-1} x, V^{-1} y)) = mu_0(x, y),
    recomputed from the inputs alone through the series core, with no code
    shared with the solver's `_residual`.  mu is as for
    mult_trivialize, with mu[0] the order-0 table, and V is a gauge as
    mult_trivialize returns it; a column V lacks is zero."""
    lhs = _series_mul(_compose, V, mu, upto)
    out: list = []
    for x, y in window_pairs(algebra):
        rhs = series_mul(algebra, [v_k.get(x, {}) for v_k in V],
                         [v_k.get(y, {}) for v_k in V], upto)
        out += [(n, (x, y)) for n in range(upto + 1)
                if lhs[n].get((x, y), {}) != rhs[n]]
    return out
