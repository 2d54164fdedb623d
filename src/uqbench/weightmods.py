"""Truncated weight modules: Vermas, a lowest-weight-free window module, and
the braiding they generate.

A module here is a finite window of basis vectors, each carrying a weight
vector (Cartan elements act by q to the pairing with it), a depth vector (its
offset from the window's reference weight in simple-root coordinates), and a
norm exponent.  E and F act by sparse columns; a column that would leave the
window is absent, and using it raises CapError so truncation artifacts are
never silently dropped.  The coaction sends a basis vector to a finite sum of
(F-word, basis vector) pairs, truncated at a stated f-degree.

The contraction convention tying the coaction to the E-action is fixed in one
place, `module_pairing`: <E^n, F^n> = (-1)^n [n]! / (q_i - q_i^{-1})^n, so that
sum_k (-1)^k ((q-q^{-1})^k/[k]!) <E^n, F^k> = delta_{n,k} and contracting the
coaction of x reproduces E^n x.

The braiding sigma: M (x) N -> N (x) M swaps, coacts on the M side, acts with
the resulting F-words on the N side, and twists by a Cartan factor.  Two
normalizations of the twist coexist and the difference matters:

* display form (weight_twist=False): the twist is q^{(beta, beta')} on the
  output legs' depth vectors only.  On rank-1 Vermas this reproduces the
  closed form
    x^n (x) x^m  |->  sum_k c_k(n) q^{2(m+k)(n-k)} x^{m+k} (x) x^{n-k}
  implemented independently in `closed_form_braiding_rank1`.  This map is a
  per-pair rescaling of the categorical braiding and does NOT satisfy the
  Yang-Baxter equation (the dropped factor depends on the pair's depths).

* categorical form (weight_twist=True): each coaction term F_i^k (x) a2 is
  first renormalized by q_i^{-k(k-1)/2}, which is exactly what makes the
  coaction dual to `uq.double_pairing` (<E^k, F^k> there carries
  (-1)^k q_i^{k(k-1)/2} [k]!/(q_i-q_i^{-1})^k), and the twist exponent is
    (beta_N', ref_M) + (beta_M', ref_N) - (beta_N', beta_M')
  on the output legs, where ref is the module's reference weight (the weight
  at depth zero) and (,) pairs depths with weights through the root form.
  This is the inverse Cartan weight factor normalized to 1 on the reference
  pair; it is a genuine braiding (Yang-Baxter holds exactly, and mixed-weight
  triples pass as well).  `ybe_check` and `braid_rep` use this form.

On tensor windows the braiding's F-action uses the bosonized smash coproduct,
F(b (x) c) = Fb (x) c + q^{(alpha_i, wt b)} b (x) Fc, stored in
`braid_f_cols`; with it the categorical form also satisfies the right hexagon
sigma_{M, N (x) P} = (1 (x) sigma_{M,P})(sigma_{M,N} (x) 1) on rank-1 windows
(the module tensor action `f_cols` keeps the inverse decoration q^{-(tau, wt)}
and is what `apply_f_word` uses).

`ybe_check` and `braid_rep` compute sigma once per call, one `braid_pair` per
label pair, and apply it to sparse vectors of label tuples; `braid_rep`
writes the dense matrix out only at the end.  Both are rank-1 only and raise
ConfigError on rank >= 2: there `build_verma` keeps only the first-order
terms of the coaction, which is not a braiding, and the quasi-R-matrix
coaction is not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .braiding import Word
from .errors import CapError, ConfigError
from .linalg import invert
from .rootdata import RootDatum
from .scalars import ScalarQ, q_binomial, q_factorial, q_int, q_rising
from .sparse import add_term
from .uq import UqContext

ZERO = ScalarQ.zero()
ONE = ScalarQ.one()

Vec = dict  # label -> ScalarQ


def vec_eq(a: Vec, b: Vec) -> bool:
    return {k: v for k, v in a.items() if not v.is_zero()} == \
           {k: v for k, v in b.items() if not v.is_zero()}


@dataclass
class WeightModule:
    """A windowed weight module with explicit truncation semantics.

    braid_f_cols, when set, is the F-action braidings use on this module in
    place of f_cols.  It differs from f_cols only on tensor windows: inside
    the braiding composite an F-word distributes over a tensor product with
    the positive Cartan decoration of the graded smash coproduct,
    F (b (x) c) = (F b) (x) c + q^{(alpha_i, wt b)} b (x) (F c),
    while the module tensor action itself uses the quantum group coproduct
    with the inverse decoration.  Leaf modules leave it None.
    """

    datum: RootDatum
    labels: tuple
    weights: dict
    depths: dict
    norm_exps: dict
    e_cols: dict
    f_cols: dict
    coaction_cols: dict
    coaction_cap: int
    window: str
    braid_f_cols: dict | None = None

    def k_scalar(self, lam: Sequence[int], label) -> ScalarQ:
        mu = self.weights[label]
        return ScalarQ.q_power(sum(a * b for a, b in zip(lam, mu)))

    def apply_k(self, lam: Sequence[int], vec: Vec) -> Vec:
        out: Vec = {}
        for label, c in vec.items():
            add_term(out, label, c * self.k_scalar(lam, label))
        return out

    def _apply_cols(self, cols: dict, which: str, i: int, vec: Vec) -> Vec:
        out: Vec = {}
        for label, c in vec.items():
            col = cols.get(label)
            if col is None:
                raise CapError(
                    f"{which}_{i} on {label!r} leaves the window ({self.window})")
            for target, c2 in col:
                add_term(out, target, c * c2)
        return out

    def apply_e(self, i: int, vec: Vec) -> Vec:
        return self._apply_cols(self.e_cols[i], "E", i, vec)

    def apply_f(self, i: int, vec: Vec) -> Vec:
        return self._apply_cols(self.f_cols[i], "F", i, vec)

    def apply_f_word(self, word: Word, vec: Vec) -> Vec:
        out = vec
        for i in reversed(word):
            out = self.apply_f(i, out)
        return out

    def apply_braid_f_word(self, word: Word, vec: Vec) -> Vec:
        cols = self.braid_f_cols if self.braid_f_cols is not None else self.f_cols
        out = vec
        for i in reversed(word):
            out = self._apply_cols(cols[i], "F", i, out)
        return out

    def apply_e_word(self, word: Word, vec: Vec) -> Vec:
        out = vec
        for i in reversed(word):
            out = self.apply_e(i, out)
        return out

    def coaction(self, label):
        col = self.coaction_cols.get(label)
        if col is None:
            raise CapError(
                f"coaction of {label!r} is not complete inside the window ({self.window})")
        return col


def module_pairing(datum: RootDatum, n: int, k: int, i: int = 0) -> ScalarQ:
    """<E_i^n, F_i^k> for the coaction contraction; the convention lives here.

    Zero unless n = k, and <E^n, F^n> = (-1)^n [n]!_{q_i} / (q_i-q_i^{-1})^n,
    which makes sum_k (-1)^k ((q_i-q_i^{-1})^k/[k]!) <E^n,F^k> collapse to 1.
    """
    if n != k:
        return ZERO
    d = datum.d[i]
    denom = ScalarQ.q_power(d) - ScalarQ.q_power(-d)
    sign = ONE if n % 2 == 0 else -ONE
    return sign * q_factorial(n, d) * denom.inverse() ** n


def coaction_contract(module: WeightModule, e_len: int, label) -> Vec:
    """Contract the coaction against E^{e_len} with module_pairing (rank 1)."""
    datum = module.datum
    if datum.rank != 1:
        raise ConfigError("coaction contraction convention is rank-1 only")
    out: Vec = {}
    for (fw, target, c) in module.coaction(label):
        val = module_pairing(datum, e_len, len(fw))
        if not val.is_zero():
            add_term(out, target, c * val)
    return out


# ---------------------------------------------------------------------------
# Verma modules
# ---------------------------------------------------------------------------

def _as_weight(datum: RootDatum, hw) -> tuple[int, ...]:
    if isinstance(hw, int):
        if datum.lattice_rank != 1:
            raise ConfigError("integer highest weight needs a rank-one lattice")
        return (hw,)
    hw = tuple(int(x) for x in hw)
    if len(hw) != datum.lattice_rank:
        raise ConfigError(
            f"weight length {len(hw)} does not match lattice rank {datum.lattice_rank}")
    return hw


def verma_e_coefficient(lam: int, n: int, d: int = 1) -> ScalarQ:
    """[n][lam-(n-1)], the closed-form E-coefficient on x^n."""
    return q_int(n, d) * q_int(lam - (n - 1), d)


def verma_k_exponent(lam: int, n: int) -> int:
    return lam - 2 * n


def verma_coaction(datum: RootDatum, lam: int, n: int, cap: int) -> list[tuple[Word, int, ScalarQ]]:
    """Closed-form rank-1 Verma coaction of x^n, terms F^k (x) x^{n-k}.

    Coefficient (-1)^k (q-q^{-1})^k [n]! [lam-n+k]! / ([k]! [n-k]! [lam-n]!),
    with the factorial ratio read as a rising product so any integer lam works.
    """
    if datum.rank != 1:
        raise ConfigError("closed-form Verma coaction is rank-1 only")
    if n > cap:
        raise CapError(f"basis vector x^{n} is outside the f-degree cap {cap}")
    d = datum.d[0]
    qd = ScalarQ.q_power(d) - ScalarQ.q_power(-d)
    out = []
    for k in range(0, min(n, cap) + 1):
        sign = ONE if k % 2 == 0 else -ONE
        coeff = sign * qd ** k * q_binomial(n, k, d) * q_rising(lam - n, k, d)
        out.append(((0,) * k, n - k, coeff))
    return out


def build_verma(datum: RootDatum, hw, cap: int) -> WeightModule:
    """Verma window: reduced F-words of degree <= cap on a highest-weight line.

    E acts by normal ordering E_i F_w through the quantum group and evaluating
    Cartan terms at the highest weight; F acts by Nichols multiplication.  The
    rank-1 closed forms are not special-cased, they fall out of this path.
    """
    if cap < 0:
        raise ConfigError("cap must be nonnegative")
    hw_vec = _as_weight(datum, hw)
    ctx = UqContext(datum, cap=max(cap, 1))
    space = ctx.nichols.space

    labels = [()]
    for total in range(1, cap + 1):
        degs = sorted(_multidegrees(datum.rank, total))
        for deg in degs:
            nb = ctx.nichols.nichols_basis(deg)
            labels.extend(sorted(nb.words))
    labels = tuple(labels)
    label_set = set(labels)

    weights = {}
    depths = {}
    norm_exps = {}
    for w in labels:
        deg = space.word_degree(w)
        beta = datum.root_combination(deg)
        weights[w] = tuple(a - b for a, b in zip(hw_vec, beta))
        depths[w] = deg
        norm_exps[w] = Fraction(len(w))

    f_cols: dict[int, dict] = {i: {} for i in range(datum.rank)}
    e_cols: dict[int, dict] = {i: {} for i in range(datum.rank)}
    for w in labels:
        for i in range(datum.rank):
            if len(w) + 1 <= cap:
                f_cols[i][w] = [(w2, c) for w2, c in ctx.word_product((i,), w)]
            ef = ctx.multiply(ctx.e_gen(i), _f_word_elt(ctx, w))
            acc: Vec = {}
            for (fw, lam, ew), c in ef.terms.items():
                if ew:
                    continue
                scalar = ScalarQ.q_power(sum(a * b for a, b in zip(lam, hw_vec)))
                add_term(acc, fw, c * scalar)
            e_cols[i][w] = sorted(acc.items())

    coaction_cols: dict = {}
    if datum.rank == 1:
        lam_int = sum(a * b for a, b in zip(datum.coroots[0], hw_vec))
        for w in labels:
            n = len(w)
            coaction_cols[w] = tuple(
                (fw, (0,) * m, c) for (fw, m, c) in verma_coaction(datum, lam_int, n, cap))
    else:
        for w in labels:
            terms = [((), w, ONE)]
            for i in range(datum.rank):
                d = datum.d[i]
                qd = ScalarQ.q_power(d) - ScalarQ.q_power(-d)
                for (target, c) in e_cols[i][w]:
                    terms.append(((i,), target, -qd * c))
            coaction_cols[w] = tuple(terms)

    for w in labels:
        assert all(t in label_set for _, t, _ in coaction_cols[w])
    return WeightModule(
        datum=datum, labels=labels, weights=weights, depths=depths,
        norm_exps=norm_exps, e_cols=e_cols, f_cols=f_cols,
        coaction_cols=coaction_cols, coaction_cap=cap,
        window=f"f-degree <= {cap}")


def _multidegrees(rank: int, total: int):
    if rank == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _multidegrees(rank - 1, total - first):
            yield (first,) + rest


def _f_word_elt(ctx: UqContext, w: Word):
    out = ctx.one()
    for i in w:
        out = ctx.multiply(out, ctx.f_gen(i))
    return out


# ---------------------------------------------------------------------------
# The lowest-weight-free window module
# ---------------------------------------------------------------------------

def build_mlambda(datum: RootDatum, lam: int, window: tuple[int, int],
                  coaction_cap: int | None = None) -> WeightModule:
    """Window of the module with basis x_{i,j}, no highest-weight generator.

    Actions: K x_{i,j} = q^{lam+2i-2j} x_{i,j}; E x_{i,j} = x_{i+1,j};
    F x_{i,j} = x_{i,j+1} - [i][lam+i-1-2j] x_{i-1,j} (second term absent at
    i = 0).  Norm exponent j - i.  The coaction sends x_{i,j} to
    sum_k (-1)^k ((q-q^{-1})^k/[k]!) F^k (x) x_{i+k,j}, truncated at the cap.
    """
    if datum.rank != 1 or datum.lattice_rank != 1:
        raise ConfigError("the window module is defined over the rank-one datum")
    if lam < 0:
        raise ConfigError("lam must be a nonnegative integer")
    i_max, j_max = window
    if i_max < 0 or j_max < 0:
        raise ConfigError("window bounds must be nonnegative")
    if coaction_cap is None:
        coaction_cap = i_max
    d = datum.d[0]
    alpha = datum.simple_roots[0]

    labels = tuple((i, j) for i in range(i_max + 1) for j in range(j_max + 1))
    weights = {}
    depths = {}
    norm_exps = {}
    for (i, j) in labels:
        weights[(i, j)] = tuple(lamv + (i - j) * a for lamv, a in zip((lam,), alpha))
        depths[(i, j)] = (j - i,)
        norm_exps[(i, j)] = Fraction(j - i)

    e_cols = {0: {}}
    f_cols = {0: {}}
    for (i, j) in labels:
        if i + 1 <= i_max:
            e_cols[0][(i, j)] = [((i + 1, j), ONE)]
        if j + 1 <= j_max:
            col = [((i, j + 1), ONE)]
            if i > 0:
                coeff = -(q_int(i, d) * q_int(lam + i - 1 - 2 * j, d))
                if not coeff.is_zero():
                    col.append(((i - 1, j), coeff))
            f_cols[0][(i, j)] = col

    qd = ScalarQ.q_power(d) - ScalarQ.q_power(-d)
    coaction_cols = {}
    for (i, j) in labels:
        if i + coaction_cap > i_max:
            continue
        terms = []
        for k in range(coaction_cap + 1):
            sign = ONE if k % 2 == 0 else -ONE
            coeff = sign * qd ** k / q_factorial(k, d)
            terms.append(((0,) * k, (i + k, j), coeff))
        coaction_cols[(i, j)] = tuple(terms)

    return WeightModule(
        datum=datum, labels=labels, weights=weights, depths=depths,
        norm_exps=norm_exps, e_cols=e_cols, f_cols=f_cols,
        coaction_cols=coaction_cols, coaction_cap=coaction_cap,
        window=f"0<=i<={i_max}, 0<=j<={j_max}")


# ---------------------------------------------------------------------------
# Braiding
# ---------------------------------------------------------------------------

def _reference_weight(M: WeightModule, label) -> tuple[int, ...]:
    """The depth-zero weight of the component containing label."""
    beta = M.datum.root_combination(M.depths[label])
    return tuple(w + b for w, b in zip(M.weights[label], beta))


def _depth_weight_pairing(datum: RootDatum, beta: Sequence[int],
                          ref: Sequence[int]) -> int:
    """(sum_i beta_i alpha_i, ref) through the root form; always an integer."""
    return sum(b * _pair_root_weight(datum, i, ref)
               for i, b in enumerate(beta) if b)


def _duality_factor(datum: RootDatum, fw: Word) -> ScalarQ:
    """q_i^{-k(k-1)/2} for fw = F_i^k, aligning the stored coaction with the
    double pairing's normalization.  Identity for words of length <= 1."""
    k = len(fw)
    if k <= 1:
        return ONE
    i = fw[0]
    if any(j != i for j in fw):
        raise ConfigError(
            "weight-twisted braiding needs single-letter coaction words")
    return ScalarQ.q_power(-datum.d[i] * k * (k - 1) // 2)


def braid_pair(datum: RootDatum, M: WeightModule, N: WeightModule,
               a_label, b_label, weight_twist: bool = False) -> Vec:
    """sigma(a (x) b) as a sparse vector over (N-label, M-label) pairs.

    weight_twist=False gives the display normalization (depth twist only);
    weight_twist=True gives the categorical braiding.  See the module
    docstring for the distinction.
    """
    out: Vec = {}
    ref_m = _reference_weight(M, a_label) if weight_twist else None
    ref_n = _reference_weight(N, b_label) if weight_twist else None
    for (fw, a2, c) in M.coaction(a_label):
        if weight_twist:
            c = c * _duality_factor(datum, fw)
        moved = N.apply_braid_f_word(fw, {b_label: ONE})
        for b2, c2 in moved.items():
            dep = datum.root_pairing(N.depths[b2], M.depths[a2])
            if weight_twist:
                exp = (_depth_weight_pairing(datum, N.depths[b2], ref_m)
                       + _depth_weight_pairing(datum, M.depths[a2], ref_n)
                       - dep)
            else:
                exp = dep
            add_term(out, (b2, a2), c * c2 * ScalarQ.q_power(exp))
    return out


def braiding(datum: RootDatum, M: WeightModule, N: WeightModule,
             cap: int, weight_twist: bool = False) -> tuple[list, list[list[ScalarQ]]]:
    """Matrix of sigma on the pairs with total depth <= cap.

    Returns (basis, matrix): basis lists (M-label, N-label) pairs for columns;
    rows are indexed by (N-label, M-label) pairs in the swapped basis order.
    """
    basis = [(a, b) for a in M.labels for b in N.labels
             if _total_depth(M, a) + _total_depth(N, b) <= cap]
    swapped = [(b, a) for (a, b) in basis]
    index = {p: k for k, p in enumerate(swapped)}
    cols = []
    for (a, b) in basis:
        col = [ZERO] * len(swapped)
        for pair, c in braid_pair(datum, M, N, a, b, weight_twist).items():
            if pair not in index:
                raise CapError(f"braiding output {pair!r} leaves the depth window")
            col[index[pair]] = c
        cols.append(col)
    matrix = [[cols[j][i] for j in range(len(basis))] for i in range(len(swapped))]
    return basis, matrix


def _total_depth(M: WeightModule, label) -> int:
    return sum(M.depths[label])


def closed_form_braiding_rank1(lam: int, lam_prime: int, n: int, m: int,
                               d: int = 1) -> list[tuple[tuple[int, int], ScalarQ]]:
    """The printed rank-1 braiding of x^n (x) x^m, independent of braid_pair.

    Output pairs (m+k, n-k) with coefficient
    (-1)^k (q-q^{-1})^k [n]![lam-n+k]!/([k]![n-k]![lam-n]!) q^{2(m+k)(n-k)}.
    The second weight lam_prime does not enter the printed coefficients; it is
    kept in the signature to mirror the braiding's type.
    """
    del lam_prime
    qd = ScalarQ.q_power(d) - ScalarQ.q_power(-d)
    out = []
    for k in range(n + 1):
        sign = ONE if k % 2 == 0 else -ONE
        coeff = sign * qd ** k * q_binomial(n, k, d) * q_rising(lam - n, k, d)
        coeff = coeff * ScalarQ.q_power(d * 2 * (m + k) * (n - k))
        out.append(((m + k, n - k), coeff))
    return out


def _pair_root_weight(datum: RootDatum, i: int, mu: Sequence[int]) -> int:
    """(alpha_i, mu) where mu is a weight vector in coroot-dual coordinates:
    computed as d_i times the coroot pairing so that (alpha_i, alpha_j)
    reproduces the stored matrix."""
    coroot = datum.coroots[i]
    return datum.d[i] * sum(a * b for a, b in zip(coroot, mu))


# ---------------------------------------------------------------------------
# Tensor windows, Yang-Baxter, braid representations
# ---------------------------------------------------------------------------

def tensor_module(datum: RootDatum, M: WeightModule, N: WeightModule) -> WeightModule:
    """M (x) N as a weight module (no coaction): enough to braid against."""
    labels = tuple((a, b) for a in M.labels for b in N.labels)
    weights = {}
    depths = {}
    norm_exps = {}
    for (a, b) in labels:
        weights[(a, b)] = tuple(x + y for x, y in zip(M.weights[a], N.weights[b]))
        depths[(a, b)] = tuple(x + y for x, y in zip(M.depths[a], N.depths[b]))
        norm_exps[(a, b)] = M.norm_exps[a] + N.norm_exps[b]
    e_cols: dict[int, dict] = {i: {} for i in range(datum.rank)}
    f_cols: dict[int, dict] = {i: {} for i in range(datum.rank)}
    braid_f_cols: dict[int, dict] = {i: {} for i in range(datum.rank)}
    m_braid = M.braid_f_cols if M.braid_f_cols is not None else M.f_cols
    n_braid = N.braid_f_cols if N.braid_f_cols is not None else N.f_cols
    for (a, b) in labels:
        for i in range(datum.rank):
            tau = datum.t_indices[i]
            ca = M.e_cols[i].get(a)
            cb = N.e_cols[i].get(b)
            if ca is not None and cb is not None:
                col: Vec = {}
                tn = ScalarQ.q_power(sum(x * y for x, y in zip(tau, N.weights[b])))
                for a2, c in ca:
                    add_term(col, (a2, b), c * tn)
                for b2, c in cb:
                    add_term(col, (a, b2), c)
                e_cols[i][(a, b)] = sorted(col.items())
            fa = M.f_cols[i].get(a)
            fb = N.f_cols[i].get(b)
            if fa is not None and fb is not None:
                col = {}
                tin = ScalarQ.q_power(-sum(x * y for x, y in zip(tau, M.weights[a])))
                for a2, c in fa:
                    add_term(col, (a2, b), c)
                for b2, c in fb:
                    add_term(col, (a, b2), c * tin)
                f_cols[i][(a, b)] = sorted(col.items())
            ba = m_braid[i].get(a)
            bb = n_braid[i].get(b)
            if ba is not None and bb is not None:
                col = {}
                tpos = ScalarQ.q_power(_pair_root_weight(datum, i, M.weights[a]))
                for a2, c in ba:
                    add_term(col, (a2, b), c)
                for b2, c in bb:
                    add_term(col, (a, b2), c * tpos)
                braid_f_cols[i][(a, b)] = sorted(col.items())
    return WeightModule(
        datum=datum, labels=labels, weights=weights, depths=depths,
        norm_exps=norm_exps, e_cols=e_cols, f_cols=f_cols,
        coaction_cols={}, coaction_cap=0,
        window=f"({M.window}) (x) ({N.window})",
        braid_f_cols=braid_f_cols)


class _SigmaTable(dict):
    """The categorical braiding sigma on M (x) M, one label pair at a time.

    table[a, b] is sigma(a (x) b) as a tuple of ((b2, a2), c), computed by
    `braid_pair` the first time the pair is asked for.  A table serves one
    `ybe_check` or `braid_rep` call and is dropped with it.  Rank-1 only
    (see the module docstring).
    """

    def __init__(self, datum: RootDatum, M: WeightModule):
        if datum.rank != 1:
            raise ConfigError(
                f"braidings are implemented for rank 1 only ({datum.name} has "
                f"rank {datum.rank}): the quasi-R-matrix coaction is not "
                "implemented")
        super().__init__()
        self.datum = datum
        self.M = M

    def __missing__(self, pair):
        col = tuple(braid_pair(self.datum, self.M, self.M, pair[0], pair[1],
                               True).items())
        self[pair] = col
        return col


def _inverse_table(sigma: _SigmaTable, pairs: Sequence) -> dict:
    """sigma^{-1} on the span of `pairs`, in the form of a sigma table.

    sigma must map the span of `pairs` into itself; it does on any depth
    window, because sigma preserves the total depth of a pair.
    """
    index = {p: k for k, p in enumerate(pairs)}
    mat = [[ZERO] * len(pairs) for _ in pairs]
    for k, p in enumerate(pairs):
        for image, c in sigma[p]:
            if image not in index:
                raise CapError(f"braid image {image!r} leaves the depth window")
            mat[index[image]][k] = c
    inv = invert(mat, ZERO, ONE)
    return {p: tuple((r, inv[i][k]) for i, r in enumerate(pairs)
                     if not inv[i][k].is_zero())
            for k, p in enumerate(pairs)}


def _braid_slot(table: Mapping, slot: int, vec: Vec, window) -> Vec:
    """Apply a pair map (a sigma table or its inverse) on tensor slots
    (slot, slot+1) of label tuples; every image tuple must lie in window."""
    out: Vec = {}
    for labels, c in vec.items():
        for (x, y), c2 in table[labels[slot], labels[slot + 1]]:
            new = labels[:slot] + (x, y) + labels[slot + 2:]
            if new not in window:
                raise CapError(f"braid image {new!r} leaves the depth window")
            add_term(out, new, c * c2)
    return out


def ybe_check(datum: RootDatum, M: WeightModule, cap: int) -> bool:
    """(sigma (x) 1)(1 (x) sigma)(sigma (x) 1) = (1 (x) sigma)(sigma (x) 1)(1 (x) sigma)
    on all triples of total depth <= cap.

    Uses the categorical braiding (weight_twist=True), computed once per
    label pair; the display normalization is not a braiding and is covered
    by the closed-form oracle tests instead.  Rank-1 only (ConfigError
    otherwise)."""
    sigma = _SigmaTable(datum, M)
    triples = {(a, b, c) for a in M.labels for b in M.labels for c in M.labels
               if _total_depth(M, a) + _total_depth(M, b) + _total_depth(M, c) <= cap}

    def slots(vec: Vec, order) -> Vec:
        for slot in order:
            vec = _braid_slot(sigma, slot, vec, triples)
        return vec

    for t in sorted(triples):
        start: Vec = {t: ONE}
        if not vec_eq(slots(start, (0, 1, 0)), slots(start, (1, 0, 1))):
            return False
    return True


def braid_rep(datum: RootDatum, M: WeightModule, n_strands: int,
              word: Sequence[int], cap: int) -> tuple[list, list[list[ScalarQ]]]:
    """Matrix of a braid word on the depth-capped window of M^{(x) n_strands}.

    Letters are nonzero integers: +i is the braiding on strands (i, i+1),
    -i its inverse (1-indexed, |i| < n_strands).  Rank-1 only.

    The word acts on sparse columns, starting from the identity, and the
    dense matrix is written out once at the end.  sigma is computed once per
    label pair; sigma^{-1} is one inversion on the label pairs of the window
    and acts slot by slot.  That equals the inverse of the slot generator
    because the generator is block-diagonal, one block per label tuple on the
    other strands, and every block is the restriction of sigma to the pairs
    of the window it fits; the window check on every image is what ensures
    that each block maps into itself.
    """
    if n_strands < 2:
        raise ConfigError("need at least two strands")
    basis = sorted(
        t for t in _label_tuples(M, n_strands)
        if sum(_total_depth(M, x) for x in t) <= cap)
    window = set(basis)
    sigma = _SigmaTable(datum, M)
    sigma_inv = None
    cols = {t: {t: ONE} for t in basis}
    for letter in word:
        if letter == 0 or abs(letter) >= n_strands:
            raise ConfigError(f"braid letter {letter} out of range for {n_strands} strands")
        table = sigma
        if letter < 0:
            if sigma_inv is None:
                sigma_inv = _inverse_table(sigma, sorted({t[:2] for t in basis}))
            table = sigma_inv
        cols = {t: _braid_slot(table, abs(letter) - 1, col, window)
                for t, col in cols.items()}
    return basis, [[cols[t].get(t2, ZERO) for t in basis] for t2 in basis]


def _label_tuples(M: WeightModule, n: int):
    if n == 0:
        yield ()
        return
    for rest in _label_tuples(M, n - 1):
        for a in M.labels:
            yield (a,) + rest
