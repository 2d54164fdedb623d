"""Truncated weight modules: Vermas, a lowest-weight-free window module, and
the braiding they generate.

A module here is a finite window of basis vectors around one reference
weight ref, the weight at depth zero.  Each vector carries a depth vector
beta, its offset from ref in simple-root coordinates (its sum is the
label's norm exponent), and so the weight ref - sum_i beta_i alpha_i, by
q to whose pairing the Cartan elements act.  Module vectors are plain
{label: ScalarQ} dicts.  E and F act by sparse columns; a column that would
leave the window is absent, and using it raises CapError so truncation
artifacts are never silently dropped.  The coaction sends a basis vector to
a finite sum of (F-word, basis vector) pairs, up to the f-degree of the
window's Nichols context, the cap of its `nichols`.

On a Verma window the basis vectors are F_w v, w a Nichols basis word, and
F_i acts by Nichols multiplication.  E_i acts by the commutator formula
    E_i F_w v = sum_{k: w_k = i} [<alpha_i^vee, mu_k>]_{q_i} F_{w - w_k} v,
    mu_k = hw - sum_{l > k} alpha_{w_l},
w - w_k being w without its letter k, reduced to basis words; normal
ordering E_i F_w through `uq.UqContext` is its test oracle.

The coaction is the quasi-R-matrix (Majid's double bosonisation; Lusztig,
ch. 4): a |-> sum_b F_b (x) E_{b*} a, b running over the Nichols basis words
of each multidegree, {E_{b*}} the dual basis under the skew pairing of the
double, which is the Nichols form up to a sign (`_dual_basis`).  Every window
reads it from its own E-action by `_dual_basis_coaction`, up to the cap of
its Nichols context (the cap of a Verma, whose builder's context it keeps,
i_max of `build_mlambda`, the depth span of a tensor window), the first time
any label's coaction is asked for.  The sum for a label stops at the first
total degree whose E-words all kill it; a label that an E-word takes out of
the window gets no column, and asking for its coaction raises CapError.
Tests pin rank 1 to a closed form.

The braiding sigma: M (x) N -> N (x) M swaps, coacts on the M side, acts with
the resulting F-words on the N side, and twists by q to the exponent
    (beta_N', ref_M) + (beta_M', ref_N) - (beta_N', beta_M')
on the output legs, where ref is the module's reference weight and (,) is
`RootDatum.root_weight_pairing`, depths against weights.  This is the inverse
Cartan weight factor normalized to 1 on the reference pair; it is a genuine
braiding (Yang-Baxter holds exactly, and mixed-weight triples pass as well).
On rank 1 it is the closed form `closed_form_braiding_rank1`.

`tensor_module` makes M (x) N a module through the bar-coproduct
    E_i -> E_i (x) t_i^{-1} + 1 (x) E_i,   F_i -> F_i (x) 1 + t_i (x) F_i,
the coproduct of `uq.UqContext` conjugated by the bar involution (E and F
fixed, K -> K^{-1}, q -> q^{-1}).  The quasi-R-matrix intertwines the two
coproducts (Lusztig, Introduction to Quantum Groups, Thm 4.1.2), so sigma
commutes with every E_i and F_i acting this way.  At every rank the hexagon
sigma_{M, N (x) P} = (1 (x) sigma_{M,P})(sigma_{M,N} (x) 1) holds, and so does
sigma_{M (x) N, P} = (sigma_{M,P} (x) 1)(1 (x) sigma_{N,P}) for every P: the
coaction of M (x) N is a twisted product of the factors' coactions.
`scripts/braiding_audit.py` checks naturality and both hexagons.

`ybe_check` and `braid_rep` compute sigma once per call, one `braid_pair` per
label pair, as a pair table: table[x, y] lists the image of the label pair
as ((x2, y2), c), ....  One braid-word engine applies such a table:
`_braid_slot` acts on tensor slots (slot, slot+1) of sparse vectors of label
tuples inside a window, and `braid_relation_holds` checks the braid relation
of a table on label triples.  `ybe_check` is `braid_relation_holds` on its
depth-capped triples, and `braid_rep` writes the dense matrix out only at
the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import CapError, ConfigError
from .linalg import invert
from .nichols import Degree, NicholsContext, Word, multidegrees, word_degree
from .rootdata import RootDatum
from .scalars import ScalarQ, q_binomial, q_int, q_rising
from .sparse import add_term

ZERO = ScalarQ.zero()
ONE = ScalarQ.one()

Vec = dict  # label -> ScalarQ


@dataclass
class WeightModule:
    """A windowed weight module with explicit truncation semantics.

    E_i and F_i act by the sparse columns e_cols[i] and f_cols[i], K by q to
    the pairing with the label's weight, read from the one reference weight
    ref and the label's depth; a label without a column is outside the
    window.  The coaction columns hold (F-word, label, c) terms of f-degree
    <= nichols.cap, read from e_cols in the Nichols context `nichols` by
    `_dual_basis_coaction` the first time any label is asked for; a label
    whose coaction leaves the window has no column.  A copy made by
    `dataclasses.replace` reads its own.
    """

    datum: RootDatum
    labels: tuple
    ref: tuple
    depths: dict
    e_cols: dict
    f_cols: dict
    nichols: NicholsContext
    window: str

    def weight(self, label) -> tuple[int, ...]:
        """ref - sum_i depths[label]_i alpha_i."""
        beta = self.datum.root_combination(self.depths[label])
        return tuple(r - b for r, b in zip(self.ref, beta))

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
        for i in reversed(word):
            vec = self.apply_f(i, vec)
        return vec

    @cached_property
    def coaction_cols(self) -> dict:
        cols = _dual_basis_coaction(self.nichols, self.labels, self.e_cols)
        assert all(t in self.depths for col in cols.values() for _, t, _ in col)
        return cols

    def coaction(self, label):
        col = self.coaction_cols.get(label)
        if col is None:
            raise CapError(
                f"coaction of {label!r} is not complete inside the window ({self.window})")
        return col


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


def build_verma(datum: RootDatum, hw, cap: int) -> WeightModule:
    """Verma window: reduced F-words of degree <= cap on a highest-weight line.

    F acts by Nichols multiplication.  E_i commutes with F_j for j != i, and
    E_i F_i - F_i E_i acts on weight mu by [<alpha_i^vee, mu>]_{q_i}, so for
    a basis word w = (w_0, ..., w_{n-1}) E acts by the commutator formula
        E_i F_w v = sum_{k: w_k = i} [<alpha_i^vee, mu_k>]_{q_i} F_{w - w_k} v,
        mu_k = hw - sum_{l > k} alpha_{w_l},
    w - w_k being w without its letter k, reduced to basis words.  Normal
    ordering E_i F_w through `uq.UqContext.multiply` is the test oracle.
    The rank-1 closed forms fall out of this path.
    """
    if cap < 0:
        raise ConfigError("cap must be nonnegative")
    hw_vec = _as_weight(datum, hw)
    nichols = NicholsContext(datum, cap=cap)

    labels = [()]
    for total in range(1, cap + 1):
        for deg in multidegrees(datum.rank, total):
            labels.extend(nichols.nichols_basis(deg).basis_words)
    labels = tuple(labels)
    depths = {w: word_degree(w, datum.rank) for w in labels}

    # <alpha_i^vee, hw>, the bracket argument at the rightmost letter
    top = [sum(a * b for a, b in zip(coroot, hw_vec)) for coroot in datum.coroots]
    f_cols: dict[int, dict] = {i: {} for i in range(datum.rank)}
    e_cols: dict[int, dict] = {i: {} for i in range(datum.rank)}
    for w in labels:
        for i in range(datum.rank):
            if len(w) + 1 <= cap:
                f_cols[i][w] = list(nichols.reduce_word((i,) + w).items())
            acc: Vec = {}
            n = top[i]
            for k in range(len(w) - 1, -1, -1):
                if w[k] == i and n:
                    bracket = q_int(n, datum.d[i])
                    for u, c in nichols.reduce_word(w[:k] + w[k + 1:]).items():
                        add_term(acc, u, bracket * c)
                n -= datum.cartan[i][w[k]]
            e_cols[i][w] = sorted(acc.items())

    return WeightModule(
        datum=datum, labels=labels, ref=hw_vec, depths=depths,
        e_cols=e_cols, f_cols=f_cols, nichols=nichols,
        window=f"f-degree <= {cap}")


def _dual_basis(nichols: NicholsContext, beta: Degree) -> tuple[tuple[Word, ...], list]:
    """(words, G^{-1}): the Nichols basis words of beta and the inverse of
    their Gram G[u][b] = <E_u, F_b> = (-1)^{|beta|} <u, b>.

    G is (-1)^{|beta|} prod_i (q_i - q_i^{-1})^{-beta_i} times the integer
    Laurent Gram `word_gram`, so that is inverted and the inverse multiplied
    by the Laurent polynomial (-1)^{|beta|} prod_i (q_i - q_i^{-1})^{beta_i}.
    """
    words = nichols.nichols_basis(beta).basis_words
    inv = invert([[ScalarQ(e) for e in row] for row in nichols.word_gram(words)], ONE)
    scale = ONE if sum(beta) % 2 == 0 else -ONE
    for d, k in zip(nichols.datum.d, beta):
        scale = scale * (ScalarQ.q_power(d) - ScalarQ.q_power(-d)) ** k
    return words, [[scale * c for c in row] for row in inv]


def _dual_basis_coaction(nichols: NicholsContext, labels, e_cols: dict) -> dict:
    """label a -> ((F-word, target, c), ...): sum_b F_b (x) E_{b*} a.

    b runs over the Nichols basis words of total degree 1..nichols.cap, and
    E_{b*} = sum_u (G^{-1})[b][u] E_u (`_dual_basis`, once per multidegree).
    Each image E_u a (rightmost letter first) is computed once and serves
    every b; zero sums are dropped.  The sum for a stops at the first total
    degree whose images all vanish, as every longer E-word kills a too; a
    label with an image that leaves the window gets no column.
    """
    duals: dict = {}
    images: dict = {((), a): {a: ONE} for a in labels}

    def e_image(u: Word, a) -> Vec | None:
        """E_u a, or None when it leaves the window."""
        if (u, a) not in images:
            prev, cols = e_image(u[1:], a), e_cols[u[0]]
            acc = None
            if prev is not None and all(t in cols for t in prev):
                acc = {}
                for t, c in prev.items():
                    for t2, c2 in cols[t]:
                        add_term(acc, t2, c * c2)
            images[u, a] = acc
        return images[u, a]

    def column(a):
        terms = [((), a, ONE)]
        for total in range(1, nichols.cap + 1):
            vanish = True
            for beta in multidegrees(nichols.datum.rank, total):
                words = nichols.nichols_basis(beta).basis_words
                e_a = [e_image(u, a) for u in words]
                if None in e_a:
                    return None
                if not any(e_a):
                    continue
                vanish = False
                if beta not in duals:
                    duals[beta] = _dual_basis(nichols, beta)[1]
                for row, b in zip(duals[beta], words):
                    acc: Vec = {}
                    for c, image in zip(row, e_a):
                        if c:
                            for t, c2 in image.items():
                                add_term(acc, t, c * c2)
                    terms.extend((b, t, c) for t, c in acc.items())
            if vanish:
                break
        return tuple(terms)

    return {a: col for a in labels if (col := column(a)) is not None}


# ---------------------------------------------------------------------------
# The lowest-weight-free window module
# ---------------------------------------------------------------------------

def build_mlambda(datum: RootDatum, lam: int, window: tuple[int, int]) -> WeightModule:
    """Window of the module with basis x_{i,j}, no highest-weight generator.

    Actions: K x_{i,j} = q^{lam+2i-2j} x_{i,j}; E x_{i,j} = x_{i+1,j};
    F x_{i,j} = x_{i,j+1} - [i][lam+i-1-2j] x_{i-1,j} (second term absent at
    i = 0).  Depth, and so norm exponent, j - i.  The coaction is read from
    the E-action up to f-degree i_max (`_dual_basis_coaction`).  It sends
    x_{0,j} to sum_k (-1)^k q^{-d k(k-1)/2} ((q-q^{-1})^k/[k]!) F^k (x) x_{k,j},
    k <= i_max; at i > 0, E^{i_max - i + 1} leaves the window, so only the
    labels x_{0,j} have a coaction column.
    """
    if datum.rank != 1 or datum.lattice_rank != 1:
        raise ConfigError("the window module is defined over the rank-one datum")
    if lam < 0:
        raise ConfigError("lam must be a nonnegative integer")
    i_max, j_max = window
    if i_max < 0 or j_max < 0:
        raise ConfigError("window bounds must be nonnegative")
    d = datum.d[0]

    labels = tuple((i, j) for i in range(i_max + 1) for j in range(j_max + 1))
    depths = {(i, j): (j - i,) for (i, j) in labels}

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

    return WeightModule(
        datum=datum, labels=labels, ref=(lam,), depths=depths,
        e_cols=e_cols, f_cols=f_cols, nichols=NicholsContext(datum, cap=i_max),
        window=f"0<=i<={i_max}, 0<=j<={j_max}")


# ---------------------------------------------------------------------------
# Braiding
# ---------------------------------------------------------------------------

def braid_pair(datum: RootDatum, M: WeightModule, N: WeightModule,
               a_label, b_label) -> Vec:
    """sigma(a (x) b) as a sparse vector over (N-label, M-label) pairs; see
    the module docstring for the coaction and the twist."""
    out: Vec = {}
    for (fw, a2, c) in M.coaction(a_label):
        moved = N.apply_f_word(fw, {b_label: ONE})
        for b2, c2 in moved.items():
            exp = (datum.root_weight_pairing(N.depths[b2], M.ref)
                   + datum.root_weight_pairing(M.depths[a2], N.ref)
                   - datum.root_pairing(N.depths[b2], M.depths[a2]))
            add_term(out, (b2, a2), c * c2 * ScalarQ.q_power(exp))
    return out


def closed_form_braiding_rank1(lam: int, lam_prime: int, n: int,
                               m: int) -> list[tuple[tuple[int, int], ScalarQ]]:
    """The rank-1 braiding of x^n (x) x^m, independent of braid_pair.

    Output pairs (m+k, n-k) with coefficient
    (-1)^k (q-q^{-1})^k [n]![lam-n+k]!/([k]![n-k]![lam-n]!) times
    q^{(m+k) lam + (n-k) lam' - 2(m+k)(n-k) - k(k-1)/2}.
    """
    qd = ScalarQ.q_power(1) - ScalarQ.q_power(-1)
    out = []
    for k in range(n + 1):
        sign = ONE if k % 2 == 0 else -ONE
        coeff = sign * qd ** k * q_binomial(n, k) * q_rising(lam - n, k)
        exp = ((m + k) * lam + (n - k) * lam_prime - 2 * (m + k) * (n - k)
               - k * (k - 1) // 2)
        out.append(((m + k, n - k), coeff * ScalarQ.q_power(exp)))
    return out


# ---------------------------------------------------------------------------
# Tensor windows, Yang-Baxter, braid representations
# ---------------------------------------------------------------------------

def tensor_module(datum: RootDatum, M: WeightModule, N: WeightModule) -> WeightModule:
    """M (x) N as a weight module, acting by the bar-coproduct:
    E_i (b (x) c) = E_i b (x) q^{-(alpha_i, wt c)} c + b (x) E_i c and
    F_i (b (x) c) = F_i b (x) c + q^{(alpha_i, wt b)} b (x) F_i c.
    A pair has a column only where both factors have one, its reference
    weight is the sum of theirs and its depth the sum of its labels' depths.
    Its coaction is read up to the depth span of its labels: E lowers the
    depth by one per letter, so past it every image is zero or outside."""
    labels = tuple((a, b) for a in M.labels for b in N.labels)
    depths = {(a, b): tuple(x + y for x, y in zip(M.depths[a], N.depths[b]))
              for (a, b) in labels}
    total = [sum(d) for d in depths.values()]
    simple = [tuple(int(j == i) for j in range(datum.rank)) for i in range(datum.rank)]
    e_cols: dict[int, dict] = {i: {} for i in range(datum.rank)}
    f_cols: dict[int, dict] = {i: {} for i in range(datum.rank)}
    for (a, b) in labels:
        wt_a, wt_b = M.weight(a), N.weight(b)
        for i, alpha in enumerate(simple):
            e_twist = ScalarQ.q_power(-datum.root_weight_pairing(alpha, wt_b))
            f_twist = ScalarQ.q_power(datum.root_weight_pairing(alpha, wt_a))
            for cols, cols_m, cols_n, scale_m, scale_n in (
                    (e_cols, M.e_cols, N.e_cols, e_twist, ONE),
                    (f_cols, M.f_cols, N.f_cols, ONE, f_twist)):
                ca, cb = cols_m[i].get(a), cols_n[i].get(b)
                if ca is None or cb is None:
                    continue
                col: Vec = {}
                for a2, c in ca:
                    add_term(col, (a2, b), c * scale_m)
                for b2, c in cb:
                    add_term(col, (a, b2), c * scale_n)
                cols[i][(a, b)] = sorted(col.items())
    return WeightModule(
        datum=datum, labels=labels,
        ref=tuple(x + y for x, y in zip(M.ref, N.ref)), depths=depths,
        e_cols=e_cols, f_cols=f_cols,
        nichols=NicholsContext(datum, cap=max(total) - min(total)),
        window=f"({M.window}) (x) ({N.window})")


def _braid_slot(table: Mapping, slot: int, vec: Vec, window) -> Vec:
    """Apply a pair table on tensor slots (slot, slot+1) of the label tuples
    of vec.  Every image tuple must lie in `window`, or CapError is raised."""
    out: Vec = {}
    for labels, c in vec.items():
        for (x, y), c2 in table[labels[slot], labels[slot + 1]]:
            new = labels[:slot] + (x, y) + labels[slot + 2:]
            if new not in window:
                raise CapError(f"braid image {new!r} leaves the depth window")
            add_term(out, new, c * c2)
    return out


def braid_relation_holds(table: Mapping, triples: Iterable, window) -> bool:
    """(t (x) 1)(1 (x) t)(t (x) 1) = (1 (x) t)(t (x) 1)(1 (x) t) on every
    label triple of `triples`, for the pair map t of `table`, with every
    image inside `window`."""
    def act(vec, slots):
        for slot in slots:
            vec = _braid_slot(table, slot, vec, window)
        return vec

    return all(act({t: ONE}, (0, 1, 0)) == act({t: ONE}, (1, 0, 1))
               for t in triples)


class _SigmaTable(dict):
    """The braiding sigma on M (x) M, one label pair at a time.

    table[a, b] is sigma(a (x) b) as a tuple of ((b2, a2), c), computed by
    `braid_pair` the first time the pair is asked for.  A table serves one
    `ybe_check` or `braid_rep` call and is dropped with it.
    """

    def __init__(self, datum: RootDatum, M: WeightModule):
        super().__init__()
        self.datum = datum
        self.M = M

    def __missing__(self, pair):
        col = tuple(braid_pair(self.datum, self.M, self.M, pair[0], pair[1]).items())
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
    inv = invert(mat, ONE)
    return {p: tuple((r, inv[i][k]) for i, r in enumerate(pairs)
                     if not inv[i][k].is_zero())
            for k, p in enumerate(pairs)}


def ybe_check(datum: RootDatum, M: WeightModule, cap: int) -> bool:
    """(sigma (x) 1)(1 (x) sigma)(sigma (x) 1) = (1 (x) sigma)(sigma (x) 1)(1 (x) sigma)
    on all triples of total depth <= cap, with sigma computed once per label
    pair."""
    triples = _label_tuples(M, 3, cap)
    return braid_relation_holds(_SigmaTable(datum, M), triples, set(triples))


def braid_rep(datum: RootDatum, M: WeightModule, n_strands: int,
              word: Sequence[int], cap: int) -> tuple[list, list[list[ScalarQ]]]:
    """Matrix of a braid word on the depth-capped window of M^{(x) n_strands}.

    Letters are nonzero integers: +i is the braiding on strands (i, i+1),
    -i its inverse (1-indexed, |i| < n_strands).

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
    basis = sorted(_label_tuples(M, n_strands, cap))
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


def _label_tuples(M: WeightModule, n: int, cap: int) -> list:
    """The label tuples of length n with total depth <= cap.

    A prefix is extended only while its depth plus the smallest depth the
    strands still to fill can add stays <= cap; labels of `build_mlambda`
    have negative depths, so that smallest depth may be below zero."""
    depth = {a: sum(M.depths[a]) for a in M.labels}
    low = min(depth.values())
    tuples = [((), 0)]
    for left in range(n - 1, -1, -1):
        tuples = [(t + (a,), d + depth[a]) for t, d in tuples for a in M.labels
                  if d + depth[a] + low * left <= cap]
    return [t for t, _ in tuples]
