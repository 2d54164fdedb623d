"""Windowed weight modules: actions, coactions, braidings, braid matrices.

The coaction is the Nichols basis against its dual basis at every rank.  It
is pinned on rank 1 against the closed form term by term, and at every rank
by contracting it through the pairing of the double, which is built apart from it.
The braiding is pinned against the rank-1 closed form and through ybe_check
and matrix braid relations on ranks 1 and 2.  It is a module map for the
tensor action of `tensor_module` and satisfies both hexagons at every rank.
The left hexagon is checked for every P at once as a coaction identity: the
coaction a tensor window reads from its own E-action is the twisted product
of the factor coactions.  One test braids the tensor window through that
coaction past P = M, to pin that the identity carries the hexagon.  None of
these holds for the tensor action by the coproduct of `UqContext`.  Every
window reads its coaction once, on first use.
"""

import dataclasses
import functools
import importlib.util
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from uqbench import weightmods
from uqbench.errors import CapError, ConfigError
from uqbench.linalg import invert
from uqbench.nichols import NicholsContext, multidegrees, words_of_degree
from uqbench.rootdata import load_datum
from uqbench.scalars import ScalarQ, q_factorial, q_int
from uqbench.sparse import add_term
from uqbench.uq import UqContext
from uqbench.weightmods import (braid_pair, braid_rep, build_mlambda,
                                build_verma, closed_form_braiding_rank1,
                                tensor_module, ybe_check)

from oracles import (apply_k, double_pairing, mat_mul, pairing_eval,
                     verma_coaction, verma_e_coefficient, verma_k_exponent)

ONE = ScalarQ.one()
ZERO = ScalarQ.zero()
Q = ScalarQ.q_power

A1 = load_datum("A1")


def fword(n):
    return (0,) * n


def coaction_contract(module, e_word, label):
    """Contract the coaction of label against E_{e_word} through
    the pairing of the double; equals E_{e_word} label when the coaction is the
    quasi-R-matrix one.  The pairing is built afresh, apart from the module."""
    ctx = UqContext(module.datum, cap=max(len(e_word), 1))
    out = {}
    for (fw, target, c) in module.coaction(label):
        if len(fw) == len(e_word):
            add_term(out, target, c * double_pairing(ctx, e_word, fw))
    return out


# ---------------------------------------------------------------------------
# Verma windows
# ---------------------------------------------------------------------------

def test_verma_highest_weight_line_is_killed_by_e():
    M = build_verma(A1, 3, 4)
    assert M.apply_e(0, {fword(0): ONE}) == {}


def test_verma_e_action_closed_form():
    lam, cap = 3, 5
    M = build_verma(A1, lam, cap)
    for n in range(1, cap + 1):
        got = M.apply_e(0, {fword(n): ONE})
        coeff = verma_e_coefficient(lam, n)
        want = {} if coeff.is_zero() else {fword(n - 1): coeff}
        assert got == want, n


def test_verma_e_coefficient_value():
    # [n][lam-(n-1)] spelled out for lam=3, n=2: [2][2] = (q+q^-1)^2
    c = verma_e_coefficient(3, 2)
    assert c == q_int(2) * q_int(2)
    assert str(c) == "q^2 + 2 + q^-2"


def test_verma_f_action_is_shift():
    M = build_verma(A1, 2, 4)
    for n in range(4):
        assert M.apply_f(0, {fword(n): ONE}) == {fword(n + 1): ONE}


def test_verma_f_past_cap_raises():
    M = build_verma(A1, 2, 3)
    with pytest.raises(CapError):
        M.apply_f(0, {fword(3): ONE})


def test_verma_k_action_exponents():
    lam, cap = 4, 4
    M = build_verma(A1, lam, cap)
    for n in range(cap + 1):
        got = apply_k(M, (1,), {fword(n): ONE})
        assert got == {fword(n): Q(verma_k_exponent(lam, n))}


def test_verma_norm_exponents_count_f_letters():
    M = build_verma(A1, 3, 4)
    for n in range(5):
        assert sum(M.depths[fword(n)]) == n


def test_verma_coaction_matches_closed_form():
    lam, cap = 3, 4
    M = build_verma(A1, lam, cap)
    for n in range(cap + 1):
        stored = sorted(M.coaction(fword(n)),
                        key=lambda t: (len(t[0]), str(t[1])))
        closed = sorted(
            ((fw, fword(tgt), c) for fw, tgt, c in
             verma_coaction(A1, lam, n, cap)),
            key=lambda t: (len(t[0]), str(t[1])))
        assert len(stored) == len(closed)
        for (fw1, t1, c1), (fw2, t2, c2) in zip(stored, closed):
            assert fw1 == fw2 and t1 == t2 and c1 == c2, n


def test_verma_coaction_keeps_only_nonzero_terms():
    # [lam-n+1]...[lam-n+k] vanishes for k >= n - lam when n > lam >= 0
    for lam in range(-2, 4):
        for n in range(5):
            terms = verma_coaction(A1, lam, n, 4)
            assert all(not c.is_zero() for _, _, c in terms)
            want = n - lam if 0 <= lam < n else n + 1
            assert [len(fw) for fw, _, _ in terms] == list(range(want))


def test_coaction_contraction_recovers_e_action():
    # contracting the coaction with a single E equals the E column exactly
    lam, cap = 4, 4
    M = build_verma(A1, lam, cap)
    for n in range(1, cap + 1):
        assert coaction_contract(M, (0,), fword(n)) == \
            M.apply_e(0, {fword(n): ONE})


def test_coaction_contraction_higher_orders():
    # contracting with E^2 equals applying the E column twice
    lam, cap = 3, 4
    M = build_verma(A1, lam, cap)
    for n in range(2, cap + 1):
        twice = M.apply_e(0, M.apply_e(0, {fword(n): ONE}))
        assert coaction_contract(M, (0, 0), fword(n)) == twice


def test_coaction_counit_normalization():
    # the k=0 term of every coaction is 1 (x) itself
    M = build_verma(A1, 2, 3)
    for n in range(4):
        terms = [t for t in M.coaction(fword(n)) if t[0] == ()]
        assert len(terms) == 1
        assert terms[0][1] == fword(n)
        assert terms[0][2] == ONE


def test_verma_rank_two():
    datum = load_datum("A2")
    M = build_verma(datum, (1, 1), 2)
    top = ()
    for i in range(2):
        assert M.apply_e(i, {top: ONE}) == {}
    # E_i F_i on the highest line gives [ (alpha_i^vee, lam) ] = [1]
    for i in range(2):
        down = M.apply_f(i, {top: ONE})
        back = M.apply_e(i, down)
        assert back == {top: ONE}


@pytest.mark.parametrize("name,hw", [("A2", (1, 1)), ("B2", (1, 1)),
                                     ("A1xA1", (1, 2))])
def test_verma_labels_are_a_basis_per_depth(name, hw):
    # one label per Nichols basis word: as many as nichols_dim, all reduced
    datum = load_datum(name)
    M = build_verma(datum, hw, 3)
    ctx = NicholsContext(datum, cap=3)
    per_depth = Counter(M.depths[w] for w in M.labels)
    for total in range(4):
        for deg in multidegrees(datum.rank, total):
            assert per_depth.get(deg, 0) == ctx.nichols_dim(deg), deg
            words = {w for w in M.labels if M.depths[w] == deg}
            assert words == set(ctx.nichols_basis(deg).basis_words)
    assert sum(per_depth.values()) == len(M.labels)


def _normal_ordered_e_cols(datum, hw, cap, labels):
    """The E-columns of a Verma window by normal ordering E_i F_w through
    `UqContext.multiply`: terms with an E-word kill the highest-weight
    vector, and K_lam acts on it by q^{lam(hw)}."""
    ctx = UqContext(datum, cap=max(cap, 1))
    zero = (0,) * datum.lattice_rank
    cols = {i: {} for i in range(datum.rank)}
    for w in labels:
        for i in range(datum.rank):
            acc = {}
            ef = ctx.multiply(ctx.e_gen(i), {(w, zero, ()): ONE})
            for (fw, lam, ew), c in ef.items():
                if not ew:
                    add_term(acc, fw, c * Q(sum(a * b for a, b in zip(lam, hw))))
            cols[i][w] = sorted(acc.items())
    return cols


@pytest.mark.parametrize("name,hw,cap", [
    ("A1", (2,), 5), ("A1", (-1,), 5), ("A1", (0,), 5),
    ("A2", (1, 1), 5), ("A2", (0, 2), 4), ("B2", (1, 1), 4), ("B2", (2, 0), 5),
    ("G2", (1, 0), 4), ("G2", (0, 1), 3), ("A1xA1", (1, 2), 4)])
def test_verma_e_action_matches_normal_ordering(name, hw, cap):
    # the commutator formula of build_verma against U_q normal ordering:
    # every column, its values and its order
    datum = load_datum(name)
    M = build_verma(datum, hw, cap)
    assert M.e_cols == _normal_ordered_e_cols(datum, hw, cap, M.labels)


# ---------------------------------------------------------------------------
# Dense window modules
# ---------------------------------------------------------------------------

def test_mlambda_k_action():
    lam = 3
    M = build_mlambda(A1, lam, (2, 2))
    for i in range(3):
        for j in range(3):
            got = apply_k(M, (1,), {(i, j): ONE})
            assert got == {(i, j): Q(lam + 2 * i - 2 * j)}


def test_mlambda_e_is_raising_shift():
    M = build_mlambda(A1, 3, (2, 2))
    for i in range(2):
        for j in range(3):
            assert M.apply_e(0, {(i, j): ONE}) == {(i + 1, j): ONE}


def test_mlambda_f_action_displayed_coefficients():
    lam = 3
    M = build_mlambda(A1, lam, (2, 2))
    # F x_{0,j} = x_{0,j+1}: no lowering term at i = 0
    for j in range(2):
        assert M.apply_f(0, {(0, j): ONE}) == {(0, j + 1): ONE}
    # F x_{1,0} = x_{1,1} - [1][lam] x_{0,0}
    got = M.apply_f(0, {(1, 0): ONE})
    assert got == {(1, 1): ONE, (0, 0): -(q_int(1) * q_int(lam))}
    # general: F x_{i,j} = x_{i,j+1} - [i][lam+i-1-2j] x_{i-1,j}
    for i in range(1, 3):
        for j in range(2):
            got = M.apply_f(0, {(i, j): ONE})
            want = {(i, j + 1): ONE,
                    (i - 1, j): -(q_int(i) * q_int(lam + i - 1 - 2 * j))}
            assert got == want, (i, j)


def test_mlambda_norm_exponents():
    M = build_mlambda(A1, 2, (2, 2))
    for i in range(3):
        for j in range(3):
            assert sum(M.depths[(i, j)]) == j - i


def test_mlambda_coaction_displayed_series():
    # coaction x_{0,j} -> sum_k (-1)^k q^{-k(k-1)/2} ((q-q^-1)^k/[k]!)
    # F^k (x) x_{k,j} for k <= i_max; the other labels have no column
    lam = 2
    M = build_mlambda(A1, lam, (4, 2))
    assert sorted(M.coaction_cols) == [(0, j) for j in range(3)]
    qd = Q(1) - Q(-1)
    for j in range(3):
        col = {(len(fw), tgt): c for fw, tgt, c in M.coaction((0, j))}
        assert len(col) == 5
        for k in range(5):
            want = (qd ** k) / q_factorial(k) * Q(-k * (k - 1) // 2)
            if k % 2:
                want = -want
            assert col[(k, (k, j))] == want, (j, k)


def test_mlambda_incomplete_coaction_raises():
    M = build_mlambda(A1, 2, (2, 2))
    with pytest.raises(CapError):
        M.coaction((1, 0))


def test_mlambda_rejects_bad_input():
    with pytest.raises(ConfigError):
        build_mlambda(A1, -1, (2, 2))
    with pytest.raises(ConfigError):
        build_mlambda(load_datum("A2"), 2, (2, 2))


# ---------------------------------------------------------------------------
# Braidings
# ---------------------------------------------------------------------------

def test_braiding_matches_closed_form_all_small_cases():
    cap = 5
    for lam in range(5):
        M = build_verma(A1, lam, cap)
        for lam_p in range(5):
            N = build_verma(A1, lam_p, cap)
            for n in range(cap + 1):
                for m in range(cap + 1 - n):
                    got = braid_pair(A1, M, N, fword(n), fword(m))
                    want = {(fword(a), fword(b)): c
                            for (a, b), c in
                            closed_form_braiding_rank1(lam, lam_p, n, m)
                            if not c.is_zero()}
                    assert got == want, (lam, lam_p, n, m)


def test_ybe_on_degree_three_window():
    for lam in (0, 1, 2, 3):
        M = build_verma(A1, lam, 3)
        assert ybe_check(A1, M, 3), lam


def test_braid_rep_identity_word_roundtrip():
    M = build_verma(A1, 1, 2)
    basis, mat = braid_rep(A1, M, 3, (1, -1), 2)
    n = len(basis)
    for i in range(n):
        for j in range(n):
            assert mat[i][j] == (ONE if i == j else ZERO)


def test_braid_rep_satisfies_braid_relation():
    M = build_verma(A1, 2, 3)
    _, lhs = braid_rep(A1, M, 3, (1, 2, 1), 3)
    _, rhs = braid_rep(A1, M, 3, (2, 1, 2), 3)
    assert lhs == rhs


def test_braid_rep_distant_strands_commute():
    M = build_verma(A1, 1, 2)
    _, lhs = braid_rep(A1, M, 4, (1, 3), 2)
    _, rhs = braid_rep(A1, M, 4, (3, 1), 2)
    assert lhs == rhs


def test_braid_rep_word_is_product_of_generators():
    M = build_verma(A1, 2, 2)
    _, s1 = braid_rep(A1, M, 3, (1,), 2)
    _, s2 = braid_rep(A1, M, 3, (2,), 2)
    _, w = braid_rep(A1, M, 3, (1, 2), 2)
    assert w == mat_mul(s2, s1, ZERO)


def test_braid_rep_validation():
    M = build_verma(A1, 1, 2)
    with pytest.raises(ConfigError):
        braid_rep(A1, M, 1, (1,), 2)
    with pytest.raises(ConfigError):
        braid_rep(A1, M, 3, (3,), 2)
    with pytest.raises(ConfigError):
        braid_rep(A1, M, 3, (0,), 2)


def test_braid_rep_window_escape_raises():
    # per-factor window smaller than the total depth cap: the braiding
    # redistributes depth and must hit the missing column
    M = build_verma(A1, 3, 1)
    with pytest.raises(CapError):
        braid_rep(A1, M, 2, (1,), 2)


def _dense_braid_rep(M, n_strands, word, cap):
    """Reference for braid_rep: dense slot generators on the whole tuple
    window, built from braid_pair alone, multiplied and inverted densely."""
    basis = sorted(t for t in product(M.labels, repeat=n_strands)
                   if sum(len(x) for x in t) <= cap)
    index = {t: k for k, t in enumerate(basis)}
    dim = len(basis)

    def generator(slot):
        mat = [[ZERO] * dim for _ in range(dim)]
        for j, t in enumerate(basis):
            image = braid_pair(A1, M, M, t[slot], t[slot + 1])
            for (x, y), c in image.items():
                mat[index[t[:slot] + (x, y) + t[slot + 2:]]][j] = c
        return mat

    result = [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]
    for letter in word:
        gen = generator(abs(letter) - 1)
        if letter < 0:
            gen = invert(gen, ONE)
        result = mat_mul(gen, result, ZERO)
    return basis, result


@pytest.mark.parametrize("lam,n_strands,cap,word", [
    (0, 3, 4, (1, -2, 1)),
    (1, 3, 2, (-1, 2, -1, -2)),
    (2, 3, 3, (1, -1)),
    (3, 3, 4, (-1, 2, -1, -2)),
    (1, 4, 2, (1, -2, 1, 3)),
    (2, 4, 3, (-3, 2, -1, -2)),
    (3, 4, 2, (1, -1, -3)),
    (0, 4, 4, (-1, 3, 2)),
])
def test_braid_rep_matches_dense_reference(lam, n_strands, cap, word):
    M = build_verma(A1, lam, cap)
    basis, mat = braid_rep(A1, M, n_strands, word, cap)
    ref_basis, ref = _dense_braid_rep(M, n_strands, word, cap)
    assert basis == ref_basis
    assert mat == ref


def test_braid_rep_many_strands_enumerates_only_the_window():
    # 6 labels on 12 strands are 6^12 tuples, and 13 of them have total
    # depth <= 1: the enumeration must prune prefixes, not filter tuples
    M = build_verma(A1, 1, 5)
    basis, mat = braid_rep(A1, M, 12, (1, -1), 1)
    assert len(basis) == 13
    assert mat == [[ONE if i == j else ZERO for j in range(13)]
                   for i in range(13)]


@pytest.mark.parametrize("build,n,caps", [
    (lambda: build_verma(A1, 2, 3), 3, range(5)),
    (lambda: build_verma(load_datum("A2"), (1, 0), 2), 3, range(4)),
    # depths j - i run from -2 to 1, so a prefix above the cap may still fit
    (lambda: build_mlambda(A1, 2, (2, 1)), 3, range(-6, 4)),
    (lambda: build_mlambda(A1, 1, (1, 2)), 4, range(-4, 3)),
])
def test_label_tuples_match_the_brute_force_filter(build, n, caps):
    module = build()
    depth = {a: sum(module.depths[a]) for a in module.labels}
    for cap in caps:
        want = {t for t in product(module.labels, repeat=n)
                if sum(depth[a] for a in t) <= cap}
        got = weightmods._label_tuples(module, n, cap)
        assert len(got) == len(want) and set(got) == want, cap


@pytest.mark.parametrize("build,caps", [
    (lambda: build_verma(A1, 2, 3), range(5)),
    (lambda: build_verma(load_datum("B2"), (1, 1), 2), range(4)),
    (lambda: build_mlambda(A1, 2, (2, 1)), range(-6, 4)),
])
def test_ybe_checks_the_triples_of_the_brute_force_filter(build, caps,
                                                          monkeypatch):
    module = build()
    depth = {a: sum(module.depths[a]) for a in module.labels}
    seen = []

    def record(table, triples, window):
        seen.append((list(triples), window))
        return True

    monkeypatch.setattr(weightmods, "braid_relation_holds", record)
    for cap in caps:
        want = {t for t in product(module.labels, repeat=3)
                if sum(depth[a] for a in t) <= cap}
        seen.clear()
        assert ybe_check(module.datum, module, cap)
        (triples, window), = seen
        assert len(triples) == len(want) and set(triples) == want, cap
        assert set(window) == want, cap


def _counting_braid_pair(monkeypatch):
    calls = Counter()
    real = weightmods.braid_pair

    def counted(datum, M, N, a, b):
        calls[a, b] += 1
        return real(datum, M, N, a, b)

    monkeypatch.setattr(weightmods, "braid_pair", counted)
    return calls


def test_sigma_is_computed_once_per_pair_and_call(monkeypatch):
    calls = _counting_braid_pair(monkeypatch)
    M = build_verma(A1, 2, 3)
    assert ybe_check(A1, M, 3)
    assert calls and set(calls.values()) == {1}
    for word in ((1, 2, 1), (1, -2, -1, 2)):
        calls.clear()
        braid_rep(A1, M, 3, word, 3)
        assert calls and set(calls.values()) == {1}, word


# ---------------------------------------------------------------------------
# Rank >= 2: the dual-basis coaction and the braiding it gives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1"])
def test_double_pairing_is_the_signed_nichols_form(name):
    # <E_u, F_w> = (-1)^{|beta|} <u, w> on every word pair up to degree 4:
    # what lets build_verma invert the Nichols Gram in place of the double's
    datum = load_datum(name)
    ctx = UqContext(datum, cap=4)
    for total in range(5):
        for deg in multidegrees(datum.rank, total):
            words = words_of_degree(deg)
            for u in words:
                for w in words:
                    nichols = pairing_eval(ctx.nichols, u, w)
                    want = -nichols if total % 2 else nichols
                    assert double_pairing(ctx, u, w) == want, (u, w)


@pytest.mark.parametrize("name,cap", [("A1", 6), ("A2", 4), ("B2", 4),
                                      ("G2", 3), ("A1xA1", 4)])
def test_dual_basis_from_the_integer_gram_matches_the_rational_gram(name, cap):
    # build_verma inverts the integer Laurent Gram and scales afterwards; the
    # oracle inverts the signed rational Gram of pairing_eval itself
    datum = load_datum(name)
    nichols = UqContext(datum, cap=cap).nichols
    for total in range(1, cap + 1):
        for beta in multidegrees(datum.rank, total):
            words, inv = weightmods._dual_basis(nichols, beta)
            assert words == nichols.nichols_basis(beta).basis_words
            sign = ONE if total % 2 == 0 else -ONE
            gram = [[sign * pairing_eval(nichols, u, b) for b in words]
                    for u in words]
            assert inv == invert(gram, ONE), beta


def _e_word_action(M, e_word, label):
    vec = {label: ONE}
    for i in reversed(e_word):
        vec = M.apply_e(i, vec)
    return vec


def _e_words(datum, top):
    """Every word in the E_i of total degree 1..top."""
    return [w for total in range(1, top + 1)
            for deg in multidegrees(datum.rank, total)
            for w in words_of_degree(deg)]


@pytest.mark.parametrize("name,hw", [("A2", (1, 1)), ("B2", (1, 1)),
                                     ("G2", (1, 0)), ("A1xA1", (1, 2))])
def test_coaction_contraction_reproduces_every_e_word(name, hw):
    datum = load_datum(name)
    M = build_verma(datum, hw, 3)
    for a in M.labels:
        for e in _e_words(datum, 3):
            assert coaction_contract(M, e, a) == _e_word_action(M, e, a), (a, e)


def test_mlambda_coaction_contraction_reproduces_e_powers():
    for i_max, j_max in ((2, 2), (4, 2), (1, 4), (0, 2)):
        M = build_mlambda(A1, 2, (i_max, j_max))
        assert sorted(M.coaction_cols) == [(0, j) for j in range(j_max + 1)]
        for label in M.coaction_cols:
            for k in range(i_max + 1):
                e = fword(k)
                assert coaction_contract(M, e, label) == \
                    _e_word_action(M, e, label), (i_max, j_max, label, k)


@pytest.mark.parametrize("name,hw,hw2", [("A1", 2, 1), ("A2", (1, 1), (0, 2))],
                         ids=["A1", "A2"])
def test_tensor_coaction_contraction_reproduces_every_e_word(name, hw, hw2):
    # the coaction the window reads from its own E-action, on caps 2 (x) 2,
    # against every E-word up to the depth span 4 of the window
    datum = load_datum(name)
    T = tensor_module(datum, build_verma(datum, hw, 2), build_verma(datum, hw2, 2))
    assert T.nichols.cap == 4
    assert sorted(T.coaction_cols) == sorted(T.labels)
    for a in T.labels:
        for e in _e_words(datum, 4):
            assert coaction_contract(T, e, a) == _e_word_action(T, e, a), (a, e)


def test_tensor_coaction_is_never_cut_short():
    # E raises i on M_lambda without end, so within the depth span of the
    # tensor window an E-power takes every label out of it: no label has a
    # column, though M_lambda's own window cuts its coaction at i_max
    T = tensor_module(A1, build_mlambda(A1, 2, (2, 1)), build_verma(A1, 1, 2))
    assert T.coaction_cols == {}
    for a in T.labels:
        with pytest.raises(CapError, match="not complete"):
            T.coaction(a)


def test_windows_read_their_coaction_once_on_first_use(monkeypatch):
    # building a window reads no coaction; the first label asked for reads
    # the whole window's, and every later label reuses it
    calls = []

    def counted(*args):
        calls.append(args)
        return reader(*args)

    reader = weightmods._dual_basis_coaction
    monkeypatch.setattr(weightmods, "_dual_basis_coaction", counted)
    datum = load_datum("A2")
    M, N = build_verma(datum, (1, 1), 2), build_verma(datum, (0, 2), 2)
    T = tensor_module(datum, M, N)
    assert calls == []
    for a in T.labels:
        assert T.coaction(a)[0] == ((), a, ONE)
    assert len(calls) == 1
    assert calls[0] == (T.nichols, T.labels, T.e_cols)


@pytest.mark.parametrize("name,hw", [("A1", 3), ("B2", (1, 1)), ("G2", (1, 0))])
def test_verma_coaction_reuses_the_builders_nichols_bases(name, hw, monkeypatch):
    # the window keeps the context build_verma made, so building the window
    # and reading every coaction computes each multidegree's Gram once
    calls = []
    gram = NicholsContext.graded_gram

    def counted(self, deg):
        calls.append(deg)
        return gram(self, deg)

    monkeypatch.setattr(NicholsContext, "graded_gram", counted)
    datum = load_datum(name)
    M = build_verma(datum, hw, 4)
    for a in M.labels:
        M.coaction(a)
    assert M.nichols.cap == 4
    assert Counter(calls) == Counter(
        deg for total in range(5) for deg in multidegrees(datum.rank, total))


@pytest.mark.parametrize("name,hw,cap", [
    ("A2", (1, 1), 3), ("A2", (0, 2), 3), ("B2", (1, 1), 3), ("G2", (1, 0), 3),
    ("A1xA1", (1, 2), 3), ("A2", (1, 1), 4), ("B2", (1, 1), 4)])
def test_higher_rank_ybe_holds(name, hw, cap):
    datum = load_datum(name)
    assert ybe_check(datum, build_verma(datum, hw, cap), cap)


@pytest.mark.parametrize("name,lam", [("A2", (1, 1)), ("A1xA1", (1, 1)),
                                      ("B2", (1, 1))])
def test_higher_rank_braidings_are_braidings(name, lam):
    datum = load_datum(name)
    M = build_verma(datum, lam, 2)
    assert ybe_check(datum, M, 2)
    basis, lhs = braid_rep(datum, M, 3, (1, 2, 1), 2)
    _, rhs = braid_rep(datum, M, 3, (2, 1, 2), 2)
    assert lhs == rhs
    _, roundtrip = braid_rep(datum, M, 3, (1, -1), 2)
    identity = [[ONE if i == j else ZERO for j in range(len(basis))]
                for i in range(len(basis))]
    assert roundtrip == identity


def test_a1xa1_braiding_is_the_tensor_product_of_a1_braidings():
    # a label of depth (n1, n2) is x^{n1} y^{n2}; sigma factors entry by entry
    datum = load_datum("A1xA1")
    cap = 3
    for lam, lam_p in (((1, 2), (0, 1)), ((2, 0), (3, 1))):
        M, N = build_verma(datum, lam, cap), build_verma(datum, lam_p, cap)
        factors = [(build_verma(A1, lam[i], cap), build_verma(A1, lam_p[i], cap))
                   for i in range(2)]
        for a in M.labels:
            for b in N.labels:
                if sum(M.depths[a]) + sum(N.depths[b]) > cap:
                    continue
                want = {}
                for (x1, y1), c1 in braid_pair(
                        A1, *factors[0], fword(M.depths[a][0]),
                        fword(N.depths[b][0])).items():
                    for (x2, y2), c2 in braid_pair(
                            A1, *factors[1], fword(M.depths[a][1]),
                            fword(N.depths[b][1])).items():
                        want[(len(x1), len(x2)), (len(y1), len(y2))] = c1 * c2
                got = {(N.depths[x], M.depths[y]): c
                       for (x, y), c in braid_pair(datum, M, N, a, b).items()}
                assert got == want, (lam, lam_p, a, b)


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_first_order_coaction_fails_ybe(name):
    # negative control: the higher-order terms are what make it a braiding
    datum = load_datum(name)
    M = build_verma(datum, (1, 1), 3)
    assert ybe_check(datum, M, 3)
    first_order = NicholsContext(datum, cap=1)
    assert not ybe_check(datum, dataclasses.replace(M, nichols=first_order), 3)


def test_tensor_module_weights_add():
    for name, hw, hw2 in (("A1", 2, 1), ("A2", (1, 1), (0, 2)),
                          ("B2", (1, 1), (2, 0))):
        datum = load_datum(name)
        M = build_verma(datum, hw, 2)
        N = build_verma(datum, hw2, 2)
        T = tensor_module(datum, M, N)
        assert T.ref == tuple(x + y for x, y in zip(M.ref, N.ref))
        for (a, b) in T.labels:
            assert T.weight((a, b)) == tuple(
                x + y for x, y in zip(M.weight(a), N.weight(b)))
            assert sum(T.depths[(a, b)]) == sum(M.depths[a]) + sum(N.depths[b])


# ---------------------------------------------------------------------------
# The braided category: naturality and both hexagons
# ---------------------------------------------------------------------------

def _braiding_audit():
    """scripts/braiding_audit.py as a module: the naturality and hexagon
    checks and the weights they run on."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "braiding_audit.py"
    spec = importlib.util.spec_from_file_location("braiding_audit", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


AUDIT = _braiding_audit()


def _delta_tensor(datum, M, N, T):
    """Negative control: M (x) N acting by the coproduct of UqContext,
    E_i -> E_i (x) t_i + 1 (x) E_i and F_i -> F_i (x) 1 + t_i^{-1} (x) F_i,
    in place of the bar-coproduct of T = `tensor_module(datum, M, N)`.  The
    copy reads its coaction from this E-action, not T's."""
    e_cols = {i: {} for i in range(datum.rank)}
    f_cols = {i: {} for i in range(datum.rank)}
    for a, b in T.labels:
        for i, tau in enumerate(datum.t_indices):
            t_a = Q(sum(x * y for x, y in zip(tau, M.weight(a))))
            t_b = Q(sum(x * y for x, y in zip(tau, N.weight(b))))
            for cols, cols_m, cols_n, scale_m, scale_n in (
                    (e_cols, M.e_cols, N.e_cols, t_b, ONE),
                    (f_cols, M.f_cols, N.f_cols, ONE, t_a.inverse())):
                ca, cb = cols_m[i].get(a), cols_n[i].get(b)
                if ca is None or cb is None:
                    continue
                col = {}
                for a2, c in ca:
                    add_term(col, (a2, b), c * scale_m)
                for b2, c in cb:
                    add_term(col, (a, b2), c * scale_n)
                cols[i][a, b] = sorted(col.items())
    return dataclasses.replace(T, e_cols=e_cols, f_cols=f_cols)


@functools.cache
def _mixed_windows(name):
    """Vermas M, N of the two weights braiding_audit.py gives the datum, and
    the tensor windows M (x) N and N (x) M, built once for every test."""
    datum = load_datum(name)
    lam, lam_p, cap = AUDIT.MIXED[name]
    M, N = build_verma(datum, lam, cap), build_verma(datum, lam_p, cap)
    return datum, M, N, tensor_module(datum, M, N), tensor_module(datum, N, M)


@pytest.mark.parametrize("name", AUDIT.YBE_DATA)
def test_braiding_commutes_with_the_tensor_action(name):
    datum, M, N, mn, nm = _mixed_windows(name)
    for X, Y, xy, yx in ((M, N, mn, nm), (N, M, nm, mn)):
        cases, failures = AUDIT.naturality_failures(datum, X, Y, xy, yx)
        assert cases > 0 and failures == 0, (cases, failures)


@pytest.mark.parametrize("name", AUDIT.YBE_DATA)
def test_braiding_does_not_commute_with_the_coproduct_action(name):
    # negative control: the same check fails for the coproduct of UqContext
    datum, M, N, mn, nm = _mixed_windows(name)
    cases, failures = AUDIT.naturality_failures(
        datum, M, N, _delta_tensor(datum, M, N, mn), _delta_tensor(datum, N, M, nm))
    assert 0 < failures < cases, (cases, failures)


@pytest.mark.parametrize("name", AUDIT.YBE_DATA)
def test_right_hexagon_holds(name):
    datum, M, N, mn, nm = _mixed_windows(name)
    for X, Y, yx in ((M, N, nm), (N, M, mn)):
        cases, failures = AUDIT.hexagon_failures(datum, X, Y, X, yx)
        assert cases > 0 and failures == 0, (cases, failures)


@pytest.mark.parametrize("name", AUDIT.YBE_DATA)
def test_right_hexagon_fails_with_the_coproduct_f_action(name):
    # negative control: sigma_{M, N (x) P} acts with F-words on N (x) P, so
    # the tensor window's F-action is the one that matters here
    datum, M, N, _, nm = _mixed_windows(name)
    cases, failures = AUDIT.hexagon_failures(datum, M, N, M,
                                             _delta_tensor(datum, N, M, nm))
    assert 0 < failures < cases, (cases, failures)


@pytest.mark.parametrize("name", AUDIT.YBE_DATA)
def test_left_hexagon_holds(name):
    datum, M, N, mn, nm = _mixed_windows(name)
    for X, Y, xy in ((M, N, mn), (N, M, nm)):
        cases, failures = AUDIT.left_hexagon_failures(datum, X, Y, xy)
        assert cases > 0 and failures == 0, (cases, failures)


@pytest.mark.parametrize("name", AUDIT.YBE_DATA)
def test_left_hexagon_fails_with_the_coproduct_coaction(name):
    # negative control: the coaction of M (x) N is read from the tensor
    # window's E-action, so that is the action that matters here
    datum, M, N, mn, _ = _mixed_windows(name)
    cases, failures = AUDIT.left_hexagon_failures(
        datum, M, N, _delta_tensor(datum, M, N, mn))
    assert 0 < failures < cases, (cases, failures)


@pytest.mark.parametrize("name", ["A1", "A2"])
def test_coaction_identity_carries_the_left_hexagon_past_one_module(name):
    # sigma_{M (x) N, P} = (sigma_{M,P} (x) 1)(1 (x) sigma_{N,P}) at P = M,
    # braiding the tensor window through its own coaction: the one-P
    # instance of the identity left_hexagon_failures checks
    datum, M, N, mn, nm = _mixed_windows(name)
    for X, Y, xy in ((M, N, mn), (N, M, nm)):
        cases = 0
        for (a, b) in xy.labels:
            for c in X.labels:
                try:
                    lhs = braid_pair(datum, xy, X, (a, b), c)
                    rhs = {}
                    for (c1, b2), k1 in braid_pair(datum, Y, X, b, c).items():
                        for (c2, a2), k2 in braid_pair(datum, X, X, a, c1).items():
                            add_term(rhs, (c2, (a2, b2)), k1 * k2)
                except CapError:
                    continue
                cases += 1
                assert lhs == rhs, (a, b, c)
        assert cases > 0
