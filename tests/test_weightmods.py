"""Windowed weight modules: actions, coactions, braidings, braid matrices.

The braiding has two normalizations.  The display form (weight_twist=False)
reproduces the printed closed-form coefficients; the categorical form
(weight_twist=True) is the one that satisfies the braid relation.  Both are
pinned here: the display form against the closed formula term by term, the
categorical form through ybe_check and matrix braid relations.
"""

from collections import Counter
from itertools import product

import pytest

from uqbench import weightmods
from uqbench.errors import CapError, ConfigError
from uqbench.linalg import invert, mat_eq, mat_mul
from uqbench.nichols import NicholsContext
from uqbench.rootdata import load_datum
from uqbench.scalars import ScalarQ, q_factorial, q_int
from uqbench.weightmods import (braid_pair, braid_rep, braiding, build_mlambda,
                                build_verma, closed_form_braiding_rank1,
                                coaction_contract, module_pairing,
                                tensor_module, verma_coaction,
                                verma_e_coefficient, verma_k_exponent,
                                ybe_check)

ONE = ScalarQ.one()
ZERO = ScalarQ.zero()
Q = ScalarQ.q_power

A1 = load_datum("A1")


def fword(n):
    return (0,) * n


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
        got = M.apply_k((1,), {fword(n): ONE})
        assert got == {fword(n): Q(verma_k_exponent(lam, n))}


def test_verma_norm_exponents_count_f_letters():
    M = build_verma(A1, 3, 4)
    for n in range(5):
        assert M.norm_exps[fword(n)] == n


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
    # contracting the coaction with a single E equals the E column exactly;
    # the pairing normalization is chosen to make this hold with no rescale
    lam, cap = 4, 4
    M = build_verma(A1, lam, cap)
    for n in range(1, cap + 1):
        assert coaction_contract(M, 1, fword(n)) == \
            M.apply_e(0, {fword(n): ONE})


def test_coaction_contraction_higher_orders():
    # contracting with E^2 equals applying the E column twice
    lam, cap = 3, 4
    M = build_verma(A1, lam, cap)
    for n in range(2, cap + 1):
        twice = M.apply_e(0, M.apply_e(0, {fword(n): ONE}))
        assert coaction_contract(M, 2, fword(n)) == twice


def test_coaction_counit_normalization():
    # the k=0 term of every coaction is 1 (x) itself
    M = build_verma(A1, 2, 3)
    for n in range(4):
        terms = [t for t in M.coaction(fword(n)) if t[0] == ()]
        assert len(terms) == 1
        assert terms[0][1] == fword(n)
        assert terms[0][2] == ONE


def test_module_pairing_diagonal_only():
    assert module_pairing(A1, 1, 2).is_zero()
    assert module_pairing(A1, 2, 1).is_zero()
    qd = Q(1) - Q(-1)
    for n in range(4):
        want = q_factorial(n) * (qd.inverse() ** n)
        if n % 2:
            want = -want
        assert module_pairing(A1, n, n) == want


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
        for deg in weightmods._multidegrees(datum.rank, total):
            assert per_depth.get(deg, 0) == ctx.nichols_dim(deg), deg
            words = {w for w in M.labels if M.depths[w] == deg}
            assert words == set(ctx.nichols_basis(deg).basis_words)
    assert sum(per_depth.values()) == len(M.labels)


# ---------------------------------------------------------------------------
# Dense window modules
# ---------------------------------------------------------------------------

def test_mlambda_k_action():
    lam = 3
    M = build_mlambda(A1, lam, (2, 2))
    for i in range(3):
        for j in range(3):
            got = M.apply_k((1,), {(i, j): ONE})
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
            assert M.norm_exps[(i, j)] == j - i


def test_mlambda_coaction_displayed_series():
    # coaction x_{i,j} -> sum_k (-1)^k ((q-q^-1)^k/[k]!) F^k (x) x_{i+k,j};
    # complete columns exist for labels with k-headroom inside the window
    lam = 2
    M = build_mlambda(A1, lam, (4, 2), coaction_cap=2)
    qd = Q(1) - Q(-1)
    for i in range(3):
        for j in range(3):
            col = {(len(fw), tgt): c for fw, tgt, c in M.coaction((i, j))}
            assert len(col) == 3
            for k in range(3):
                want = (qd ** k) / q_factorial(k)
                if k % 2:
                    want = -want
                assert col[(k, (i + k, j))] == want, (i, j, k)


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
                    got = braid_pair(A1, M, N, fword(n), fword(m),
                                     weight_twist=False)
                    want = {(fword(a), fword(b)): c
                            for (a, b), c in
                            closed_form_braiding_rank1(lam, lam_p, n, m)
                            if not c.is_zero()}
                    assert got == want, (lam, lam_p, n, m)


def test_braiding_matrix_against_braid_pair():
    M = build_verma(A1, 2, 2)
    N = build_verma(A1, 1, 2)
    basis, mat = braiding(A1, M, N, 2)
    swapped = [(b, a) for (a, b) in basis]
    for col, (a, b) in enumerate(basis):
        vec = braid_pair(A1, M, N, a, b)
        for row, key in enumerate(swapped):
            assert mat[row][col] == vec.get(key, ZERO)


def test_ybe_on_degree_three_window():
    for lam in (0, 1, 2, 3):
        M = build_verma(A1, lam, 3)
        assert ybe_check(A1, M, 3), lam


def test_display_normalization_fails_ybe():
    # the printed form is not a braiding; the categorical twist is what
    # ybe_check uses.  Pin the distinction so it cannot silently blur.
    lam = 2
    M = build_verma(A1, lam, 2)
    MM = tensor_module(A1, M, M)

    def slot_display(vec, slot):
        out = {}
        for (a, b, c), coeff in vec.items():
            args = (a, b) if slot == 0 else (b, c)
            bp = braid_pair(A1, M, M, *args, weight_twist=False)
            for (x, y), c2 in bp.items():
                key = (x, y, c) if slot == 0 else (a, x, y)
                s = out.get(key, ZERO) + coeff * c2
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return out

    start = {(fword(1), fword(1), fword(0)): ONE}
    lhs = slot_display(slot_display(slot_display(start, 0), 1), 0)
    rhs = slot_display(slot_display(slot_display(start, 1), 0), 1)
    assert lhs != rhs
    del MM


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
    assert mat_eq(lhs, rhs)


def test_braid_rep_distant_strands_commute():
    M = build_verma(A1, 1, 2)
    _, lhs = braid_rep(A1, M, 4, (1, 3), 2)
    _, rhs = braid_rep(A1, M, 4, (3, 1), 2)
    assert mat_eq(lhs, rhs)


def test_braid_rep_word_is_product_of_generators():
    M = build_verma(A1, 2, 2)
    _, s1 = braid_rep(A1, M, 3, (1,), 2)
    _, s2 = braid_rep(A1, M, 3, (2,), 2)
    _, w = braid_rep(A1, M, 3, (1, 2), 2)
    assert mat_eq(w, mat_mul(s2, s1, ZERO))


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
            image = braid_pair(A1, M, M, t[slot], t[slot + 1], True)
            for (x, y), c in image.items():
                mat[index[t[:slot] + (x, y) + t[slot + 2:]]][j] = c
        return mat

    result = [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]
    for letter in word:
        gen = generator(abs(letter) - 1)
        if letter < 0:
            gen = invert(gen, ZERO, ONE)
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
    assert mat_eq(mat, ref)


def _counting_braid_pair(monkeypatch):
    calls = Counter()
    real = weightmods.braid_pair

    def counted(datum, M, N, a, b, weight_twist=False):
        calls[a, b, weight_twist] += 1
        return real(datum, M, N, a, b, weight_twist)

    monkeypatch.setattr(weightmods, "braid_pair", counted)
    return calls


def test_sigma_is_computed_once_per_pair_and_call(monkeypatch):
    calls = _counting_braid_pair(monkeypatch)
    M = build_verma(A1, 2, 3)
    assert ybe_check(A1, M, 3)
    assert calls and set(calls.values()) == {1}
    assert all(twist for _, _, twist in calls)
    for word in ((1, 2, 1), (1, -2, -1, 2)):
        calls.clear()
        braid_rep(A1, M, 3, word, 3)
        assert calls and set(calls.values()) == {1}, word


@pytest.mark.parametrize("name,lam", [("A2", (1, 1)), ("A1xA1", (1, 1))])
def test_higher_rank_braidings_are_refused(name, lam):
    datum = load_datum(name)
    M = build_verma(datum, lam, 2)
    with pytest.raises(ConfigError, match="rank 1 only"):
        ybe_check(datum, M, 2)
    with pytest.raises(ConfigError, match="rank 1 only"):
        braid_rep(datum, M, 3, (1, 2, 1), 2)


def test_tensor_module_weights_add():
    M = build_verma(A1, 2, 2)
    N = build_verma(A1, 1, 2)
    T = tensor_module(A1, M, N)
    for (a, b) in T.labels:
        assert T.weights[(a, b)][0] == M.weights[a][0] + N.weights[b][0]
        assert T.norm_exps[(a, b)] == M.norm_exps[a] + N.norm_exps[b]
