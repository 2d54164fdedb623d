"""Truncated enveloping algebra, cochain calculus, and the two order-by-order
solvers: conjugating a deformed generator map back to the identity, and
removing a deformed multiplication by a gauge series.

Plant-and-recover is the main pattern: build a deformation that is trivial by
construction, hand it to the solver, and verify the output by an independent
recomputation that shares no code path with the solver's own bookkeeping.
Obstructed inputs are pinned as errors with the failing order attached.
"""

from fractions import Fraction

import pytest

from uqbench.deform import (GEN_MONO, GEN_ORDER, UNIT, ObstructionError,
                            SeriesElement, SeriesMap, TruncatedUg,
                            adjoint_action, cochain_differential,
                            coboundary_solve, conjugate_map,
                            conjugation_residuals, derivation_gauge,
                            el_degree, identity_map, lie_bracket,
                            mult_trivialize, plant_deformation, series_inverse,
                            series_mul, standard_multiplication, window_pairs,
                            rigidity_conjugator)
from uqbench.errors import CapError, ConfigError
from uqbench.rootdata import load_datum
from uqbench.sparse import combine

A1 = load_datum("A1")
E, H, F = GEN_MONO["E"], GEN_MONO["H"], GEN_MONO["F"]
ONE = Fraction(1)


def alg(cap=6, window=3):
    return TruncatedUg(A1, cap, window)


# ---------------------------------------------------------------------------
# the windowed algebra itself
# ---------------------------------------------------------------------------

def test_construction_validation():
    with pytest.raises(ConfigError):
        TruncatedUg(load_datum("A2"), 6, 3)
    with pytest.raises(ConfigError):
        TruncatedUg(A1, 6, 4)  # window above cap/2
    with pytest.raises(ConfigError):
        TruncatedUg(A1, 1, 1)


def test_basis_is_lex_sorted_and_capped():
    a = alg(4, 2)
    b1 = a.basis(1)
    assert b1 == sorted(b1)
    assert set(b1) == {UNIT, E, H, F}
    assert all(sum(m) <= 2 for m in a.basis())
    with pytest.raises(CapError):
        a.basis(5)


def test_defining_relations():
    a = alg()
    assert a.check_relations()
    # [H, E] = 2E, [H, F] = -2F, [E, F] = H
    assert a.commutator(a.gen("H"), a.gen("E")) == {E: Fraction(2)}
    assert a.commutator(a.gen("H"), a.gen("F")) == {F: Fraction(-2)}
    assert a.commutator(a.gen("E"), a.gen("F")) == {H: ONE}


def test_associativity_within_cap():
    a = alg()
    for deg in range(2, 6):
        assert a.check_associativity(deg), deg


def test_multiply_past_cap_raises():
    a = alg(4, 2)
    x = {(2, 0, 0): ONE}
    y = {(0, 0, 3): ONE}
    with pytest.raises(CapError):
        a.multiply(x, y)


def test_normal_ordering_eh_identity():
    # E H = (H - 2) E
    a = alg()
    lhs = a.multiply(a.gen("E"), a.gen("H"))
    assert lhs == {(0, 1, 1): ONE, (0, 0, 1): Fraction(-2)}


def test_normal_ordering_ef_identity():
    # E F = F E + H
    a = alg()
    lhs = a.multiply(a.gen("E"), a.gen("F"))
    assert lhs == {(1, 0, 1): ONE, (0, 1, 0): ONE}


def test_casimir_is_central():
    a = alg()
    casimir = {(1, 0, 1): ONE, (0, 2, 0): Fraction(1, 4),
               (0, 1, 0): Fraction(1, 2)}
    for g in GEN_ORDER:
        assert a.commutator(a.gen(g), casimir) == {}


def test_el_degree():
    assert el_degree({}) == -1 or el_degree({}) <= 0
    assert el_degree({E: ONE, (2, 1, 0): ONE}) == 3


# ---------------------------------------------------------------------------
# cochain calculus
# ---------------------------------------------------------------------------

def test_lie_bracket_antisymmetry():
    a = alg()
    for x in GEN_ORDER:
        for y in GEN_ORDER:
            fwd = lie_bracket(a, x, y)
            bwd = lie_bracket(a, y, x)
            assert fwd == {g: -c for g, c in bwd.items()}


def test_differential_squares_to_zero_on_elements():
    a = alg()
    samples = [a.gen("E"), {H: Fraction(3), F: ONE},
               {(1, 1, 0): ONE, E: Fraction(-2)}, {UNIT: ONE}]
    for u in samples:
        df = cochain_differential(a, 0, u)
        ddf = cochain_differential(a, 1, df)
        assert all(v == {} for v in ddf.values()), u


def test_differential_squares_to_zero_on_one_cochains():
    a = alg()
    samples = [
        {"E": {H: ONE}, "H": {}, "F": {}},
        {"E": {E: ONE}, "H": {(1, 0, 1): Fraction(2)}, "F": {F: Fraction(-1)}},
    ]
    for b in samples:
        db = cochain_differential(a, 1, b)
        ddb = cochain_differential(a, 2, db)
        assert all(v == {} for v in ddb.values()), b


def test_differential_of_central_element_vanishes():
    a = alg()
    casimir = {(1, 0, 1): ONE, (0, 2, 0): Fraction(1, 4),
               (0, 1, 0): Fraction(1, 2)}
    df = cochain_differential(a, 0, casimir)
    assert all(v == {} for v in df.values())


def test_two_cochain_antisymmetry_validation():
    a = alg()
    bad = {("E", "H"): {E: ONE}, ("H", "E"): {E: ONE}}
    with pytest.raises(ConfigError):
        cochain_differential(a, 2, bad)


def test_unknown_generator_rejected():
    a = alg()
    with pytest.raises(ConfigError):
        cochain_differential(a, 1, {"X": {E: ONE}})


# ---------------------------------------------------------------------------
# the coboundary solver
# ---------------------------------------------------------------------------

def test_coboundary_plant_and_recover():
    a = alg()
    planted = a.gen("E")
    f = cochain_differential(a, 0, planted)
    u = coboundary_solve(a, f)
    assert u == planted


def test_coboundary_recovers_some_preimage():
    # recovery is only unique up to the center; re-derive, do not compare
    a = alg()
    planted = {(1, 0, 1): ONE, H: Fraction(2)}
    f = cochain_differential(a, 0, planted)
    u = coboundary_solve(a, f)
    assert cochain_differential(a, 0, u) == f


def test_coboundary_rejects_non_cocycle():
    a = alg()
    f = {"E": {UNIT: ONE}, "H": {}, "F": {}}
    # [x,y]-compatibility fails: d of this f is nonzero
    with pytest.raises(ConfigError):
        coboundary_solve(a, f)


def test_coboundary_obstruction_outside_window():
    # ad(F^4) is a derivation, hence a cocycle, but no window-degree
    # preimage exists: F^4 has degree 4 > window and the center cannot help
    a = alg(8, 3)
    f4 = {(4, 0, 0): ONE}
    f = {g: a.commutator(a.gen(g), f4) for g in GEN_ORDER}
    with pytest.raises(ObstructionError) as err:
        coboundary_solve(a, f, order=1)
    assert err.value.order == 1


# ---------------------------------------------------------------------------
# series elements and maps
# ---------------------------------------------------------------------------

def test_series_mul_and_inverse():
    a = alg()
    s = [a.one(), {E: ONE}, {H: Fraction(2)}]
    inv = series_inverse(a, s, 2)
    prod = series_mul(a, s, inv, 2)
    assert prod[0] == a.one()
    assert prod[1] == {} and prod[2] == {}


def test_series_inverse_needs_unit_head():
    a = alg()
    with pytest.raises(ConfigError):
        series_inverse(a, [{E: ONE}], 1)


def test_identity_map_columns():
    a = alg()
    d = identity_map(a, 2, gens_only=True)
    assert set(d.columns) == {E, H, F}
    for g in GEN_ORDER:
        assert d.gen_image(g, 0) == a.gen(g)
        assert d.gen_image(g, 1) == {}


def test_conjugate_map_first_order_is_bracket():
    a = alg()
    d = identity_map(a, 2, gens_only=True)
    seed = SeriesElement(a, [a.one(), {E: ONE}, {}])
    dp = conjugate_map(seed, d, 2)
    for g in GEN_ORDER:
        want = a.commutator({E: ONE}, a.gen(g))
        assert dp.gen_image(g, 1) == want, g


# ---------------------------------------------------------------------------
# rigidity: conjugating a deformed generator map to the identity
# ---------------------------------------------------------------------------

def test_rigidity_plant_and_recover_depth_four():
    a = alg(6, 3)
    n = 4
    d = identity_map(a, n, gens_only=True)
    seed = SeriesElement(a, [a.one(), {E: ONE}] + [{}] * (n - 1))
    dp = conjugate_map(seed, d, n)
    Fser, transcript = rigidity_conjugator(d, dp, n, with_transcript=True)

    # the planted conjugator comes back exactly
    assert Fser.coeffs[0] == a.one()
    assert Fser.coeffs[1] == {E: ONE}
    assert all(c == {} for c in Fser.coeffs[2:])

    # independent residual: F d(x) - d'(x) F recomputed from scratch
    residuals = conjugation_residuals(Fser, d, dp, n)
    for g, per_order in residuals.items():
        for k, r in enumerate(per_order):
            assert r == {}, (g, k)

    assert [t["defect"] for t in transcript] == \
        ["solved", "zero", "zero", "zero"]
    assert transcript[0]["u"] == {E: ONE}


def test_rigidity_identity_input_gives_unit_conjugator():
    a = alg()
    d = identity_map(a, 3, gens_only=True)
    Fser, transcript = rigidity_conjugator(d, d, 3, with_transcript=True)
    assert Fser.is_one()
    assert all(t["defect"] == "zero" for t in transcript)


def test_rigidity_composite_seed():
    # seed with terms at two orders; recovery must still conjugate exactly
    a = alg(6, 3)
    n = 3
    d = identity_map(a, n, gens_only=True)
    seed = SeriesElement(a, [a.one(), {F: ONE}, {(0, 1, 0): Fraction(1, 2)},
                             {}])
    dp = conjugate_map(seed, d, n)
    Fser = rigidity_conjugator(d, dp, n)
    residuals = conjugation_residuals(Fser, d, dp, n)
    assert all(r == {} for per in residuals.values() for r in per)


def test_rigidity_order_zero_mismatch_rejected():
    a = alg()
    d = identity_map(a, 2, gens_only=True)
    cols = {m: [a.gen(g)] + [{}] * 2
            for g, m in GEN_MONO.items()}
    cols[E][0] = {E: Fraction(2)}  # not the identity at order 0
    dp = SeriesMap(a, cols)
    with pytest.raises(ConfigError):
        rigidity_conjugator(d, dp, 2)


def test_rigidity_obstructed_deformation():
    # d'(x) = x + hbar [F^4, x] is a well-formed derivation deformation,
    # but every conjugator would need F^4 + center at order 1: outside the
    # window, so the solver must report the obstruction at order 1
    a = alg(8, 3)
    n = 1
    f4 = {(4, 0, 0): ONE}
    cols = {}
    for g, m in GEN_MONO.items():
        cols[m] = [a.gen(g), a.commutator(f4, a.gen(g))]
    dp = SeriesMap(a, cols)
    d = identity_map(a, n, gens_only=True)
    with pytest.raises(ObstructionError) as err:
        rigidity_conjugator(d, dp, n)
    assert err.value.order == 1


def test_rigidity_order_stability():
    # solving to depth 2 must be a prefix of solving to depth 4
    a = alg(6, 3)
    d4 = identity_map(a, 4, gens_only=True)
    seed = SeriesElement(a, [a.one(), {E: ONE}, {}, {}, {}])
    dp4 = conjugate_map(seed, d4, 4)
    full = rigidity_conjugator(d4, dp4, 4)

    d2 = identity_map(a, 2, gens_only=True)
    dp2 = SeriesMap(a, {m: col[:3] for m, col in dp4.columns.items()})
    short = rigidity_conjugator(d2, dp2, 2)
    assert short.coeffs == full.coeffs[:3]


# ---------------------------------------------------------------------------
# multiplication trivialization
# ---------------------------------------------------------------------------

def _transport_identity_holds(a, mu, V, upto):
    """V(mu(x, y)) == V(x) V(y) on all window pairs, order by order,
    using only public pieces of the interface."""
    for (m1, m2) in window_pairs(a):
        for n in range(upto + 1):
            lhs: dict = {}
            rhs: dict = {}
            for i in range(n + 1):
                j = n - i
                mu_j = a.mono_mul(m1, m2) if j == 0 \
                    else mu[j].get((m1, m2), {})
                lhs = combine(lhs, V.apply(mu_j, i))
                x = V.apply({m1: ONE}, i)
                y = V.apply({m2: ONE}, j)
                rhs = combine(rhs, a.multiply(x, y))
            if lhs != rhs:
                return False
    return True


def test_trivialize_plant_and_recover():
    a = alg(4, 2)
    gauge = derivation_gauge(a, {E: {H: ONE}})
    mu = plant_deformation(a, gauge, 1)
    assert mu[0] == standard_multiplication(a)
    V, transcript = mult_trivialize(a, mu, 1, with_transcript=True)
    assert transcript[0]["defect"] == "solved"
    assert _transport_identity_holds(a, mu, V, 1)


def test_trivialize_depth_two():
    a = alg(6, 3)
    gauge = derivation_gauge(a, {F: {H: Fraction(1, 2)}, E: {E: ONE}})
    mu = plant_deformation(a, gauge, 2)
    V = mult_trivialize(a, mu, 2)
    assert _transport_identity_holds(a, mu, V, 2)


def test_trivialize_undeformed_input_gives_identity_gauge():
    a = alg(4, 2)
    mu = [standard_multiplication(a), {}]
    V, transcript = mult_trivialize(a, mu, 1, with_transcript=True)
    assert all(t["defect"] == "zero" for t in transcript)
    for m in a.basis(a.window):
        col = V.columns[m]
        assert col[0] == {m: ONE}
        assert all(c == {} for c in col[1:])


def test_trivialize_rescaling_by_unit_cochain():
    # mu_1 = 3 mu_0 is removed by a gauge with beta(1) = 3: the unit
    # component is a legitimate unknown, not forced to zero
    a = alg(4, 2)
    std = standard_multiplication(a)
    mu1 = {pair: {m: 3 * c for m, c in prod.items()}
           for pair, prod in std.items()}
    mu = [std, mu1]
    V, transcript = mult_trivialize(a, mu, 1, with_transcript=True)
    assert transcript[0]["defect"] == "solved"
    assert V.columns[UNIT][1] == {UNIT: Fraction(3)}
    assert _transport_identity_holds(a, mu, V, 1)


def test_trivialize_central_pairing_deformation():
    # mu_1(E, F) = 1 is associative and removed by shifting H
    a = alg(4, 2)
    mu = [standard_multiplication(a), {(E, F): {UNIT: ONE}}]
    V = mult_trivialize(a, mu, 1)
    assert _transport_identity_holds(a, mu, V, 1)


def test_trivialize_rejects_non_associative_input():
    a = alg(4, 2)
    mu = [standard_multiplication(a), {(UNIT, E): {E: ONE}}]
    with pytest.raises(ConfigError) as err:
        mult_trivialize(a, mu, 1)
    assert "associative" in str(err.value)


def test_trivialize_obstructed_window_cocycle():
    # mu_1(E, H) = E passes the associativity precheck at this window
    # (no all-positive triple fits), yet lies outside the coboundary image
    a = alg(4, 2)
    mu = [standard_multiplication(a), {(E, H): {E: ONE}}]
    with pytest.raises(ObstructionError) as err:
        mult_trivialize(a, mu, 1)
    assert err.value.order == 1


def test_trivialize_validates_entry_shape():
    a = alg(4, 2)
    bad_pair = {((3, 3, 3), E): {E: ONE}}
    with pytest.raises(ConfigError):
        mult_trivialize(a, [standard_multiplication(a), bad_pair], 1)
    too_deep = {(E, H): {(2, 2, 2): ONE}}
    with pytest.raises(ConfigError):
        mult_trivialize(a, [standard_multiplication(a), too_deep], 1)


def test_trivialize_wrong_order_zero_rejected():
    a = alg(4, 2)
    std = standard_multiplication(a)
    wrong = dict(std)
    wrong[(E, F)] = {UNIT: Fraction(5)}
    with pytest.raises(ConfigError):
        mult_trivialize(a, [wrong], 0)


def test_derivation_gauge_leibniz_extension():
    a = alg(4, 2)
    gauge = derivation_gauge(a, {E: {H: ONE}})
    # b(1) = 0, b(E) = H, b(E^2) = E b(E) + b(E) E = EH + HE = 2HE - 2E
    assert gauge.get(UNIT, {}) == {}
    assert gauge[E] == {H: ONE}
    assert gauge[(0, 0, 2)] == {(0, 1, 1): Fraction(2), E: Fraction(-2)}


def test_window_pairs_degree_bound():
    a = alg(6, 3)
    pairs = window_pairs(a)
    assert all(sum(m1) + sum(m2) <= 3 for m1, m2 in pairs)
    assert (UNIT, UNIT) in pairs


def test_adjoint_action_is_bracket():
    a = alg()
    act = adjoint_action(a)
    x = {(1, 0, 1): ONE}
    assert act("E", x) == a.commutator(a.gen("E"), x)
