"""Truncated enveloping algebra, cochain calculus, and the two order-by-order
solvers: conjugating a deformed generator map back to the identity, and
removing a deformed multiplication by a gauge series.

Plant-and-recover is the main pattern: build a deformation that is trivial by
construction, hand it to the solver, and verify the output by an independent
recomputation that shares no code path with the solver's own bookkeeping.
Obstructed inputs are pinned as errors with the failing order attached.
"""

import contextlib
import io
import json
import random
import re
from fractions import Fraction
from itertools import product
from math import comb

import pytest

import uqbench.deform as deform
from uqbench.cli import main
from uqbench.deform import (GEN_MONO, GEN_ORDER, UNIT, ObstructionError,
                            TruncatedUg, _compose, _residual, _series_mul,
                            cochain_differential, coboundary_solve,
                            conjugate_map, conjugation_residuals,
                            derivation_gauge, el_degree, identity_columns,
                            mult_trivialize, plant_deformation,
                            series_inverse, series_mul,
                            standard_multiplication,
                            trivialization_residuals, rigidity_conjugator)
from uqbench.errors import CapError, ConfigError
from uqbench.linalg import solve
from uqbench.rootdata import PRESET_ENV, load_datum
from uqbench.sparse import add_term, combine

from oracles import (all_pairs_gauge_solve, chain_mono_mul,
                     check_associativity, check_relations, differential0,
                     gauge_defect)

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
    assert all(sum(m) <= 2 for m in a.basis(a.window))
    with pytest.raises(CapError):
        a.basis(5)


def test_defining_relations():
    a = alg()
    assert check_relations(a)
    # [H, E] = 2E, [H, F] = -2F, [E, F] = H
    assert a.commutator({H: 1}, {E: 1}) == {E: Fraction(2)}
    assert a.commutator({H: 1}, {F: 1}) == {F: Fraction(-2)}
    assert a.commutator({E: 1}, {F: 1}) == {H: ONE}


def test_associativity_within_cap():
    a = alg()
    for deg in range(2, 6):
        assert check_associativity(a, deg), deg


def test_multiply_past_cap_raises():
    a = alg(4, 2)
    x = {(2, 0, 0): ONE}
    y = {(0, 0, 3): ONE}
    with pytest.raises(CapError):
        a.multiply(x, y)


def test_normal_ordering_eh_identity():
    # E H = (H - 2) E
    a = alg()
    lhs = a.multiply({E: 1}, {H: 1})
    assert lhs == {(0, 1, 1): ONE, (0, 0, 1): Fraction(-2)}


def test_normal_ordering_ef_identity():
    # E F = F E + H
    a = alg()
    lhs = a.multiply({E: 1}, {F: 1})
    assert lhs == {(1, 0, 1): ONE, (0, 1, 0): ONE}


def test_casimir_is_central():
    a = alg()
    casimir = {(1, 0, 1): ONE, (0, 2, 0): Fraction(1, 4),
               (0, 1, 0): Fraction(1, 2)}
    for g in GEN_ORDER:
        assert a.commutator({g: 1}, casimir) == {}


def test_el_degree():
    assert el_degree({}) == -1
    assert el_degree({E: ONE, (2, 1, 0): ONE}) == 3


# ---------------------------------------------------------------------------
# cochain calculus
# ---------------------------------------------------------------------------

def test_generator_commutator_antisymmetry():
    a = alg()
    for x in GEN_ORDER:
        for y in GEN_ORDER:
            fwd = a.commutator({x: 1}, {y: 1})
            bwd = a.commutator({y: 1}, {x: 1})
            assert fwd == {g: -c for g, c in bwd.items()}
            assert all(g in GEN_ORDER for g in fwd)


def test_differential_squares_to_zero_on_elements():
    a = alg()
    samples = [{E: 1}, {H: Fraction(3), F: ONE},
               {(1, 1, 0): ONE, E: Fraction(-2)}, {UNIT: ONE}]
    for u in samples:
        df = differential0(a, u)
        ddf = cochain_differential(a, df)
        assert all(v == {} for v in ddf.values()), u


def test_unknown_generator_rejected():
    # cochains are keyed by generator monomials: a name is no key
    a = alg()
    for keys in ([(1, 1, 0)], ["E"], ["E", (1, 1, 0)]):
        with pytest.raises(ConfigError, match="unknown generators"):
            cochain_differential(a, {k: {E: ONE} for k in keys})


# ---------------------------------------------------------------------------
# the coboundary solver
# ---------------------------------------------------------------------------

def test_coboundary_plant_and_recover():
    a = alg()
    planted = {E: 1}
    f = differential0(a, planted)
    u = coboundary_solve(a, f)
    assert u == planted


def test_coboundary_recovers_some_preimage():
    # recovery is only unique up to the center; re-derive, do not compare
    a = alg()
    planted = {(1, 0, 1): ONE, H: Fraction(2)}
    f = differential0(a, planted)
    u = coboundary_solve(a, f)
    assert differential0(a, u) == f


def test_coboundary_rejects_non_cocycle():
    a = alg()
    f = {E: {UNIT: ONE}, H: {}, F: {}}
    # [x,y]-compatibility fails: d of this f is nonzero
    with pytest.raises(ConfigError, match="not a cocycle"):
        coboundary_solve(a, f)


@pytest.mark.parametrize("shape", ["E", "F", "FE"])
@pytest.mark.parametrize("window", [2, 3, 4])
def test_coboundary_of_degree_window_plus_one_is_an_obstruction(window, shape):
    # ad(u) for u of degree window + 1 is a cocycle of that degree: its
    # rows lie within the degree bound max(window, deg f), with no unknown
    # reaching them, so the window holds no solution; it is no CapError
    a = alg(2 * window, window)
    d = window + 1
    u = {{"E": (0, 0, d), "F": (d, 0, 0), "FE": (1, 0, d - 1)}[shape]: ONE}
    f = differential0(a, u)
    assert max(el_degree(v) for v in f.values()) == window + 1
    with pytest.raises(ObstructionError) as err:
        coboundary_solve(a, f, order=2)
    assert err.value.order == 2


def test_coboundary_obstruction_outside_window():
    # ad(F^4) is a derivation, hence a cocycle, but no window-degree
    # preimage exists: F^4 has degree 4 > window and the center cannot help
    a = alg(8, 3)
    f4 = {(4, 0, 0): ONE}
    f = {g: a.commutator({g: 1}, f4) for g in GEN_ORDER}
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


@pytest.mark.parametrize("upto", [1, 2, 3, 4, 5])
def test_element_series_inverse_both_sides(upto):
    a = alg(8, 3)
    s = [a.one()] + [{E: ONE, H: Fraction(k)} if k % 2 else {F: Fraction(-k)}
                     for k in range(1, upto + 1)]
    inv = series_inverse(a, s, upto)
    unit = [a.one()] + [{} for _ in range(upto)]
    assert series_mul(a, s, inv, upto) == unit
    assert series_mul(a, inv, s, upto) == unit


def test_identity_map_columns():
    # conjugating by the unit series is the identity map x |-> x
    a = alg()
    d = conjugate_map(a, [a.one()], 2)
    assert set(d) == {E, H, F}
    for g in GEN_ORDER:
        assert d[g][0] == {g: 1}
        assert d[g][1] == {}


def test_conjugate_map_first_order_is_bracket():
    a = alg()
    seed = [a.one(), {E: ONE}, {}]
    dp = conjugate_map(a, seed, 2)
    for g in GEN_ORDER:
        want = a.commutator({E: ONE}, {g: 1})
        assert dp[g][1] == want, g


# ---------------------------------------------------------------------------
# rigidity: conjugating a deformed generator map to the identity
# ---------------------------------------------------------------------------

def test_rigidity_plant_and_recover_depth_four():
    a = alg(6, 3)
    n = 4
    seed = [a.one(), {E: ONE}] + [{}] * (n - 1)
    dp = conjugate_map(a, seed, n)
    Fser, transcript = rigidity_conjugator(a, dp, n)

    # the planted conjugator comes back exactly
    assert Fser[0] == a.one()
    assert Fser[1] == {E: ONE}
    assert all(c == {} for c in Fser[2:])

    # independent residual: F x - d'(x) F recomputed from scratch
    residuals = conjugation_residuals(a, Fser, dp, n)
    for g, per_order in residuals.items():
        for k, r in enumerate(per_order):
            assert r == {}, (g, k)

    assert [t["defect"] for t in transcript] == \
        ["solved", "zero", "zero", "zero"]
    assert transcript[0]["u"] == {E: ONE}


def test_rigidity_identity_input_gives_unit_conjugator():
    a = alg()
    d = {g: [{g: 1}, {}, {}, {}] for g in GEN_ORDER}
    Fser, transcript = rigidity_conjugator(a, d, 3)
    assert Fser[0] == a.one()
    assert all(not c for c in Fser[1:])
    assert all(t["defect"] == "zero" for t in transcript)


def test_rigidity_composite_seed():
    # seed with terms at two orders; recovery must still conjugate exactly
    a = alg(6, 3)
    n = 3
    seed = [a.one(), {F: ONE}, {(0, 1, 0): Fraction(1, 2)}, {}]
    dp = conjugate_map(a, seed, n)
    Fser, _ = rigidity_conjugator(a, dp, n)
    residuals = conjugation_residuals(a, Fser, dp, n)
    assert all(r == {} for per in residuals.values() for r in per)


def test_rigidity_order_zero_mismatch_rejected():
    a = alg()
    dp = {m: [{m: 1}] + [{}] * 2 for m in GEN_ORDER}
    dp[E][0] = {E: Fraction(2)}  # not the identity at order 0
    with pytest.raises(ConfigError):
        rigidity_conjugator(a, dp, 2)
    # on every generator, a scaled, a wrong and an empty order-0 term
    for g in GEN_ORDER:
        for head in ({g: 2}, {UNIT: 1}, {}):
            dp = {m: [{m: 1}] + [{}] * 2 for m in GEN_ORDER}
            dp[g][0] = head
            with pytest.raises(ConfigError, match="not equal mod hbar"):
                rigidity_conjugator(a, dp, 2)


@pytest.mark.parametrize("g", "EHF")
def test_rigidity_map_without_a_generator_column_rejected(g):
    a = alg()
    short = conjugate_map(a, [a.one()], 2)
    del short[GEN_MONO[g]]
    with pytest.raises(ConfigError) as err:
        rigidity_conjugator(a, short, 2)
    assert f"no column for generator {GEN_MONO[g]}" in str(err.value)


def test_rigidity_obstructed_deformation():
    # d'(x) = x + hbar [F^4, x] is a well-formed derivation deformation,
    # but every conjugator would need F^4 + center at order 1: outside the
    # window, so the solver must report the obstruction at order 1
    a = alg(8, 3)
    n = 1
    f4 = {(4, 0, 0): ONE}
    dp = {}
    for m in GEN_ORDER:
        dp[m] = [{m: 1}, a.commutator(f4, {m: 1})]
    with pytest.raises(ObstructionError) as err:
        rigidity_conjugator(a, dp, n)
    assert err.value.order == 1


def test_rigidity_order_stability():
    # solving to depth 2 must be a prefix of solving to depth 4
    a = alg(6, 3)
    seed = [a.one(), {E: ONE}, {}, {}, {}]
    dp4 = conjugate_map(a, seed, 4)
    full, _ = rigidity_conjugator(a, dp4, 4)

    dp2 = {m: col[:3] for m, col in dp4.items()}
    short, _ = rigidity_conjugator(a, dp2, 2)
    assert short == full[:3]


# ---------------------------------------------------------------------------
# multiplication trivialization
# ---------------------------------------------------------------------------

def _transport_identity_holds(a, mu, V, upto):
    """V(mu(x, y)) == V(x) V(y) on all window pairs, order by order,
    using only public pieces of the interface."""
    for (m1, m2) in a.pairs:
        for n in range(upto + 1):
            lhs: dict = {}
            rhs: dict = {}
            for i in range(n + 1):
                j = n - i
                mu_j = a.mono_mul(m1, m2) if j == 0 \
                    else mu[j].get((m1, m2), {})
                lhs = combine(lhs, _ref_apply(V, i, mu_j))
                x = _ref_apply(V, i, {m1: ONE})
                y = _ref_apply(V, j, {m2: ONE})
                rhs = combine(rhs, a.multiply(x, y))
            if lhs != rhs:
                return False
    return True


def test_trivialize_plant_and_recover():
    a = alg(4, 2)
    gauge = derivation_gauge(a, {E: {H: ONE}})
    mu = plant_deformation(a, gauge, 1)
    assert mu[0] == standard_multiplication(a)
    V, transcript = mult_trivialize(a, mu, 1)
    assert transcript[0]["defect"] == "solved"
    assert _transport_identity_holds(a, mu, V, 1)


def test_trivialize_depth_two():
    a = alg(6, 3)
    gauge = derivation_gauge(a, {F: {H: Fraction(1, 2)}, E: {E: ONE}})
    mu = plant_deformation(a, gauge, 2)
    V, _ = mult_trivialize(a, mu, 2)
    assert _transport_identity_holds(a, mu, V, 2)


def test_trivialize_undeformed_input_gives_identity_gauge():
    a = alg(4, 2)
    mu = [standard_multiplication(a), {}]
    V, transcript = mult_trivialize(a, mu, 1)
    assert all(t["defect"] == "zero" for t in transcript)
    for m in a.basis(a.window):
        col = [v_k.get(m, {}) for v_k in V]
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
    V, transcript = mult_trivialize(a, mu, 1)
    assert transcript[0]["defect"] == "solved"
    assert V[1][UNIT] == {UNIT: Fraction(3)}
    assert _transport_identity_holds(a, mu, V, 1)


def test_trivialize_central_pairing_deformation():
    # mu_1(E, F) = 1 is associative and removed by shifting H
    a = alg(4, 2)
    mu = [standard_multiplication(a), {(E, F): {UNIT: ONE}}]
    V, _ = mult_trivialize(a, mu, 1)
    assert _transport_identity_holds(a, mu, V, 1)


def test_trivialize_rejects_non_associative_input():
    a = alg(4, 2)
    mu = [standard_multiplication(a), {(UNIT, E): {E: ONE}}]
    with pytest.raises(ConfigError) as err:
        mult_trivialize(a, mu, 1)
    assert "associative" in str(err.value)


@pytest.mark.parametrize("order", [2, 3])
def test_trivialize_rejects_non_associative_input_at_higher_orders(order):
    # an associative planted deformation up to `order`, with a term at that
    # order whose Hochschild coboundary is nonzero on (1, 1, E)
    a = alg(4, 2)
    mu = plant_deformation(a, derivation_gauge(a, {E: {H: ONE}}), order)
    mu[order] = dict(mu[order])
    mu[order][(UNIT, E)] = combine(mu[order].get((UNIT, E), {}), {E: ONE})
    with pytest.raises(ConfigError) as err:
        mult_trivialize(a, mu, order)
    assert f"not associative at order {order}" in str(err.value)


def _first_hochschild_failure(a, f):
    """The first window triple, in lex order, on which the Hochschild
    coboundary x f(y, z) - f(xy, z) + f(x, yz) - f(x, y) z is nonzero, each
    term recomputed from TruncatedUg.multiply; None if there is none."""
    monos = a.basis(a.window)
    for x, y, z in product(monos, repeat=3):
        if sum(x) + sum(y) + sum(z) > a.window:
            continue
        terms = [a.multiply({x: ONE}, f.get((y, z), {})),
                 _ref_mu(f, a.mono_mul(x, y), {z: ONE}, strict=False),
                 _ref_mu(f, {x: ONE}, a.mono_mul(y, z), strict=False),
                 a.multiply(f.get((x, y), {}), {z: ONE})]
        if combine(combine(terms[0], terms[1], -1),
                   combine(terms[2], terms[3], -1)):
            return (x, y, z)
    return None


def _perturbed_plant(a, order, pair, extra):
    mu = plant_deformation(a, derivation_gauge(a, {E: {H: ONE}}), order)
    mu[order] = dict(mu[order])
    mu[order][pair] = combine(mu[order].get(pair, {}), extra)
    return mu


@pytest.mark.parametrize("case", ["unit", "e-square", "h-square",
                                  "plant-order-2", "plant-order-3"])
def test_trivialize_names_the_first_failing_triple(case, monkeypatch):
    # the triple in the error is the first window triple, in lex order, on
    # which a brute-force Hochschild coboundary of the order-n residual is
    # nonzero; the residual is recorded as the solver reads it
    a = alg(4, 2) if case == "unit" else alg(6, 3)
    std = standard_multiplication(a)
    mu, order, first = {
        "unit": ([std, {(UNIT, E): {E: ONE}}], 1, (UNIT, UNIT, E)),
        "e-square": ([std, {(E, E): {H: ONE}}], 1, (E, E, E)),
        "h-square": ([std, {(H, H): {E: ONE}}], 1, (E, H, H)),
        "plant-order-2": (_perturbed_plant(a, 2, (F, H), {F: ONE}), 2,
                          (E, F, H)),
        "plant-order-3": (_perturbed_plant(a, 3, (H, E), {UNIT: ONE}), 3,
                          (E, H, E)),
    }[case]
    tables = []

    def record_residual(*args):
        tables.append(_residual(*args))
        return tables[-1]

    monkeypatch.setattr(deform, "_residual", record_residual)
    with pytest.raises(ConfigError) as err:
        mult_trivialize(a, mu, order)
    want = _first_hochschild_failure(a, tables[-1])
    assert want == first
    assert str(err.value) == (
        f"deformed multiplication is not associative at order {order} "
        f"on {want}")


def test_trivialize_obstructed_window_cocycle():
    # mu_1(E, H) = E is a Hochschild cocycle at this window (no
    # all-positive triple fits), yet lies outside the coboundary image
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


# ---------------------------------------------------------------------------
# the trivializer's residual against the order-by-order quadruple sum
# ---------------------------------------------------------------------------

def _ref_apply(series, k, x):
    cols = series[k] if k < len(series) else {}
    out: dict = {}
    for m, c in x.items():
        img = cols.get(m)
        if img is None:
            if k == 0 and c != 0:
                raise CapError(f"gauge map is not defined on monomial {m}")
            continue
        for m2, c2 in img.items():
            out = combine(out, {m2: c * c2})
    return out


def _ref_mu(mu_n, x, y, strict):
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            entry = mu_n.get((m1, m2))
            if entry is None:
                if strict and c1 * c2 != 0:
                    raise CapError(f"no entry for ({m1}, {m2})")
                continue
            for m3, c3 in entry.items():
                out = combine(out, {m3: c1 * c2 * c3})
    return out


def _ref_transport(a, mu, v, vinv, upto):
    """v(mu(vinv x, vinv y)) summed over every split i+j+k+l = n of every
    order n, each product recomputed: the definition, term by term."""
    out = [{} for _ in range(upto + 1)]
    for (m1, m2) in a.pairs:
        for order in range(upto + 1):
            acc: dict = {}
            for i in range(order + 1):
                for j in range(order - i + 1):
                    for k in range(order - i - j + 1):
                        l = order - i - j - k
                        if l >= len(mu) or not mu[l]:
                            continue
                        x = _ref_apply(vinv, j, {m1: ONE})
                        y = _ref_apply(vinv, k, {m2: ONE})
                        if not x or not y:
                            continue
                        prod = _ref_mu(mu[l], x, y, strict=(l == 0))
                        acc = combine(acc, _ref_apply(v, i, prod))
            if acc:
                out[order][(m1, m2)] = acc
    return out


def _planted_gauge_series(a, gen_images, upto):
    gauge = derivation_gauge(a, gen_images)
    v = [identity_columns(a), gauge] + [{} for _ in range(upto - 1)]
    return v, _ref_map_series_inverse(a, v, upto)


def _ref_residual(a, mu, v, n):
    """Order n of V(mu(x, y)) - V(x) V(y) on every window pair, term by
    term, the products taken by TruncatedUg.multiply."""
    out = {}
    for (m1, m2) in a.pairs:
        acc: dict = {}
        for i in range(n + 1):
            mu_j = mu[n - i].get((m1, m2), {}) if n - i < len(mu) else {}
            acc = combine(acc, _ref_apply(v, i, mu_j))
            prod = a.multiply(_ref_apply(v, i, {m1: ONE}),
                              _ref_apply(v, n - i, {m2: ONE}))
            acc = combine(acc, prod, -1)
        if acc:
            out[(m1, m2)] = acc
    return out


def _ref_moved_residual(a, moved, v, n):
    """Order n of (mu' - mu_0)(V x, V y) on every window pair, for mu' the
    transported table `moved` with mu'_0 = mu_0."""
    out = {}
    for (m1, m2) in a.pairs:
        acc: dict = {}
        for l in range(1, n + 1):
            for j in range(n - l + 1):
                x = _ref_apply(v, j, {m1: ONE})
                y = _ref_apply(v, n - l - j, {m2: ONE})
                acc = combine(acc, _ref_mu(moved[l], x, y, strict=False))
        if acc:
            out[(m1, m2)] = acc
    return out


BENCH_PLANTS = [{E: {H: ONE}}, {H: {E: ONE}}, {F: {}},
                {E: {H: ONE}, F: {H: ONE}}]


@pytest.mark.parametrize("upto", [3, 4, 5])
@pytest.mark.parametrize("plant", range(len(BENCH_PLANTS)))
def test_transport_matches_quadruple_sum_on_planted_gauges(plant, upto):
    a = alg(6, 3)
    v, vinv = _planted_gauge_series(a, BENCH_PLANTS[plant], upto)
    std = standard_multiplication(a)
    got = plant_deformation(a, derivation_gauge(a, BENCH_PLANTS[plant]), upto)
    assert got == _ref_transport(a, [std], vinv, v, upto)


def test_transport_matches_quadruple_sum_with_higher_orders():
    # _residual against its definition and against the quadruple-sum
    # transport mu' of mu through V, where it is (mu' - mu_0)(V x, V y).  mu
    # has nonzero terms at every order and the gauge is unrelated to it, so
    # every order of the residual is nonzero; the solver's own gauge clears
    # every order.
    a = alg(6, 3)
    upto = 3
    mu = plant_deformation(a, derivation_gauge(a, {E: {H: ONE}}), upto)
    assert all(mu[n] for n in range(1, upto + 1))
    v, vinv = _planted_gauge_series(a, {F: {E: Fraction(1, 3)}}, upto)
    moved = _ref_transport(a, mu, v, vinv, upto)
    assert moved[0] == standard_multiplication(a)
    assert _residual(a, mu, v, 0) == {}
    for n in range(1, upto + 1):
        got = _residual(a, mu, v, n)
        assert got
        assert got == _ref_residual(a, mu, v, n)
        assert got == _ref_moved_residual(a, moved, v, n)
    V, _ = mult_trivialize(a, mu, upto)
    assert not any(_residual(a, mu, V, n) for n in range(upto + 1))


@pytest.mark.parametrize("upto", [3, 4, 5])
@pytest.mark.parametrize("plant", range(len(BENCH_PLANTS)))
def test_step_transport_matches_full_transport(plant, upto, monkeypatch):
    # Before every solved order n the table the solver reads equals order n
    # of the input transported from scratch through the gauge so far,
    # v(mu(v^-1 x, v^-1 y)), which vanishes at orders 1..n-1; after the
    # step, V(mu(x, y)) = V(x) V(y) holds through order n.
    a = alg(6, 3)
    mu = plant_deformation(a, derivation_gauge(a, BENCH_PLANTS[plant]), upto)
    solve_order = deform._solve_gauge_order
    steps = []

    def record_solve(algebra, f_n, order, *rest):
        beta = solve_order(algebra, f_n, order, *rest)
        steps.append((order, f_n, beta))
        return beta

    monkeypatch.setattr(deform, "_solve_gauge_order", record_solve)
    mult_trivialize(a, mu, upto)
    assert steps or not any(mu[1:])
    v = [identity_columns(a)] + [{} for _ in range(upto)]
    for n, f_n, beta in steps:
        moved = _ref_transport(a, mu, v, _ref_map_series_inverse(a, v, upto),
                               n)
        assert moved[0] == standard_multiplication(a)
        assert not any(moved[1:n])
        assert moved[n] == f_n
        step = [identity_columns(a)] + [beta if k == n else {}
                                        for k in range(1, upto + 1)]
        v = _series_mul(_compose, step, v, upto)
        assert trivialization_residuals(a, mu, v, n) == []


# ---------------------------------------------------------------------------
# integer coefficients, and Fractions wherever a solve divides
# ---------------------------------------------------------------------------

def test_mono_mul_coefficients_are_int():
    a = alg(6, 3)
    monos = a.basis(3)
    for m1 in monos:
        for m2 in monos:
            prod = a.mono_mul(m1, m2)
            assert prod and all(type(c) is int for c in prod.values())


def _rmul_gen_fraction(m, g, kappa):
    """(F^a H^b E^c) g over the rationals, the F-rule coefficient
    (kappa/2) c (c-1) taken by division."""
    a, b, c = m
    k = Fraction(kappa)
    if g == E:
        return {(a, b, c + 1): Fraction(1)}
    out: dict = {}
    if g == H:
        add_term(out, (a, b + 1, c), Fraction(1))
        add_term(out, (a, b, c), -c * k)
        return out
    for j in range(b + 1):
        add_term(out, (a + 1, j, c), comb(b, j) * (-k) ** (b - j))
    add_term(out, (a, b + 1, c - 1), Fraction(c))
    add_term(out, (a, b, c - 1), -k / 2 * c * (c - 1))
    return out


def _check_integer_rule(a, kappa):
    for m in a.basis(a.cap - 1):
        for g in GEN_ORDER:
            got = a._rmul_gen(m, g)
            assert got == _rmul_gen_fraction(m, g, kappa), (m, g)
            assert all(type(c) is int for c in got.values())
    assert check_relations(a)
    assert check_associativity(a, a.cap)


@pytest.mark.parametrize("kappa", [1, 3])
def test_integer_f_rule_with_odd_kappa(kappa):
    # RootDatum refuses odd self-pairings, so the window's kappa is set
    # directly; c (c-1) is even, so kappa c (c-1) // 2 is still exact.
    a = TruncatedUg(A1, 5, 2)
    a.kappa = kappa
    _check_integer_rule(a, kappa)


def test_integer_f_rule_on_a_preset_with_kappa_four(tmp_path, monkeypatch):
    (tmp_path / "K4.json").write_text(
        '{"name": "K4", "rank": 1, "pairing": [[4]], '
        '"simple_roots": [[2]], "coroots": [[1]]}')
    monkeypatch.setenv(PRESET_ENV, str(tmp_path))
    a = TruncatedUg(load_datum("K4"), 5, 2)
    assert a.kappa == 4 and type(a.kappa) is int
    _check_integer_rule(a, 4)


def test_window_solve_returns_int_when_integral_else_fraction():
    # 2x = 1 on integer rows is exact 1/2, never the float 0.5
    sol = deform._window_solve([([{UNIT: 2}], {UNIT: 1})], 1, 0,
                               "unsolvable", None)
    assert sol == [Fraction(1, 2)] and type(sol[0]) is Fraction
    sol = deform._window_solve([([{UNIT: 2}, {E: 3}], {UNIT: 4, E: 3})], 2,
                               1, "unsolvable", None)
    assert sol == [2, 1] and all(type(s) is int for s in sol)
    with pytest.raises(ObstructionError):
        deform._window_solve([([{UNIT: 2}], {E: 1})], 1, 1,
                             "unsolvable", 4)


@pytest.mark.parametrize("lin, want, far, within", [
    # a lin element reaches (1, 1, 0); with max_degree 2 it is solved
    ([{UNIT: 1}, {E: 1, (1, 1, 0): 2}], {UNIT: 1}, (1, 1, 0), [1, 0]),
    # the right-hand side reaches (0, 2, 0), which no unknown reaches
    ([{UNIT: 1}, {E: 1}], {UNIT: 1, (0, 2, 0): 3}, (0, 2, 0), None),
])
def test_window_solve_refuses_a_monomial_above_max_degree(lin, want, far,
                                                          within):
    eqs = [([{H: 1}], {H: 1}), (lin, want)]
    with pytest.raises(CapError, match=re.escape(
            f"element reaches monomial {far} outside the window")):
        deform._window_solve(eqs, 2, 1, "unsolvable", None)
    if within is None:
        with pytest.raises(ObstructionError):
            deform._window_solve(eqs, 2, 2, "unsolvable", None)
    else:
        assert deform._window_solve(eqs, 2, 2, "unsolvable", None) == within


def _reinserted(el: dict) -> dict:
    """`el` with its entries inserted in reverse order."""
    return dict(reversed(el.items()))


def test_window_solve_ignores_insertion_order():
    # rows are neither merged nor sorted, so building each equation's dicts
    # in another order hands linalg.solve its rows in another order; the
    # solution, and the int or Fraction type of each coefficient, stay
    a = alg(6, 3)
    f = differential0(a, {(1, 1, 1): 3, F: -2, (0, 2, 0): 5})
    cobound = [([a.commutator({g: 1}, {m: 1}) for m in a.monos], f[g])
               for g in GEN_ORDER]
    rng = random.Random(7)
    monos = a.basis(1)
    systems = [(cobound, len(a.monos), 3)]
    for _ in range(40):
        # integer rows, often fewer than unknowns; a right-hand side at a
        # rational point, or random
        n = rng.randint(1, 6)
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        eqs = []
        for _ in range(rng.randint(1, 3)):
            lin = [{m: rng.randint(-3, 3) or 1
                    for m in rng.sample(monos, rng.randint(0, 3))}
                   for _ in range(n)]
            want = {}
            if rng.random() < 0.8:
                for xi, el in zip(x, lin):
                    for m, c in el.items():
                        add_term(want, m, xi * c)
            else:
                want = {m: rng.randint(-3, 3) or 1
                        for m in rng.sample(monos, rng.randint(0, 2))}
            eqs.append((lin, want))
        systems.append((eqs, n, 1))
    fractional = obstructed = 0
    for eqs, n, bound in systems:
        flipped = [([_reinserted(el) for el in lin], _reinserted(want))
                   for lin, want in reversed(eqs)]
        try:
            sol = deform._window_solve(eqs, n, bound, "unsolvable", None)
        except ObstructionError:
            obstructed += 1
            with pytest.raises(ObstructionError):
                deform._window_solve(flipped, n, bound, "unsolvable", None)
            continue
        got = deform._window_solve(flipped, n, bound, "unsolvable", None)
        assert got == sol
        assert [type(s) for s in got] == [type(s) for s in sol]
        fractional += any(type(s) is Fraction for s in sol)
    # both types and both outcomes are reached
    assert fractional and obstructed and len(systems) - obstructed > fractional


@pytest.mark.parametrize("upto", [3, 4, 5])
@pytest.mark.parametrize("plant", range(len(BENCH_PLANTS)))
def test_trivializer_stays_on_int(plant, upto, monkeypatch):
    # The plants with int coefficients, as the CLI builds them: every solved
    # step, every residual table and every returned gauge column is int.
    a = alg(6, 3)
    images = {g: {m: int(c) for m, c in img.items()}
              for g, img in BENCH_PLANTS[plant].items()}
    mu = plant_deformation(a, derivation_gauge(a, images), upto)
    solve_order = deform._solve_gauge_order
    betas, coeffs = [], []

    def record_solve(*args):
        betas.append(solve_order(*args))
        coeffs.extend(c for el in betas[-1].values() for c in el.values())
        return betas[-1]

    def record_residual(*args):
        table = _residual(*args)
        coeffs.extend(c for el in table.values() for c in el.values())
        return table

    monkeypatch.setattr(deform, "_solve_gauge_order", record_solve)
    monkeypatch.setattr(deform, "_residual", record_residual)
    V, _ = mult_trivialize(a, mu, upto)
    assert betas or not any(mu[1:])
    coeffs.extend(c for v_k in V for el in v_k.values()
                  for c in el.values())
    assert coeffs and all(type(c) is int for c in coeffs)


# ---------------------------------------------------------------------------
# the series core against per-order loops, and the solver's own identities
# ---------------------------------------------------------------------------

def _ref_compose_map_series(a, x, y, upto):
    """(x after y) column by column, each order summed over i + j = n."""
    monos = a.basis(a.window)
    out = [identity_columns(a)] + [{} for _ in range(upto)]
    for n in range(1, upto + 1):
        for m in monos:
            acc: dict = {}
            for i in range(n + 1):
                mid = y[n - i].get(m, {}) if n - i < len(y) else {}
                if mid:
                    acc = combine(acc, _ref_apply(x, i, mid))
            if acc:
                out[n][m] = acc
    return out


def _ref_map_series_inverse(a, v, upto):
    """inv_n(m) = -sum_{k>=1} v_k(inv_{n-k}(m)), column by column."""
    monos = a.basis(a.window)
    inv = [identity_columns(a)] + [{} for _ in range(upto)]
    for n in range(1, upto + 1):
        for m in monos:
            acc: dict = {}
            for k in range(1, n + 1):
                src = inv[n - k].get(m, {})
                if src:
                    acc = combine(acc, _ref_apply(v, k, src), -1)
            if acc:
                inv[n][m] = acc
    return inv


def _gauge_series(a, upto, shift):
    """Identity plus a derivation gauge of a benchmark plant at every
    order, the plants rotating with the order."""
    gauges = [derivation_gauge(a, p) for p in BENCH_PLANTS]
    return [identity_columns(a)] + [gauges[(k + shift) % len(gauges)]
                                    for k in range(upto)]


@pytest.mark.parametrize("upto", [1, 2, 3, 4, 5])
def test_map_series_core_matches_per_order_loops(upto):
    a = alg(6, 3)
    v, w = _gauge_series(a, upto, 0), _gauge_series(a, upto, 1)
    unit = [identity_columns(a)] + [{} for _ in range(upto)]
    assert _series_mul(_compose, v, w, upto) \
        == _ref_compose_map_series(a, v, w, upto)
    vinv = _ref_map_series_inverse(a, v, upto)
    assert _series_mul(_compose, v, vinv, upto) == unit
    assert _series_mul(_compose, vinv, v, upto) == unit


def _gauge_identity_holds(a, f_n, b):
    """f_n(x, y) == x b(y) - b(xy) + b(x) y on every window pair, with the
    products taken by TruncatedUg.multiply."""
    for x, y in a.pairs:
        rhs = a.multiply({x: ONE}, b.get(y, {}))
        for m, c in a.mono_mul(x, y).items():
            rhs = combine(rhs, {mm: c * cc for mm, cc in b.get(m, {}).items()},
                          -1)
        rhs = combine(rhs, a.multiply(b.get(x, {}), {y: ONE}))
        if f_n.get((x, y), {}) != rhs:
            return False
    return True


@pytest.mark.parametrize("plant", range(len(BENCH_PLANTS)))
def test_every_gauge_step_solves_its_coboundary_equation(plant, monkeypatch):
    a = alg(6, 3)
    solved = []
    solve_order = deform._solve_gauge_order

    def record(algebra, f_n, order, *tables):
        beta = solve_order(algebra, f_n, order, *tables)
        solved.append((f_n, beta))
        return beta

    monkeypatch.setattr(deform, "_solve_gauge_order", record)
    mu = plant_deformation(a, derivation_gauge(a, BENCH_PLANTS[plant]), 3)
    _, transcript = mult_trivialize(a, mu, 3)
    assert len(solved) == sum(t["defect"] == "solved" for t in transcript)
    assert solved or not any(mu[1:])
    for f_n, beta in solved:
        assert _gauge_identity_holds(a, f_n, beta)


@pytest.mark.parametrize("plant", range(len(BENCH_PLANTS)))
def test_trivialization_residuals_empty_on_solver_output(plant):
    a = alg(6, 3)
    mu = plant_deformation(a, derivation_gauge(a, BENCH_PLANTS[plant]), 3)
    V, _ = mult_trivialize(a, mu, 3)
    assert trivialization_residuals(a, mu, V, 3) == []
    assert _transport_identity_holds(a, mu, V, 3)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_trivialization_residuals_catch_one_perturbed_column(order):
    a = alg(6, 3)
    mu = plant_deformation(a, derivation_gauge(a, {E: {H: ONE}}), 3)
    V, _ = mult_trivialize(a, mu, 3)
    bad_v = [dict(v_k) for v_k in V]
    bad_v[order][F] = combine(bad_v[order].get(F, {}), {H: ONE})
    bad = trivialization_residuals(a, mu, bad_v, 3)
    assert bad and min(n for n, _ in bad) == order
    assert all(n >= order for n, _ in bad)
    assert not _transport_identity_holds(a, mu, bad_v, 3)


def test_derivation_gauge_leibniz_extension():
    a = alg(4, 2)
    gauge = derivation_gauge(a, {E: {H: ONE}})
    # b(1) = 0, b(E) = H, b(E^2) = E b(E) + b(E) E = EH + HE = 2HE - 2E
    assert gauge.get(UNIT, {}) == {}
    assert gauge[E] == {H: ONE}
    assert gauge[(0, 0, 2)] == {(0, 1, 1): Fraction(2), E: Fraction(-2)}


def test_window_pairs_degree_bound():
    a = alg(6, 3)
    assert a.monos == a.basis(3)
    assert "pairs" not in vars(a)  # built on first use only
    pairs = a.pairs
    assert pairs is a.pairs
    assert pairs == [(m1, m2) for m1 in a.monos for m2 in a.monos
                     if sum(m1) + sum(m2) <= 3]
    assert (UNIT, UNIT) in pairs


# ---------------------------------------------------------------------------
# the gauge solve on generator pairs, and the prefix-memoised product
# ---------------------------------------------------------------------------

# the plants of the benchmark's trivialize jobs
TRIVIALIZE_PLANTS = [["--plant", "E=H"], ["--plant", "H=E"], ["--plant", "F=0"],
                     ["--plant", "E=H", "--plant", "F=H"]]


@pytest.mark.parametrize("order", [3, 4, 5])
@pytest.mark.parametrize("plant", TRIVIALIZE_PLANTS, ids=" ".join)
@pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
def test_gauge_solve_matches_the_all_pairs_system(window, plant, order,
                                                  monkeypatch):
    # the benchmark's trivialize jobs (window 3) and the same jobs at
    # windows 1, 2, 4 and 5: at every solved order the generator pairs
    # give the beta that the equation on every window pair gives
    steps = []
    solve_order = deform._solve_gauge_order

    def record(algebra, f_n, n):
        beta = solve_order(algebra, f_n, n)
        steps.append((algebra, f_n, beta))
        return beta

    monkeypatch.setattr(deform, "_solve_gauge_order", record)
    argv = ["trivialize", "--cap", str(2 * window), "--window", str(window),
            "--order", str(order), *plant]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    result = json.loads(out.getvalue())["result"]
    transcript = result["transcript"]
    assert len(steps) == sum(t["defect"] == "solved" for t in transcript)
    if window == 1:
        # no generator pair is a window pair and a planted gauge moves no
        # product of degree <= 1: the report is the identity gauge with
        # every order zero
        assert steps == [] and result["planted_order1_terms"] == 0
        assert transcript == [{"order": n, "defect": "zero", "beta": {}}
                              for n in range(1, order + 1)]
        assert result["gauge"] == {
            str(m): [{str(m): "1"}] + [{}] * order
            for m in sorted(alg(2, 1).monos)}
    assert steps or plant == ["--plant", "F=0"] or window == 1
    for algebra, f_n, beta in steps:
        assert beta == all_pairs_gauge_solve(algebra, f_n)


def _matches_all_pairs(a, f):
    """"solved" or "obstructed", once the gauge step on the order-1 table f
    has ended as the all-pairs system ends, with the same beta if solved."""
    want = all_pairs_gauge_solve(a, f)
    if want is None:
        with pytest.raises(ObstructionError):
            deform._solve_gauge_order(a, f, 1)
        return "obstructed"
    assert deform._solve_gauge_order(a, f, 1) == want
    return "solved"


def test_gauge_solve_matches_the_all_pairs_system_on_unit_cocycles():
    # every order-1 table with one entry, a monomial of at most the pair's
    # degree on one window pair, that is a cocycle at window 2: solved on
    # the generator pairs exactly when on every window pair, to the same
    # beta
    a = alg(4, 2)
    seen = {"solved": 0, "obstructed": 0}
    for x, y in a.pairs:
        for m in a.basis(sum(x) + sum(y)):
            f = {(x, y): {m: 1}}
            if deform._cocycle_defect(a, f) is None:
                seen[_matches_all_pairs(a, f)] += 1
    assert seen == {"solved": 42, "obstructed": 48}


@pytest.mark.parametrize("window, expected", [
    (3, {"solved": 24, "obstructed": 16}),
    (4, {"solved": 16, "obstructed": 24}),
])
def test_gauge_solve_matches_the_all_pairs_system_on_degree_two_coboundaries(
        window, expected):
    # f = x b(y) - b(xy) + b(x) y for b the Leibniz extension of generator
    # images of degree 2: ad(u) for a drawn u of degree 2, a derivation
    # that adds nothing to f, plus drawn images of degree <= 1 and, in
    # about half the draws, one more monomial of degree 2.  Such an f is a
    # cocycle, solved on the generator pairs exactly when on every window
    # pair, to the same beta
    a = alg(2 * window, window)
    rng = random.Random(window)
    top = [m for m in a.basis(2) if sum(m) == 2]
    seen = {"solved": 0, "obstructed": 0}
    while sum(seen.values()) < 40:
        u = {m: c for m in top if (c := rng.choice((-1, 0, 1)))}
        images = {g: combine(a.commutator({g: 1}, u),
                             {m: c for m in a.basis(1)
                              if (c := rng.choice((-1, 0, 1)))})
                  for g in GEN_ORDER}
        if rng.random() < 0.5:
            g = rng.choice(GEN_ORDER)
            images[g] = combine(images[g],
                                {rng.choice(top): rng.choice((-1, 1))})
        if max(el_degree(im) for im in images.values()) != 2:
            continue
        b = derivation_gauge(a, images)
        f = {(x, y): d for x, y in a.pairs if (d := gauge_defect(a, b, x, y))}
        assert deform._cocycle_defect(a, f) is None
        seen[_matches_all_pairs(a, f)] += 1
    assert seen == expected


def test_gauge_rows_are_the_generator_pairs_off_the_pbw_basis(monkeypatch):
    # the gauge step solves b(1) = f(1, 1) and one equation per generator
    # pair (g, h) whose product g h is not the PBW monomial with the
    # exponents of g and h added, one row per monomial reached: 13 rows
    # over the 13 unknowns at window 3
    a = alg(6, 3)
    off_basis = [(g, h) for g in GEN_ORDER for h in GEN_ORDER
                 if a.mono_mul(g, h) != {tuple(map(sum, zip(g, h))): 1}]
    assert off_basis == list(cochain_differential(a, {}))
    systems = []

    def record(rows, rhs, n, one):
        systems.append((len(rows), n))
        return solve(rows, rhs, n, one)

    monkeypatch.setattr(deform, "solve", record)
    argv = ["trivialize", "--cap", "6", "--window", "3", "--order", "3",
            "--plant", "E=H"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert systems == [(13, 13)]


@pytest.mark.parametrize("window", [3, 4])
@pytest.mark.parametrize("pair, extra, first", [
    ((F, E), {UNIT: ONE}, (E, F, E)),
    ((E, E), {H: ONE}, (E, E, E)),
    (((0, 1, 1), F), {H: ONE}, (E, H, F)),
], ids=["F-E", "E-E", "HE-F"])
def test_non_cocycle_off_the_gauge_rows_still_names_its_triple(
        window, pair, extra, first):
    # perturbations on pairs that are no gauge row, no generator pair g
    # before h in GEN_ORDER: the run is not certified, and the scan that
    # follows covers every window triple, not only the gauge rows,
    # so the input is refused with its first failing triple all the same
    a = alg(2 * window, window)
    assert pair not in cochain_differential(a, {})
    for order in (1, 2):
        mu = _perturbed_plant(a, order, pair, extra)
        with pytest.raises(ConfigError) as err:
            mult_trivialize(a, mu, order)
        assert str(err.value) == (
            f"deformed multiplication is not associative at order {order} "
            f"on {first}")


@pytest.mark.parametrize("cap", range(2, 9))
@pytest.mark.parametrize("longest_first", [False, True])
def test_prefix_memoised_mono_mul_matches_the_letter_chain(cap, longest_first):
    # every monomial pair within the cap, on a cold algebra, filled from
    # the shortest products up or from the longest down; equal as dicts and
    # in key order, which the reports print
    a = TruncatedUg(A1, cap, 1)
    monos = a.basis(cap)
    pairs = [(m1, m2) for m1 in monos for m2 in monos
             if sum(m1) + sum(m2) <= cap]
    for m1, m2 in reversed(pairs) if longest_first else pairs:
        want = chain_mono_mul(a, m1, m2)
        assert list(a.mono_mul(m1, m2).items()) == list(want.items())


def test_multiply_past_cap_raises_with_a_warm_cache():
    a = alg(6, 3)
    e4, e3 = (0, 0, 4), (0, 0, 3)
    # warm every product within the cap, the prefixes of E^4 E^3 among them
    assert check_associativity(a, a.cap)
    assert a.mono_mul(e4, (0, 0, 2)) == {(0, 0, 6): 1}
    for x, y in [({e4: 1}, {e3: 1}), ({e3: 1, UNIT: 1}, {UNIT: 2, e4: 1}),
                 ({(2, 2, 0): 1}, {(1, 1, 1): 1, (0, 2, 1): 1})]:
        with pytest.raises(CapError, match="exceeds the cap 6"):
            a.multiply(x, y)
    assert all(sum(m1) + sum(m2) <= a.cap for m1, m2 in a._mono_cache)
