"""Radius admissibility, the R-matrix valuation bound, and convergence
certificates, pinned to hand-computed cases and a brute-force reverifier."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uqbench.errors import ConfigError
from uqbench.norms import (ConvergenceCertificate, RadiusParams, admissible,
                           coaction_convergence, coaction_term_valuation,
                           reverify_certificate, rmatrix_condition)
from uqbench.rootdata import load_datum
from uqbench.scalars import PadicParams, vp_factorial

A1 = load_datum("A1")


def P(p, vh):
    return PadicParams(p, Fraction(vh))


def R(r, s):
    return RadiusParams(Fraction(r), Fraction(s))


def test_radius_params_product():
    assert R(1, 0).product_exp == Fraction(1)
    assert R("1/2", "1/3").product_exp == Fraction(5, 6)


def test_admissible_worked_cases():
    # v(q - q^-1) = 1 at (5, 1): r s must contribute at least p^1
    assert admissible(A1, P(5, 1), R(1, 0)) is True
    assert admissible(A1, P(5, 1), R(0, 0)) is False
    assert admissible(A1, P(5, 1), R(100, 100)) is True


def test_admissible_boundary_is_exactly_met():
    # equality counts as admissible: -v + r + s = 0
    assert admissible(A1, P(5, 1), R("1/2", "1/2")) is True
    assert admissible(A1, P(5, 1), R("1/2", "1/4")) is False


def test_admissible_monotone_in_radius_sum():
    prev = None
    for k in range(-2, 4):
        cur = admissible(A1, P(5, 1), R(k, 0))
        if prev is True:
            assert cur is True
        prev = cur


def test_admissible_rank_two_split_thresholds():
    # q_i - q_i^-1 = 2 d_i hbar + higher order, so v = v_p(2 d_i) + vh.
    # G2 at p = 3: the triple-laced root picks up v_3(6) = 1 on top of vh,
    # the short root does not, so the thresholds differ by one.
    datum = load_datum("G2")
    assert admissible(datum, P(3, 1), R(2, 0)) is True
    assert admissible(datum, P(3, 1), R(1, 0)) is False
    # B2 at p = 5: v_5(2 d_i) = 0 for both roots, single threshold vh = 1
    b2 = load_datum("B2")
    assert admissible(b2, P(5, 1), R(1, 0)) is True
    assert admissible(b2, P(5, 1), R("1/2", 0)) is False


def test_rmatrix_condition_worked_cases():
    # rank 1: inverse Cartan entry 1/2, v_5(1/2) = 0, so the test is vh > 1/4
    assert rmatrix_condition(A1, P(5, 1)) is True
    assert rmatrix_condition(A1, P(5, "1/5")) is False


def test_rmatrix_condition_boundary_strict():
    assert rmatrix_condition(A1, P(5, "1/4")) is False
    assert rmatrix_condition(A1, P(5, "26/100")) is True


def test_rmatrix_condition_p2_adjusts():
    # at p = 3 the inverse entry 1/2 still has valuation 0; bound is 1/2
    assert rmatrix_condition(A1, P(3, 1)) is True
    assert rmatrix_condition(A1, P(3, "1/2")) is False


def test_coaction_term_valuation_formula():
    params = P(5, 1)
    for k in range(12):
        want = k * Fraction(1) - vp_factorial(k, 5)
        assert coaction_term_valuation(k, params) == want


def test_coaction_term_sample_value():
    # k = 5 at (5, 1): 5 - v(5!) = 5 - 1 = 4
    assert coaction_term_valuation(5, P(5, 1)) == Fraction(4)


def test_convergence_certificate_slope():
    cert = coaction_convergence(P(5, 1), R(0, 0))
    assert cert.slope == Fraction(3, 4)
    cert = coaction_convergence(P(7, 1), R(0, 0))
    assert cert.slope == Fraction(5, 6)
    cert = coaction_convergence(P(3, 2), R(0, 0))
    assert cert.slope == Fraction(3, 2)


def test_convergence_certificate_brute_force_reverify():
    for p, vh in ((5, 1), (7, 1), (3, 2), (5, "1/3")):
        params = P(p, vh)
        cert = coaction_convergence(params, R(0, 0))
        assert cert.verified_prefix >= 30
        assert reverify_certificate(cert, params)
        for k in range(31):
            assert coaction_term_valuation(k, params) >= cert.bound_at(k), k


def test_convergence_boundary_raises():
    with pytest.raises(ConfigError) as err:
        coaction_convergence(P(5, "1/4"), R(0, 0))
    assert "slope" in str(err.value)
    with pytest.raises(ConfigError):
        coaction_convergence(P(5, "1/8"), R(0, 0))


def test_reverify_rejects_inflated_slope():
    params = P(5, 1)
    cert = coaction_convergence(params, R(0, 0))
    fake = ConvergenceCertificate(slope=cert.slope + 2, offset=cert.offset,
                                  verified_prefix=cert.verified_prefix)
    assert not reverify_certificate(fake, params)


def test_certificate_serialization_round_trip():
    cert = coaction_convergence(P(5, 1), R(0, 0))
    d = cert.to_dict()
    assert d["slope"] == str(cert.slope)
    assert int(d["verified_prefix"]) == cert.verified_prefix


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 7, 11]),
       st.fractions(min_value=Fraction(1, 2), max_value=Fraction(3)))
def test_certificate_bound_under_term_valuations(p, vh):
    assume(vh > Fraction(1, p - 1))
    params = PadicParams(p, vh)
    cert = coaction_convergence(params, R(0, 0))
    for k in range(20):
        assert coaction_term_valuation(k, params) >= cert.bound_at(k)
