"""Expansions and identities of the Gamma0(2) modular objects."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vvmf2 import forms, qseries
from vvmf2.cli import main
from vvmf2.errors import NotAFormError
from vvmf2.forms import (
    eisenstein_E2,
    eisenstein_E4,
    eta_pow,
    eta_quotient,
    eta_tail_coeffs,
    form_monomial,
    g_parity_form,
    g_slash_S,
    hauptmodul,
    identity_suite,
    jacobi_theta,
    modular_D,
    monomial_basis,
    monomial_coordinates,
    sigma,
    theta4_and_E,
    weight2_G,
)
from vvmf2.qseries import PureQSeries, equal_through
from vvmf2.quadratic import QuadNum


def divisor_sum(n, power=1):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def test_sigma_against_enumeration():
    for n in range(1, 60):
        assert sigma(n) == divisor_sum(n)
        assert sigma(n, 3) == divisor_sum(n, 3)


def test_E2_coefficients():
    s = eisenstein_E2(6)
    assert s.coeff(0) == 1
    assert s.coeff(1) == -24
    assert [s.coeff(n) for n in (2, 3, 4)] == [-72, -96, -168]


def test_E4_coefficients():
    s = eisenstein_E4(4)
    assert s.coeff(1) == 240
    assert s.coeff(2) == 2160
    assert s.coeff(3) == 6720


def test_G_coefficients():
    s = weight2_G(5)
    assert [s.coeff(n) for n in range(4)] == [1, 24, 24, 96]
    assert s.coeff(4) == 24  # 24 sigma(4) - 48 sigma(2)


def test_G_parity_form_agreement_deep():
    assert equal_through(weight2_G(500), g_parity_form(500), 500)


def test_eta_powers():
    eta2 = eta_pow(2, 8)
    assert eta2.lead == Fraction(1, 12)
    assert eta2.coeff(Fraction(1, 12)) == 1
    assert eta2.coeff(Fraction(13, 12)) == -2
    assert eta_pow(0, 5).coeff(0) == 1
    prod = eta_pow(-2, 8) * eta2
    assert equal_through(prod, PureQSeries.constant(1, 8), 7)
    with pytest.raises(ValueError):
        eta_pow(3, 5)
    tail = eta_tail_coeffs(2, 6)
    assert tail[0] == 1 and all(c.denominator == 1 for c in tail)


def _log_derivative_holds(P, a, b, N):
    # theta log eta(tau) = E2(q)/24 and theta log eta(2 tau) = E2(q^2)/12: no eta product here
    rhs = (a * eisenstein_E2(N) + 2 * b * eisenstein_E2(N).rescale(2)) * P
    return equal_through(24 * P.theta(), rhs, P.lead + N)


@pytest.mark.parametrize(
    "a, b", [(-24, 24), (-4, 8), (8, -4), (24, -24), (2, 0), (-2, 0), (12, 0), (0, 0)]
)
def test_eta_quotients_solve_their_logarithmic_derivative(a, b):
    # 24 theta P = (a E2(q) + 2b E2(q^2)) P and the leading 1 fix P = eta(tau)^a eta(2 tau)^b
    N = 40
    P = eta_quotient(a, b, N)
    assert P.lead == Fraction(a + 2 * b, 24) and P.coeffs[0] == 1
    assert P.horizon == P.lead + N + 1
    assert _log_derivative_holds(P, a, b, N)


@pytest.mark.parametrize("j", [1, 17, 40])
def test_the_logarithmic_derivative_sees_one_perturbed_coefficient(j):
    # coefficient j moves 24 theta P by 24 (lead + j) there, the right side by a + 2b only
    P = eta_quotient(-24, 24, 40)
    coeffs = list(P.coeffs)
    coeffs[j] += 1
    assert not _log_derivative_holds(PureQSeries.make(P.lead, coeffs), -24, 24, 40)


def test_hauptmodul_expansion():
    K, J = hauptmodul(6)
    assert K.lead == -1 and K.coeff(-1) == 1
    assert K.coeff(0) == 40
    assert K.coeff(1) == 276
    assert J.coeff(-1) == Fraction(1, 64)
    # multiply-back oracle, independent of the division that produced K
    e4 = eisenstein_E4(8)
    g = weight2_G(8)
    assert equal_through(K * (e4 - g * g), 192 * (g * g), 6)


def test_modular_D_examples():
    for k in (-2, 0, 1, 6):
        eta2k = eta_pow(2 * k, 12)
        res = modular_D(k, eta2k)
        assert res.is_zero
    g = weight2_G(12)
    e4 = eisenstein_E4(12)
    d2g = modular_D(2, g)
    assert equal_through(d2g, Fraction(1, 6) * e4 - Fraction(1, 3) * (g * g), 10)
    # the sign-flipped variant is genuinely different
    assert not equal_through(d2g, Fraction(-1, 6) * e4 - Fraction(1, 3) * (g * g), 10)
    assert modular_D(0, PureQSeries.constant(1, 5)).is_zero


def test_product_rule_for_modular_D():
    g = weight2_G(10)
    e4 = eisenstein_E4(10)
    lhs = modular_D(6, g * e4)
    rhs = g * modular_D(4, e4) + e4 * modular_D(2, g)
    assert equal_through(lhs, rhs, 9)


IDENTITY_CHECKS = {
    "theta-J", "theta-J-weight6", "theta-G", "D2-G", "theta2-J", "E4-J-ratio",
    "192-divisibility", "Kq-integral-unit", "G-parity-form", "eta-kernel-k=-2",
    "eta-kernel-k=0", "eta-kernel-k=1", "eta-kernel-k=6", "theta-eta",
    "G-theta4-16E", "four-squares-counts", "G-slash-S-constant",
}


def test_identity_suite_passes():
    report = identity_suite(50)
    failed = [c.name for c in report.checks if not c.passed]
    assert not failed, failed
    assert report.all_passed
    assert {c.name for c in report.checks} == IDENTITY_CHECKS


def test_identity_suite_fails_on_a_wrong_theta4_coefficient(monkeypatch):
    real = forms.theta4_and_E

    def wrong_theta4(N):
        th4, curly_e = real(N)
        coeffs = list(th4.coeffs)
        coeffs[7] += 1  # r4(7) = 64
        return PureQSeries(th4.lead, th4.step, tuple(coeffs)), curly_e

    monkeypatch.setattr(forms, "theta4_and_E", wrong_theta4)
    failed = {c.name for c in identity_suite(20).checks if not c.passed}
    assert failed == {"four-squares-counts", "G-theta4-16E"}


@pytest.mark.parametrize("core", ["_lincomb", "_iscale", "_iweigh"])
def test_a_faulty_linear_core_fails_the_identity_suite(monkeypatch, capsys, core):
    # the integer cores of sums, scalar multiples and theta, each with one entry off by one
    real = getattr(qseries, core)

    def off_by_one(*args):
        out = real(*args)
        if len(out) > 3:
            out[3] += 1
        return out

    monkeypatch.setattr(qseries, core, off_by_one)
    forms.clear_cache()
    try:
        assert not identity_suite(30).all_passed
        assert main(["verify-identities", "--order", "30"]) == 1
        assert '"all_passed": false' in capsys.readouterr().out
    finally:
        forms.clear_cache()


def test_identity_suite_builds_each_named_series_once(monkeypatch):
    # every cached series: the named ones, G^2, the Euler product and each eta quotient
    builds, real = [], forms._cached

    def counted(name, count, builder):
        def build(n):
            builds.append(name)
            return builder(n)

        return real(name, count, build)

    monkeypatch.setattr(forms, "_cached", counted)
    forms.clear_cache()
    try:
        assert identity_suite(30).all_passed
    finally:
        forms.clear_cache()
    assert sorted(builds) == [
        "E2", "E4", "G", "G^2E4^0", "eta^(-4,0)", "eta^(-4,8)", "eta^(0,0)", "eta^(12,0)",
        "eta^(2,0)", "eta^(8,-4)", "euler", "hauptK", "theta",
    ]


def test_identity_suite_inverts_four_series_and_no_long_product_runs_schoolbook(
    monkeypatch, cold_cache
):
    # E4 - G^2 for the Hauptmodul and the Euler products of eta^-4, eta^-4(t) eta^8(2t) and
    # eta^8(t) eta^-4(2t); only the 14-term products of g_slash_S are short enough for schoolbook
    inverses, columns = [], []
    real_inverse, real_iconv = qseries._inverse, qseries._iconv

    def inverse(den, P):
        inverses.append(len(P))
        return real_inverse(den, P)

    def iconv(a, cols):
        columns.append(len(cols))
        return real_iconv(a, cols)

    monkeypatch.setattr(qseries, "_inverse", inverse)
    monkeypatch.setattr(qseries, "_iconv", iconv)
    assert identity_suite(200).all_passed
    assert len(inverses) == 4
    assert columns and max(columns) < qseries._KRONECKER_MIN_LEN


def _theta2_J_divided(N):
    """theta2-J in its first form: divided by 6J through the inverse of 6J, through q^N."""
    margin = N + 8
    _, J = forms.hauptmodul(margin)
    e2, g2 = eisenstein_E2(margin), form_monomial(2, 0, margin)
    one, thJ = PureQSeries.constant(1, margin + 2), J.theta()
    rhs = g2 * (one - J) * (3 * one - 7 * J) * (6 * J).inv() + Fraction(1, 6) * (e2 * thJ)
    return equal_through(thJ.theta(), rhs, N)


@pytest.mark.parametrize("N", [30, 200])
def test_theta2_J_times_6J_reads_as_deep_as_its_divided_form(monkeypatch, N):
    # K moved by 1 at one q^k, from its leading q^-1 to two past q^N: both forms fail
    # through q^N and both pass beyond it
    K, _ = hauptmodul(N + 8)
    den, (xs,), _ = K.integer_form()
    for k in range(-1, N + 3):
        moved = list(xs)
        moved[k + 1] += den
        Kk = PureQSeries.from_integers(K.lead, K.step, den, [moved], None)
        monkeypatch.setattr(forms, "hauptmodul", lambda n, Kk=Kk: (Kk, Kk * Fraction(1, 64)))
        suite = next(c.passed for c in identity_suite(N).checks if c.name == "theta2-J")
        assert suite == _theta2_J_divided(N) == (k > N), k


def test_identity_suite_requires_depth():
    with pytest.raises(ValueError):
        identity_suite(5)


def four_squares_count(n):
    count = 0
    import math

    bound = math.isqrt(n)
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            rem = n - a * a - b * b
            if rem < 0:
                continue
            for c in range(-bound, bound + 1):
                rem2 = rem - c * c
                if rem2 < 0:
                    continue
                d = math.isqrt(rem2)
                if d * d == rem2:
                    count += 2 if d else 1
    return count


def test_theta4_counts_four_squares():
    th4, _ = theta4_and_E(25)
    for n in range(1, 26):
        assert th4.coeff(n) == four_squares_count(n)


def test_theta4_and_eta_quotient_identity():
    th4, curly_e = theta4_and_E(60)
    assert th4.coeff(1) == 8
    assert th4.coeff(2) == 24
    g = weight2_G(60)
    assert equal_through(g, th4 + 16 * curly_e, 60)


def test_e4_minus_g_squared_is_an_eta_quotient():
    # E4 - G^2 = 192 eta(2 tau)^16 / eta(tau)^8, both sides from unrelated code
    delta = eisenstein_E4(60) - form_monomial(2, 0, 60)
    assert delta.lead == 1 and delta.coeff(1) == 192
    assert equal_through(eta_quotient(-8, 16, 60) * 192, delta, 60)


def test_jacobi_theta_transform_inputs():
    th = jacobi_theta(10)
    assert [th.coeff(n) for n in range(5)] == [1, 2, 0, 0, 2]


def test_g_slash_S():
    s = g_slash_S(4)
    assert s.coeff(0) == Fraction(-1, 2)
    assert s.step == Fraction(1, 4)
    # theta^4(tau/4) has constant term 1; the eta quotient has lead exponent 0
    th4_quarter = jacobi_theta(20).rescale(Fraction(1, 4)) ** 4
    assert th4_quarter.coeff(0) == 1
    quotient = eta_pow(8, 20).rescale(Fraction(1, 4)) * eta_pow(-4, 12).rescale(Fraction(1, 2))
    assert quotient.lead == 0


def test_monomial_basis():
    assert monomial_basis(4) == [(2, 0), (0, 1)]
    assert monomial_basis(2) == [(1, 0)]
    assert monomial_basis(3) == []
    assert monomial_basis(-2) == []
    dims = [len(monomial_basis(k)) for k in range(0, 30, 2)]
    assert dims == sorted(dims)
    assert [len(monomial_basis(k)) for k in (0, 2, 4)] == [1, 1, 2]


def test_monomial_coordinates_examples():
    e4 = eisenstein_E4(10)
    assert monomial_coordinates(e4, 4) == {(0, 1): 1}
    g = weight2_G(10)
    combo = g * g + 2 * e4
    assert monomial_coordinates(combo, 4) == {(2, 0): 1, (0, 1): 2}
    with pytest.raises(NotAFormError):
        monomial_coordinates(eisenstein_E2(10), 2)
    with pytest.raises(NotAFormError):
        monomial_coordinates(e4, 0)


_FRACTIONS = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4)
# values of Q(sqrt 2), some with zero surd, mixed with plain fractions
_SURDS = st.sampled_from([0, 0, 1, -3])
_VALUES = st.one_of(_FRACTIONS, st.builds(QuadNum, _FRACTIONS, _SURDS, st.just(2)))


@given(
    st.lists(_VALUES, min_size=1, max_size=4),
    st.integers(min_value=0, max_value=20).map(lambda k: 2 * k),
)
@example([Fraction(3)], 2)  # r = 1: one peel, no product by K/192
@example([Fraction(-1, 2), QuadNum(1, 1, 2)], 6)  # odd k/2: G^3 and G E4
@example([Fraction(2 * n - 11, 3) for n in range(11)], 40)  # dense: all 11 monomials of weight 40
@settings(max_examples=40, deadline=None)
def test_monomial_coordinates_roundtrip(coeffs, k):
    basis = monomial_basis(k)
    if not basis:
        return
    coeffs = (coeffs * len(basis))[: len(basis)]
    combo = None
    for c, (a, b) in zip(coeffs, basis):
        term = form_monomial(a, b, len(basis) + 4) * c
        combo = term if combo is None else combo + term
    if combo.is_zero:
        return
    got = monomial_coordinates(combo, k)
    want = {ab: c for c, ab in zip(coeffs, basis) if c}
    assert {ab: c for ab, c in got.items() if c} == want
    assert list(got) == [ab for ab in basis if ab in got]


def test_the_cusp_form_of_weight_4_has_coordinates_minus_one_and_one():
    # 192 eta(2 tau)^16 / eta(tau)^8 = E4 - G^2: its constant term, the first peel, is 0
    assert monomial_coordinates(192 * eta_quotient(-8, 16, 30), 4) == {(2, 0): -1, (0, 1): 1}


@pytest.mark.parametrize("k", [8, 40, 120])
def test_one_coefficient_past_the_basis_is_not_a_form(k):
    r = len(monomial_basis(k))
    f = form_monomial(k // 2, 0, r + 4) - 3 * form_monomial(k // 2 - 2 * (r - 1), r - 1, r + 4)
    assert monomial_coordinates(f, k) == {(k // 2, 0): 1, (k // 2 - 2 * (r - 1), r - 1): -3}
    message = f"series is not in M_{k}: the solved combination differs from it"
    past = PureQSeries.make(r, [1, 0])
    off_grid = PureQSeries.make(Fraction(5, 2), [1] + [0] * 2 * r, Fraction(1, 2))
    for bump in (past, off_grid):
        with pytest.raises(NotAFormError, match=message):
            monomial_coordinates(f + bump, k)


def test_a_weight_120_map_round_trips_from_a_cold_cache(cold_cache):
    basis = monomial_basis(120)
    coeffs = [Fraction((-1) ** b * (b + 1), b % 3 + 1) for b in range(len(basis))]
    f = PureQSeries.zero(len(basis) + 2)
    for c, (a, b) in zip(coeffs, basis):
        f = f + c * form_monomial(a, b, len(basis) + 2)
    forms.clear_cache()
    assert monomial_coordinates(f, 120) == dict(zip(basis, coeffs))


@pytest.mark.parametrize("a, b", [(400, 0), (2, 398), (150, 250)])
def test_a_high_weight_monomial_builds_from_a_cold_cache(a, b, cold_cache):
    # a + b = 400 at weights 800, 1596 and 1300: one cache entry each and no
    # lower-degree entries; checked through q^2 from G = 1 + 24q + 24q^2 + ...
    # and E4 = 1 + 240q + 2160q^2 + ...
    mon = form_monomial(a, b, 6)
    g2 = 24 * a + 24**2 * a * (a - 1) // 2
    e2 = 2160 * b + 240**2 * b * (b - 1) // 2
    assert [mon.coeff(n) for n in range(3)] == [1, 24 * a + 240 * b, g2 + e2 + 24 * a * 240 * b]
    assert [name for name in forms._CACHE if name.startswith("G^")] == [f"G^{a}E4^{b}"]


def test_g_slash_S_full_series_oracle():
    # independent route: the slashed series coincides with -(1/2) G(tau/2),
    # which the theta/eta construction never references
    gs = g_slash_S(25)
    g_half = weight2_G(52).rescale(Fraction(1, 2))
    assert equal_through(gs, Fraction(-1, 2) * g_half, 25)
