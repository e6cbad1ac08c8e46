"""The minimal form: closed-form sequences against the series recursion."""

import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vvmf2 import denoms, forms, minform, qseries
from vvmf2.errors import ConsistencyError, NotAFormError, PipelineMismatch
from vvmf2.forms import (
    eisenstein_E2,
    eisenstein_E4,
    form_monomial,
    hauptmodul,
    modular_D,
    weight2_G,
)
from vvmf2.minform import (
    _solve_theta,
    combination,
    decompose,
    deriv_components,
    gauss_2f1,
    h_closed,
    h_frobenius,
    minimal_form,
    mlde_residual,
    seq_f,
    t_lists,
    tables_DC,
    weight_basis,
)
from vvmf2.params import ExponentData, params_from_exponents, seed_exponents
from vvmf2.qseries import PureQSeries, equal_through
from vvmf2.quadratic import QuadNum, pochhammer
from vvmf2.record import replace

from instance_strategy import instances
from plain_series import f_by_definition, pfaff_series_h, plain_series_h

M2 = params_from_exponents(seed_exponents("m2"))
M5 = params_from_exponents(seed_exponents("m5"))
SQRT2 = QuadNum(Fraction(0), Fraction(1), 2)
# l2 - l1 = 1/3: S != S~, and the Wronskian of F' and DF' leads at q^(1/3)
R_V3 = QuadNum(Fraction(1, 12), Fraction(1), 2)
V3 = params_from_exponents(ExponentData(0, Fraction(0), Fraction(1, 3), R_V3, R_V3.conjugate()))


# l2 = 1/5: lambda = 5 for the second component, and lattice 120
R_L120 = QuadNum(Fraction(3, 20), Fraction(1), 2)
L120 = params_from_exponents(
    ExponentData(0, Fraction(0), Fraction(1, 5), R_L120, R_L120.conjugate())
)


def sqrt2_instance(k0):
    """(l1, l2) = (0, 1/2) and r = sqrt(2) at minimal weight k0."""
    return params_from_exponents(
        ExponentData(k0, Fraction(0), Fraction(1, 2), SQRT2, -SQRT2)
    )


def _lists(pair):
    """The coefficient lists of a pair of sequence series."""
    return tuple(list(s.coeffs) for s in pair)


def indicial(params, x):
    """The indicial polynomial at infinity of the weight-zero equation."""
    return x * x + (params.a - Fraction(1, 6)) * x + (params.b + params.c)


def reference_h_frobenius(params, Kmax):
    """The Frobenius recursion term by term on Fraction, one gcd per operation."""
    e2 = eisenstein_E2(Kmax)
    e4 = eisenstein_E4(Kmax)
    g = weight2_G(Kmax)
    g2 = g * g
    count = Kmax + 1
    p = [params.a * g.coeff(j) - e2.coeff(j) / 6 for j in range(count)]
    q = [params.b * g2.coeff(j) + params.c * e4.coeff(j) for j in range(count)]

    def run(l: Fraction) -> list:
        if indicial(params, l) != 0:
            raise ConsistencyError(f"{l} is not an indicial root")
        cs = [Fraction(1)]
        for n in range(1, count):
            rhs = Fraction(0)
            for j in range(1, n + 1):
                rhs -= (p[j] * (l + n - j) + q[j]) * cs[n - j]
            den = indicial(params, l + n)
            if den == 0:
                raise ConsistencyError(f"indicial value vanishes at {l + n}")
            cs.append(rhs / den)
        return cs

    return run(params.l1), run(params.l2)


def g_by_definition(params, Kmax):
    """g as defined: (-64)^k 2F1(l1 + r, l1 + r~; 1 + l1 - l2)_k, r~ the conjugate of r."""
    a, b, c = params.l1 + params.r, params.l1 + params.r.conjugate(), 1 + params.l1 - params.l2
    return [(-64) ** k * gauss_2f1(a, b, c, k) for k in range(Kmax + 1)]


def test_gauss_2f1_basics():
    assert gauss_2f1(SQRT2, SQRT2 + 1, Fraction(1, 2), 0) == 1
    for n in range(5):
        assert gauss_2f1(Fraction(1), Fraction(1), Fraction(1), n) == 1
    with pytest.raises(ZeroDivisionError):
        gauss_2f1(Fraction(1), Fraction(1), Fraction(-2), 3)


@given(
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6),
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=4),
    st.integers(min_value=0, max_value=10),
)
@settings(max_examples=60)
def test_halving_identity(rat, surd, m):
    A = QuadNum(rat, surd, 2)
    lhs = pochhammer(A, m) * pochhammer(A + Fraction(1, 2), m)
    rhs = pochhammer(2 * A, 2 * m) / 4**m
    assert lhs == rhs


def _closed_route_series(Kmax):
    """psi, phi, z and theta psi by series algebra: E = eta(2 tau)^24 / eta(tau)^24 / q."""
    n = Kmax + 1
    E = (forms.eta_pow(24, n).rescale(2) * forms.eta_pow(-24, n)).shifted(-1)
    psi = E.theta() * E.inv()
    one = PureQSeries.constant(1, n)
    return psi, one + psi, E.shifted(1) * -64, psi.theta()


def test_tables():
    # E = 1 + 24 q + 300 q^2 + 2624 q^3 + ..., so z = -64 q - 1536 q^2 - 19200 q^3 - ...;
    # psi = 24 sum_j s_j q^j with s_j = sum_(d | j) (-1)^(j/d + 1) d: 24 q + 24 q^2 + 96 q^3 + ...
    (phi_1z, phi2, z_phi2, theta_psi_1z, psi_phi_1z, psi2_phi_1z, psi_phi2, z_psi_phi2,
     z_phi3) = tables_DC(3)
    assert phi_1z == [1, 24 + 64, 24 + 64 * 24 + 1536, 96 + 64 * 24 + 1536 * 24 + 19200]
    assert phi2 == [1, 48, 24 * 24 + 48, 2 * 96 + 2 * 24 * 24]
    assert z_phi2 == [0, -64, -64 * 48 - 1536, -64 * (24 * 24 + 48) - 1536 * 48 - 19200]
    assert theta_psi_1z == [0, 24, 48 + 64 * 24, 288 + 64 * 48 + 1536 * 24]
    assert psi_phi_1z[:3] == [0, 24, 24 + 24 * 88]
    assert psi2_phi_1z[:3] == [0, 0, 576]
    assert psi_phi2[:3] == [0, 24, 24 + 24 * 48]
    assert z_psi_phi2[:3] == [0, 0, -64 * 24]
    assert z_phi3[:3] == [0, -64, -64 * 72 - 1536]


def test_tables_match_series_powers():
    # every fixed series of the closed route against products and powers on the series kernel
    Kmax = 12
    psi, phi, z, theta_psi = _closed_route_series(Kmax)
    one_z = PureQSeries.constant(1, Kmax + 1) - z
    want = (
        one_z * phi, phi**2, z * phi**2, one_z * theta_psi, one_z * phi * psi,
        one_z * phi * psi**2, psi * phi**2, z * psi * phi**2, z * phi**3,
    )
    got = tables_DC(Kmax)
    assert len(got) == len(want)
    for table, series in zip(got, want):
        assert table == [series.coeff(s) for s in range(Kmax + 1)]


def test_the_hauptmodul_is_one_over_eps_plus_64():
    # K = 192 G^2 / (E4 - G^2) and eps = eta(2 tau)^24 / eta(tau)^24 are built by unrelated code
    N = 200
    K = hauptmodul(N)[0]
    eps = forms.eta_quotient(-24, 24, N + 1)
    assert equal_through(K, eps.inv() + PureQSeries.constant(64, N + 1), N)


@pytest.mark.parametrize("beta", [Fraction(1), Fraction(-1), Fraction(-3), Fraction(2)])
def test_e_powers_match_the_series_kernel(beta):
    # E^beta = eta(2 tau)^(24 beta) / (q eta(tau)^24)^beta = (U^2)^(12 beta) for U = prod (1 + q^n)
    Kmax = 16
    p = int(24 * beta)
    u2 = (forms.eta_pow(2, Kmax).rescale(2) * forms.eta_pow(-2, Kmax)).shifted(Fraction(-1, 12))
    got = forms.eta_quotient(-p, p, Kmax).shifted(-beta)
    assert got.horizon == Kmax + 1
    assert equal_through(got, u2 ** (p // 2), Kmax)


def _theta_by_fractions(A, B, C, n):
    """y_m = -sum_(j >= 1) T_j(m - j) y_(m-j) / T_0(m) term by term on Fraction."""
    T = lambda S, j: S[j] if j < len(S) else 0  # noqa: E731
    y = [Fraction(1)]
    for m in range(1, n + 1):
        rhs = sum(
            ((T(A, j) * (m - j) + T(B, j)) * (m - j) + T(C, j)) * y[m - j]
            for j in range(1, m + 1)
        )
        y.append(-rhs / ((T(A, 0) * m + T(B, 0)) * m + T(C, 0)))
    return y


_small = st.lists(st.integers(-50, 50), min_size=1, max_size=6)


@given(st.integers(-3, 3), st.integers(-6, 6), _small, _small, _small, st.integers(0, 9))
@example(0, 1, [0], [0], [0, -24, -24, -96], 5)  # Miller's E: A = 0, B = 1, C = -24 s
@example(1, 2, [1, 64], [2, 5], [0, 7], 9)  # two terms, as g's recurrence
@example(-1, 1, [0], [0], [0, 3, 1], 6)  # indicial values m (1 - m) vanish at m = 1
@settings(max_examples=150, deadline=None)
def test_kernel_solve_theta_matches_naive(a0, b0, A, B, C, n):
    # T_0(m) = m (a0 m + b0); the kernel refuses a vanishing one and agrees with Fractions otherwise
    A, B, C = [a0, *A[1:]], [b0, *B[1:]], [0, *C[1:]]
    if any(a0 * m + b0 == 0 for m in range(1, n + 1)):
        with pytest.raises(ConsistencyError, match="indicial value vanishes at step"):
            _solve_theta(A, B, C, n)
        return
    got = _solve_theta(A, B, C, n)
    assert got.horizon == n + 1
    assert [got.coeff(m) for m in range(n + 1)] == _theta_by_fractions(A, B, C, n)
    # the integer form is canonical: the same series from Fractions compares equal
    assert got == PureQSeries.make(0, _theta_by_fractions(A, B, C, n))


def test_kernel_solve_theta_needs_an_indicial_root():
    with pytest.raises(ConsistencyError, match="not an indicial root"):
        _solve_theta([1], [0], [1, 2], 4)


def test_perturbed_kernel_breaks_agreement(monkeypatch, cold_cache):
    real = minform._conv

    def off_by_one(a, b, n):
        out = real(a, b, n)
        if out:
            out[-1] += 1
        return out

    monkeypatch.setattr(minform, "_conv", off_by_one)
    with pytest.raises(PipelineMismatch):
        minimal_form(M2, 6, "both")


def _recording(fn, log, entry):
    def recorded(*args):
        log.append(entry)
        return fn(*args)

    return recorded


@pytest.fixture
def perturbed_series_kernel(monkeypatch, cold_cache):
    """The shared series product with the q^5 entry of every product scaled by 193.

    The fault sits in ``qseries._conv``, the one entry point, so it reaches
    products run schoolbook and by Kronecker substitution alike.  193 = 1
    (mod 192) keeps integral products integral and (E4 - G^2)/192
    integral.  The fault reaches both routes of minimal_form by different
    paths: the Frobenius route through G^2, the closed route through the
    fixed products of ``tables_DC``.  ``minform`` binds ``_conv`` when it is
    imported, so the fault is installed there too.
    """
    real = qseries._conv

    def perturbed(a, b, n):
        out = real(a, b, n)
        if len(out) > 5:
            out[5] *= 193
        return out

    paths = []  # the path each product took, as "kronecker" or "schoolbook"
    for name, path in (("_kronecker", "kronecker"), ("_iconv", "schoolbook")):
        monkeypatch.setattr(qseries, name, _recording(getattr(qseries, name), paths, path))
    for module in (qseries, minform):
        monkeypatch.setattr(module, "_conv", perturbed)
    return paths


def _fails_theta_J(order):
    report = forms.identity_suite(order)
    assert not report.all_passed
    assert not next(c for c in report.checks if c.name == "theta-J").passed


def test_perturbed_series_kernel_fails_the_identity_suite(perturbed_series_kernel):
    _fails_theta_J(20)
    assert set(perturbed_series_kernel) == {"schoolbook"}


def test_perturbed_series_kernel_fails_the_identity_suite_on_both_paths(perturbed_series_kernel):
    _fails_theta_J(200)
    assert set(perturbed_series_kernel) == {"schoolbook", "kronecker"}


def test_perturbed_series_kernel_breaks_agreement(perturbed_series_kernel):
    # the closed route's phi^2 carries the fault: phi = 1 + psi, psi = theta E / E
    phi = [1, *(24 * s for s in minform._divisor_sums(8)[1:])]
    assert tables_DC(8)[1][5] == 193 * sum(phi[i] * phi[5 - i] for i in range(6))
    with pytest.raises(PipelineMismatch):
        minimal_form(M2, 8, "both")


def test_seq_f_spot_values():
    g, gt = (s.coeffs for s in seq_f(M2, 3))
    assert g[0] == 1 and gt[0] == 1
    # m2 has l1 = 0, l2 = 1/2 and r = sqrt(2): c = 1/2 and a b = N(r) = -2
    assert g[1] == -64 * -2 / Fraction(1, 2) == 256
    # its mirror has l1 = 1/2, l2 = 0: c = 3/2 and a b = (1/2 + r)(1/2 - r) = -7/4
    assert gt[1] == -64 * Fraction(-7, 4) / Fraction(3, 2) == Fraction(224, 3)
    # eps = q + ..., E^(1/2) = 1 + 12 q + ...: h~(1) = 12 + g~(1)
    assert h_closed(M2, 1)[1].coeffs[1] == 12 + gt[1] == Fraction(260, 3)


def test_seq_f_requires_assumptions():
    # an instance outside the paper's class is refused when it is built, so seq_f never sees one
    with pytest.raises(ConsistencyError, match="quadratic field"):
        params_from_exponents(
            ExponentData(0, Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(-1, 4))
        )
    rational = QuadNum(Fraction(0), Fraction(0), 2)
    with pytest.raises(ConsistencyError, match="class: r_quadratic$"):
        params_from_exponents(ExponentData(0, Fraction(0), Fraction(1, 2), rational, rational))


def test_indicial_roots():
    for p in (M2, M5):
        assert indicial(p, p.l1) == 0
        assert indicial(p, p.l2) == 0
        assert indicial(p, p.l1 + 3) != 0


@pytest.mark.parametrize("params", [M2, M5], ids=["m2", "m5"])
def test_pipelines_agree(params):
    hc, hct = (s.coeffs for s in h_closed(params, 25))
    hf, hft = (s.coeffs for s in h_frobenius(params, 25))
    assert hc == hf
    assert hct == hft
    assert hc[1] == 256 if params is M2 else True


NAMED = {
    "m2": M2,
    "m5": M5,
    "v3": V3,
    "k0=2": sqrt2_instance(2),
    "k0=-2": sqrt2_instance(-2),
    "l2=1/5": L120,
}


@pytest.mark.parametrize("params", list(NAMED.values()), ids=list(NAMED))
def test_h_frobenius_matches_the_fraction_recursion(params):
    want_h, want_ht = reference_h_frobenius(params, 30)
    for Kmax in range(31):
        assert _lists(h_frobenius(params, Kmax)) == (want_h[: Kmax + 1], want_ht[: Kmax + 1])


@pytest.mark.parametrize("params", list(NAMED.values()), ids=list(NAMED))
def test_seq_f_matches_its_definition(params):
    want = (g_by_definition(params, 32), g_by_definition(params.mirrored(), 32))
    assert _lists(seq_f(params, 32)) == want


@pytest.mark.parametrize("params", [M2, V3], ids=["m2", "v3"])
@pytest.mark.parametrize("Kmax", [0, 1])
def test_seq_f_first_steps_match_its_definition(params, Kmax):
    # no step at all, and the first one
    for p in (params, params.mirrored()):
        assert list(seq_f(p, Kmax)[0].coeffs) == g_by_definition(p, Kmax)


@given(instances())
@settings(max_examples=30, deadline=None)
def test_generated_instances_match_the_reference_sequences(params):
    assert _lists(h_frobenius(params, 12)) == reference_h_frobenius(params, 12)
    want = (g_by_definition(params, 20), g_by_definition(params.mirrored(), 20))
    assert _lists(seq_f(params, 20)) == want
    want = tuple(pfaff_series_h(params, 12, component) for component in (0, 1))
    assert _lists(h_closed(params, 12)) == want


def test_seq_f_calls_no_series_product_or_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("seq_f reached a convolution")

    stubs = [(qseries, "_kernel"), (qseries, "_conv"), (qseries, "_iconv"), (qseries, "_toeplitz")]
    stubs.append((minform, "_conv"))
    for module, name in stubs:
        monkeypatch.setattr(module, name, refuse)
    f, f_tilde = seq_f(V3, 40)
    assert f.length == f_tilde.length == 41


def test_seq_f_refuses_an_r_off_the_trace_relation():
    # g is rational because b = 1/2 - l2 - r is l1 + r~; a pack that breaks r + r~ = 1/2 - l1 - l2
    # gives an irrational a*b and is refused
    off = replace(M2, r=M2.r + 1, A=M2.A + 1, B=M2.B + 1)
    message = "r \\+ r~ must be 1/2 - l1 - l2, but a\\*b = .* is irrational"
    with pytest.raises(ConsistencyError, match=message):
        seq_f(off, 3)


@given(instances())
@settings(max_examples=40, deadline=None)
@example(M2)
@example(M5)
@example(V3)
@example(L120)
@example(sqrt2_instance(2))
def test_ab_is_the_norm_form_of_the_product(params):
    # a b = l1 (1/2 - l2) + N(r) in rationals, as the product (l1 + r)(c - a - 1/2) in Q(sqrt M)
    for p in (params, params.mirrored()):
        c, ab = minform._hypergeometric(p)
        a = p.l1 + p.r
        product = a * (c - a - Fraction(1, 2))
        assert c == 1 + p.l1 - p.l2 and isinstance(ab, Fraction)
        assert (product.rat, product.surd) == (ab, 0)


def test_a_perturbed_ab_is_a_pipeline_mismatch(monkeypatch):
    # a*b enters the closed route's C series; a perturbed g no longer reaches that route
    real = minform._hypergeometric

    def perturbed(params):
        c, ab = real(params)
        return c, ab + 1

    monkeypatch.setattr(minform, "_hypergeometric", perturbed)
    with pytest.raises(PipelineMismatch, match="K=1:"):
        minimal_form(M2, 10, "both")


def test_a_perturbed_table_entry_is_a_pipeline_mismatch(monkeypatch):
    real_tables = minform.tables_DC

    def perturbed(Kmax):
        tables = [list(series) for series in real_tables(Kmax)]
        tables[8][7] += 1  # the q^7 coefficient of z phi^3, which enters C_7
        return tuple(tables)

    monkeypatch.setattr(minform, "tables_DC", perturbed)
    with pytest.raises(PipelineMismatch, match="K=7:"):
        minimal_form(M2, 10, "both")


def test_a_warm_table_prefix_equals_a_cold_build(cold_cache):
    cold = tables_DC(20)
    assert [len(t) for t in cold] == [21] * 9
    forms.clear_cache()
    warm = tables_DC(80)
    assert tables_DC(20) == cold == tuple(t[:21] for t in warm)
    tables_DC(20)[8][7] += 1  # a caller's edit stays in its own lists
    assert tables_DC(20) == cold


def test_a_cleared_cache_rebuilds_the_tables(monkeypatch, cold_cache):
    want = tables_DC(10)
    monkeypatch.setattr(minform, "_e_series", _perturbed_e(minform._e_series))
    assert tables_DC(10) == want  # warm: the faulty E is not read
    minimal_form(M2, 10, "both")
    forms.clear_cache()
    assert tables_DC(10) != want  # cold: the rebuild reads it
    with pytest.raises(PipelineMismatch, match="K=7:"):
        minimal_form(M2, 10, "both")


def test_g_squared_is_built_once_per_process(monkeypatch, cold_cache):
    # every G^a E4^b, G^2 among them, is a form_monomial kept in the cache of forms
    builds, real = [], forms._cached

    def counting(name, count, builder):
        def build(n):
            builds.append((name, n))
            return builder(n)

        return real(name, count, build if name.startswith("G^") else builder)

    monkeypatch.setattr(forms, "_cached", counting)
    want = _lists(h_frobenius(M2, 12))
    h_frobenius(V3, 30)
    assert _lists(h_frobenius(M2, 12)) == want  # a prefix of the longer build
    assert builds == [("G^2E4^0", 13), ("G^2E4^0", 31)]
    forms.clear_cache()
    assert _lists(h_frobenius(M2, 12)) == want and builds[2:] == [("G^2E4^0", 13)]

    # the Hauptmodul of identity_suite(30) asks for the longest G^2; the others read prefixes
    forms.clear_cache()
    builds.clear()
    assert forms.identity_suite(30).all_passed
    hauptmodul(30)
    mf = minimal_form(V3, 30, "both")
    assert mlde_residual(V3, mf.comp1).is_zero and mlde_residual(V3, mf.comp2).is_zero
    assert builds == [("G^2E4^0", 42)]

    # weight 6 for V3 (k0 = 0): G^3, G E4 times F' and G^2, E4 times DF'
    builds.clear()
    basis = weight_basis(mf, 6)
    z1, z2 = combination(mf, {(3, 0): 1, (1, 1): 2}, {(2, 0): 1, (0, 1): -5}, 6)
    decompose(mf, z1, z2, 6)
    assert len(basis) == 4
    assert sorted(name for name, _ in builds) == ["G^1E4^1", "G^3E4^0"]  # G, E4 and G^2 are read


def _perturbed_divisor_sums(real):
    def perturbed(Kmax):
        s = real(Kmax)
        # psi_7 + 168: 7 divides it, so E, built from psi, stays integral (E_7 + 24)
        s[7] += 7
        return s

    return perturbed


def _perturbed_e(real):
    def perturbed(psi, n):
        e = real(psi, n)
        e[6] += 1  # E_6, so z_7
        return e

    return perturbed


@pytest.mark.parametrize(
    "name, fault",
    [("_divisor_sums", _perturbed_divisor_sums), ("_e_series", _perturbed_e)],
    ids=["psi", "E"],
)
def test_a_perturbed_closed_route_series_is_a_pipeline_mismatch(
    monkeypatch, cold_cache, name, fault
):
    monkeypatch.setattr(minform, name, fault(getattr(minform, name)))
    with pytest.raises(PipelineMismatch, match="K=7:"):
        minimal_form(M2, 10, "both")


def test_a_psi_fault_that_m_does_not_divide_leaves_E_non_integral(monkeypatch, cold_cache):
    real = minform._divisor_sums

    def perturbed(Kmax):
        s = real(Kmax)
        s[7] += 1  # psi_7 + 24, and 7 E_7 = ... + psi_7 leaves remainder 3
        return s

    monkeypatch.setattr(minform, "_divisor_sums", perturbed)
    with pytest.raises(PipelineMismatch, match=r"came out non-integral at q\^7$"):
        minimal_form(M2, 10, "both")


@pytest.fixture
def mutated_kernel(monkeypatch, cold_cache):
    """Install ``_solve_theta`` with one edit of its own source, shared by both routes."""

    def install(old: str, new: str) -> None:
        source = inspect.getsource(minform._solve_theta)
        assert source.count(old) == 1, old
        namespace = {}
        exec(source.replace(old, new), vars(minform), namespace)
        monkeypatch.setattr(minform, "_solve_theta", namespace["_solve_theta"])

    return install


# E comes from psi by its own recurrence, not from the kernel, so a kernel
# fault reaches the two routes' equations only, each in its own way, and they disagree.
_DISAGREE = "closed-form and recursion disagree at K="


def test_a_dropped_horner_term_breaks_agreement(mutated_kernel):
    # the last term of every step, j = 1, is left out
    mutated_kernel("N[lo:m], Y[lo:])", "N[lo : m - 1], Y[lo : m - 1])")
    with pytest.raises(PipelineMismatch, match=_DISAGREE):
        minimal_form(M2, 8, "both")


def test_an_off_by_one_x_breaks_agreement(mutated_kernel):
    # T_j evaluated at m - j + 1 in place of m - j
    mutated_kernel("((a * i + b) * i + c)", "((a * (i + 1) + b) * (i + 1) + c)")
    with pytest.raises(PipelineMismatch, match=_DISAGREE):
        minimal_form(M2, 8, "both")


def test_the_frobenius_route_calls_no_closed_route_kernel(monkeypatch):
    want = reference_h_frobenius(V3, 20)

    def refuse(*args):
        raise AssertionError("the Frobenius route called a closed-route kernel")

    for name in ("_conv", "tables_DC", "_e_series", "_divisor_sums", "seq_f"):
        monkeypatch.setattr(minform, name, refuse)
    assert _lists(h_frobenius(V3, 20)) == want


@pytest.mark.parametrize("name", ["weight2_G", "eisenstein_E2", "eisenstein_E4"])
def test_the_frobenius_route_honours_a_series_denominator(monkeypatch, cold_cache, name):
    # q^3 gets 1/2 more, so the series' integer form has den 2 (G^2 den 4)
    real = getattr(minform, name)

    def plus_half(N):
        s = real(N)
        cs = [c + Fraction(1, 2) * (j == 3) for j, c in enumerate(s.coeffs)]
        return PureQSeries.make(s.lead, cs)

    assert plus_half(8).integer_form()[0] == 2
    for module in (forms, minform):  # forms builds G^2 from its own G
        monkeypatch.setattr(module, name, plus_half)
    monkeypatch.setitem(globals(), name, plus_half)
    for params in (M2, V3):
        assert _lists(h_frobenius(params, 8)) == reference_h_frobenius(params, 8)


def test_the_closed_route_reads_no_named_series(monkeypatch):
    want = _lists(h_frobenius(V3, 20))

    def refuse(*args):
        raise AssertionError("the closed route read a named series")

    names = ("hauptmodul", "eisenstein_E2", "eisenstein_E4", "weight2_G", "eta_pow")
    for module in (forms, minform):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert _lists(h_closed(V3, 20)) == want


@pytest.mark.parametrize(
    "entry", [minimal_form, h_closed, h_frobenius, seq_f], ids=lambda f: f.__name__
)
def test_a_negative_kmax_is_refused(entry):
    forms.clear_cache()  # a cold series cache once made minimal_form raise IndexError here
    with pytest.raises(ValueError, match="Kmax must be >= 0, got -1"):
        entry(M2, -1)


def test_kmax_zero_is_the_normalized_one_on_both_routes():
    assert _lists(h_closed(M2, 0)) == _lists(h_frobenius(M2, 0)) == ([1], [1])
    assert minimal_form(M2, 0, "both").tables.h == (1,)


def test_a_faulty_E4_fails_the_frobenius_route_alone(monkeypatch):
    closed = minimal_form(M2, 8, "closed").tables
    real = minform.eisenstein_E4

    def faulty(N):
        s = real(N)
        return PureQSeries.make(s.lead, [c + 1 if j == 3 else c for j, c in enumerate(s.coeffs)])

    monkeypatch.setattr(minform, "eisenstein_E4", faulty)
    assert minimal_form(M2, 8, "closed").tables == closed
    with pytest.raises(PipelineMismatch, match="K=3"):
        minimal_form(M2, 8, "both")


_INDICIAL = "N = [(A[0] * m + B[0]) * m + C[0] for m in range(n + 1)]"


def test_a_faulty_indicial_value_breaks_agreement(mutated_kernel):
    # N_3 one too large, on both routes
    mutated_kernel(_INDICIAL, _INDICIAL.replace("C[0] for", "C[0] + (m == 3) for"))
    with pytest.raises(PipelineMismatch, match=_DISAGREE):
        minimal_form(M2, 8, "both")


def test_a_vanishing_indicial_value_is_refused(mutated_kernel):
    mutated_kernel(_INDICIAL, _INDICIAL.replace("C[0] for", "C[0] if m != 2 else 0 for"))
    with pytest.raises(ConsistencyError, match="indicial value vanishes at step 2"):
        h_frobenius(M2, 8)
    with pytest.raises(ConsistencyError, match="indicial value vanishes at step 2"):
        minimal_form(M2, 8, "both")


@pytest.mark.parametrize("component", [0, 1], ids=["h", "h_tilde"])
@pytest.mark.parametrize("params", [M2, M5, V3, L120], ids=["m2", "m5", "v3", "l120"])
def test_h_by_direct_series_arithmetic(params, component):
    # third routes: no theta-equation, plain series algebra on K^-1 and f by definition,
    # and on eps = q E in Pfaff form with g
    Kmax = 12
    closed = list(h_closed(params, Kmax)[component].coeffs)
    assert plain_series_h(params, Kmax, component) == closed
    assert pfaff_series_h(params, Kmax, component) == closed


@pytest.mark.parametrize("params", [M2, M5, sqrt2_instance(2)], ids=["m2", "m5", "k0=2"])
def test_minimal_form_and_residual(params):
    mf = minimal_form(params, 15, "both")
    lead1 = Fraction(params.k0, 12) + params.l1
    lead2 = Fraction(params.k0, 12) + params.l2
    assert params.leads == (lead1, lead2) == (mf.comp1.lead, mf.comp2.lead)
    assert mf.comp1.coeff(lead1) == 1
    assert mf.comp2.coeff(lead2) == 1
    assert mlde_residual(params, mf.comp1).is_zero
    assert mlde_residual(params, mf.comp2).is_zero
    if params.k0 == 0:
        assert mf.tables.d == mf.tables.h
    else:
        assert mf.tables.d != mf.tables.h


def test_minimal_form_methods_match():
    a = minimal_form(M2, 10, "closed")
    b = minimal_form(M2, 10, "frobenius")
    assert a.tables.h == b.tables.h
    assert a.tables.d_tilde == b.tables.d_tilde
    with pytest.raises(ValueError):
        minimal_form(M2, 10, "numerology")


@pytest.mark.parametrize("params", [M2, sqrt2_instance(2)], ids=["k0=0", "k0=2"])
def test_deriv_components(params):
    mf = minimal_form(params, 12, "both")
    d1, d2 = deriv_components(mf)  # raises PipelineMismatch if formula drifts
    t1, t2 = t_lists(mf)
    assert t1[0] == params.l1
    assert t2[0] == params.l2
    if params.k0 == 0:
        assert t1[1] == mf.tables.d[1] * (1 + params.l1) == 256
        lead2 = Fraction(params.k0, 12) + params.l2
        assert d2.coeff(lead2) == Fraction(1, 2)
    direct = modular_D(params.k0, mf.comp1)
    assert equal_through(direct, d1, Fraction(params.k0, 12) + params.l1 + 11)


def test_weight_basis_counts():
    mf = minimal_form(M2, 8, "both")
    at_k0 = weight_basis(mf, M2.k0)
    assert len(at_k0) == 1 and not at_k0[0].derivative
    assert weight_basis(mf, M2.k0 + 1) == []
    at_k0_4 = weight_basis(mf, M2.k0 + 4)
    assert len(at_k0_4) == 3
    labels = {b.label for b in at_k0_4}
    assert labels == {"G^2*E4^0*F'", "G^0*E4^1*F'", "G^1*E4^0*DF'"}


@pytest.mark.parametrize("params", [M2, V3], ids=["M2", "V3"])
def test_decompose_trivial_and_roundtrip(params):
    mf = minimal_form(params, 16, "both")
    d1, d2 = deriv_components(mf)
    m1, m2 = decompose(mf, mf.comp1, mf.comp2, params.k0)
    assert m1.coeff(0) == 1 and m2.is_zero
    m1, m2 = decompose(mf, d1, d2, params.k0 + 2)
    assert m1.is_zero and m2.coeff(0) == 1

    n = len(mf.comp1.coeffs) + 1
    m1_true = form_monomial(3, 0, n) + 2 * form_monomial(1, 1, n)
    m2_true = form_monomial(2, 0, n) - 5 * form_monomial(0, 1, n)
    z1 = m1_true * mf.comp1 + m2_true * d1
    z2 = m1_true * mf.comp2 + m2_true * d2
    r1, r2 = decompose(mf, z1, z2, params.k0 + 6)
    assert r1.horizon == r2.horizon == 17
    for nn in range(int(r1.horizon)):
        assert r1.coeff(nn) == m1_true.coeff(nn)
    for nn in range(int(r2.horizon)):
        assert r2.coeff(nn) == m2_true.coeff(nn)


def test_decompose_rejects_outside_span():
    mf = minimal_form(M2, 12, "both")
    z1 = mf.comp1 + PureQSeries.make(M2.l1 + 3, [1] + [0] * 8)
    with pytest.raises(NotAFormError):
        decompose(mf, z1, mf.comp2, M2.k0)


def test_decompose_rejects_off_grid():
    mf = minimal_form(M2, 12, "both")
    shifted = mf.comp1.shifted(Fraction(1, 3))
    with pytest.raises(ConsistencyError):
        decompose(mf, shifted, mf.comp2, M2.k0)


def test_2f1_reformulation():
    # Pfaff's transformation at x = 1/K: with f the coefficients of the paper's
    # (1 - 64x)^r 2F1(A, A + 1/2; 1 + A - B; 64x), by definition,
    #   sum_n f_n x^n = (1 - 64x)^-l1 sum_k g_k (x / (1 - 64x))^k
    n_max = 12
    for params in (M2, V3, V3.mirrored()):
        f = f_by_definition(params, n_max)
        g = seq_f(params, n_max)[0].coeffs
        for n in range(n_max + 1):
            assert f[n] == sum(
                g[k] * 64 ** (n - k) * pochhammer(params.l1 + k, n - k) / math.factorial(n - k)
                for k in range(n + 1)
            )


@pytest.mark.parametrize("params", list(NAMED.values()), ids=list(NAMED))
def test_the_minimal_form_is_rational(params, monkeypatch):
    # the recursion's a, b and c are rational, and g is too, as (a)_k (b)_k is a norm
    products, zero_operands = [], []
    real_conv = qseries._conv

    def spying_conv(a, b, n):
        products.append(n)
        if not any(a) or not any(b):
            zero_operands.append(n)
        return real_conv(a, b, n)

    monkeypatch.setattr(qseries, "_conv", spying_conv)
    forms.clear_cache()
    mf = minimal_form(params, 20, "both")
    k = params.k0 + 4
    decompose(mf, *combination(mf, {(2, 0): 1}, {(1, 0): 3}, k), k)
    assert products and not zero_operands
    F1, F2 = mf.comp1, mf.comp2
    D1, D2 = deriv_components(mf)
    rational = {
        "h closed": h_closed(params, 20),
        "h frobenius": h_frobenius(params, 20),
        "g": seq_f(params, 20),
        "F'": (F1, F2),
        "DF'": (D1, D2),
        "W": (F1 * D2 - F2 * D1,),
        "residual": (mlde_residual(params, F1), mlde_residual(params, F2)),
    }
    for name, series in rational.items():
        for s in series:
            assert s.integer_form()[2] is None, name
    t, (g, g_tilde) = mf.tables, rational["g"]
    for value in (*t.h, *t.h_tilde, *t.d, *t.d_tilde, *g.coeffs, *g_tilde.coeffs):
        assert isinstance(value, Fraction)


def test_negative_minimal_weight():
    params = sqrt2_instance(-2)
    mf = minimal_form(params, 10, "both")
    assert mf.comp1.lead == Fraction(-1, 6)
    assert mlde_residual(params, mf.comp1).is_zero
    assert mlde_residual(params, mf.comp2).is_zero
    deriv_components(mf)  # exact cross-check against the operator


def test_the_derivative_is_built_once_per_form(monkeypatch):
    mf = minimal_form(V3, 12, "both")
    t_calls, d_args = [], []
    real_t_lists, real_modular_D = minform.t_lists, minform.modular_D

    def counting_t_lists(form):
        t_calls.append(form)
        return real_t_lists(form)

    def counting_modular_D(k, u):
        d_args.append(u)
        return real_modular_D(k, u)

    monkeypatch.setattr(minform, "t_lists", counting_t_lists)
    monkeypatch.setattr(minform, "modular_D", counting_modular_D)
    k = V3.k0 + 6
    m1_map, m2_map = {(3, 0): 1, (1, 1): 2}, {(2, 0): 1, (0, 1): -5}
    d1, d2 = deriv_components(mf)
    weight_basis(mf, k)
    z1, z2 = denoms.combination(mf, m1_map, m2_map, k)
    assert denoms.combination(mf, m1_map, m2_map, k) == (z1, z2)
    decompose(mf, z1, z2, k)
    denoms.ubd_general(mf, m1_map, m2_map, k, 12, 40)
    assert deriv_components(mf) == (d1, d2)
    # one t_lists call covers both components; the operator runs once on each
    assert len(t_calls) == 1
    assert sum(u is mf.comp1 for u in d_args) == 1
    assert sum(u is mf.comp2 for u in d_args) == 1


def test_a_perturbed_closed_route_is_a_pipeline_mismatch(monkeypatch):
    real_h_closed = minform.h_closed

    def perturbed(params, Kmax):
        h, h_tilde = real_h_closed(params, Kmax)
        h = PureQSeries.make(0, [c + 1 if K == 5 else c for K, c in enumerate(h.coeffs)])
        return h, h_tilde

    monkeypatch.setattr(minform, "h_closed", perturbed)
    with pytest.raises(PipelineMismatch, match="K=5"):
        minimal_form(M2, 8, "both")
