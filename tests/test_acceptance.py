"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact (zero tolerance); the only non-exact limits
are the two stated wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from vvmf2.denoms import combination, prime_sets, side_condition_audit, ubd_general, verify_ubd
from vvmf2.forms import (
    eisenstein_E4,
    g_slash_S,
    hauptmodul,
    identity_suite,
    modular_D,
    monomial_basis,
    sigma,
    theta4_and_E,
    weight2_G,
)
from vvmf2.minform import (
    decompose,
    h_closed,
    h_frobenius,
    minimal_form,
    mlde_residual,
)
from vvmf2.params import params_from_exponents, roots_from_abc, seed_exponents
from vvmf2.qseries import equal_through
from vvmf2.quadratic import QuadNum, denominator_of, legendre, norm_trace, primes_upto

M2 = params_from_exponents(seed_exponents("m2"))
M5 = params_from_exponents(seed_exponents("m5"))


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number:>2} {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def mf40():
    return {
        "m2": minimal_form(M2, 40, "both"),
        "m5": minimal_form(M5, 40, "both"),
    }


@pytest.fixture(scope="module")
def mf60_m2():
    return minimal_form(M2, 60, "both")


def test_criterion_1_identity_suite():
    with criterion(1, "identity suite at order 200"):
        start = time.monotonic()
        report = identity_suite(200)
        elapsed = time.monotonic() - start
        failed = [c.name for c in report.checks if not c.passed]
        assert not failed, failed
        required = {
            "theta-J",
            "theta-J-weight6",
            "theta-G",
            "D2-G",
            "theta2-J",
            "E4-J-ratio",
            "192-divisibility",
            "Kq-integral-unit",
            "eta-kernel-k=-2",
            "eta-kernel-k=0",
            "eta-kernel-k=1",
            "eta-kernel-k=6",
        }
        assert required <= {c.name for c in report.checks}
        # the derivative of G: the two sign variants differ, and only
        # (E4 - 2 G^2)/6 is the actual value of D_2(G)
        g = weight2_G(20)
        e4 = eisenstein_E4(20)
        d2g = modular_D(2, g)
        assert equal_through(d2g, Fraction(1, 6) * e4 - Fraction(1, 3) * (g * g), 18)
        assert not equal_through(d2g, Fraction(-1, 6) * e4 - Fraction(1, 3) * (g * g), 18)
        assert elapsed < 30, f"identity suite took {elapsed:.1f}s"


def test_criterion_2_hauptmodul_expansion():
    with criterion(2, "Hauptmodul begins 1/q + 40 + 276q"):
        K, J = hauptmodul(4)
        assert K.coeff(-1) == 1
        assert K.coeff(0) == 40
        assert K.coeff(1) == 276
        assert J.coeff(-1) == Fraction(1, 64)


def test_criterion_3_other_cusp_identities():
    with criterion(3, "theta^4 + 16E identity and slash constant"):
        th4, curly_e = theta4_and_E(200)
        g = weight2_G(200)
        assert equal_through(g, th4 + 16 * curly_e, 200)
        for n in range(1, 201):
            n0 = n
            while n0 % 2 == 0:
                n0 //= 2
            expected = 8 * sigma(n) if n % 2 else 24 * sigma(n0)
            assert th4.coeff(n) == expected
        assert g_slash_S(1).coeff(0) == Fraction(-1, 2)


def test_criterion_4_oracle_equivalence():
    with criterion(4, "closed form equals recursion through K=40"):
        for params in (M2, M5):
            start = time.monotonic()
            hc, hct = (s.coeffs for s in h_closed(params, 40))
            hf, hft = (s.coeffs for s in h_frobenius(params, 40))
            elapsed = time.monotonic() - start
            for K in range(41):
                assert hc[K] == hf[K], (params.M, K)
                assert hct[K] == hft[K], (params.M, K)
            assert elapsed < 120, f"dual computation took {elapsed:.1f}s"


def test_criterion_5_mlde_annihilation(mf40):
    with criterion(5, "weight-k0 operator annihilates both components"):
        for name in ("m2", "m5"):
            mf = mf40[name]
            for comp in (mf.comp1, mf.comp2):
                residual = mlde_residual(mf.params, comp)
                assert residual.is_zero
                assert residual.horizon >= comp.lead + 40


def test_criterion_6_parameter_algebra():
    with criterion(6, "exact parameter relations"):
        for p in (M2, M5):
            assert p.A + p.B + 1 == 2 * p.r + Fraction(7 - 6 * p.a, 6)
            assert p.A * p.B == (p.r - 6 * p.c) / 2
            disc = (2 * p.r + Fraction(1 - 6 * p.a, 6)) ** 2 - 2 * (p.r - 6 * p.c)
            assert disc == (p.l1 - p.l2) ** 2
            assert p.l1 + p.l2 + p.r + p.r.conjugate() == Fraction(1, 2)


def test_criterion_7_spot_value(mf40):
    with criterion(7, "d(1) = 256 by both pipelines"):
        mf = mf40["m2"]  # built with method="both", so the pipelines agreed
        assert mf.method == "both"
        assert mf.tables.d[1] == 256
        assert h_closed(M2, 1)[0].coeffs[1] == 256
        assert h_frobenius(M2, 1)[0].coeffs[1] == 256


def test_criterion_8_minimal_weight_ubd(mf40):
    with criterion(8, "denominator law for d and d-tilde through K=40"):
        report = verify_ubd(mf40["m2"], 40)
        assert report.all_asserted_pass, report.exceptional
        passing = {r.p for r in report.rows_d if r.passed}
        assert {5, 11, 13, 19, 29, 37} <= passing
        tilde_passing = {r.p for r in report.rows_d_tilde if r.passed}
        assert {5, 11, 13, 19, 29, 37} <= tilde_passing
        # p = 3 fails the audit (divides 12) and is exempt, not asserted
        k2 = next(r for r in report.rows_d if r.K == 2)
        assert k2.p == 3 and k2.exempt and k2.passed is None


def test_criterion_9_general_weight_ubd(mf60_m2):
    with criterion(9, "general-weight combinations at k0+8"):
        rng = random.Random(20250810)
        weight8 = monomial_basis(8)
        weight6 = monomial_basis(6)
        audited = [
            p
            for p in prime_sets(M2, 37).S
            if not side_condition_audit(M2, p)
        ]
        assert audited == [5, 11, 13, 19, 29, 37]
        for trial in range(3):
            m1 = {ab: rng.randint(-20, 20) for ab in weight8}
            m2 = {ab: rng.randint(-20, 20) for ab in weight6}
            if not any(m1.values()) and not any(m2.values()):
                m1[weight8[0]] = 1
            report = ubd_general(mf60_m2, m1, m2, M2.k0 + 8, 60, 37)
            assert report.all_asserted_pass, trial
            rows = {r.p: r for r in report.rows}
            for p in audited:
                assert rows[p].first_hit_1 is not None, (trial, p)
                assert rows[p].first_hit_2 is not None, (trial, p)


def test_criterion_10_round_trips(mf40):
    with criterion(10, "round trips and brute-force oracles"):
        # decompose inverts basis combination, 10 random cases
        rng = random.Random(4040)
        mf = mf40["m2"]
        from vvmf2.forms import form_monomial

        for case in range(10):
            k = M2.k0 + 2 * rng.randint(2, 6)
            m1_map = {ab: rng.randint(-15, 15) for ab in monomial_basis(k - M2.k0)}
            m2_map = {ab: rng.randint(-15, 15) for ab in monomial_basis(k - M2.k0 - 2)}
            if not any(m1_map.values()) and not any(m2_map.values()):
                m1_map[next(iter(m1_map))] = 1
            z1, z2 = combination(mf, m1_map, m2_map, k)
            r1, r2 = decompose(mf, z1, z2, k)
            n = len(mf.comp1.coeffs) + 1
            m1_true = sum(
                (form_monomial(a, b, n) * c for (a, b), c in sorted(m1_map.items())),
                form_monomial(0, 0, n) * 0,
            )
            m2_true = sum(
                (form_monomial(a, b, n) * c for (a, b), c in sorted(m2_map.items())),
                form_monomial(0, 0, n) * 0,
            )
            for nn in range(int(r1.horizon)):
                assert r1.coeff(nn) == m1_true.coeff(nn), case
            for nn in range(int(r2.horizon)):
                assert r2.coeff(nn) == m2_true.coeff(nn), case

        # parameter round trip
        for p in (M2, M5):
            back = params_from_exponents(
                roots_from_abc(p.a, p.b, p.c, p.M, p.k0)
            )
            assert (back.a, back.b, back.c) == (p.a, p.b, p.c)

        # denominators against pure enumeration, 100 random values
        rng = random.Random(99)
        for _ in range(100):
            z = QuadNum(
                Fraction(rng.randint(-40, 40), rng.randint(1, 24)),
                Fraction(rng.randint(-40, 40), rng.randint(1, 24)),
                rng.choice([2, 5]),
            )
            if not z:
                continue
            Z = denominator_of(z)
            norm, trace = norm_trace(z)
            candidate = 1
            while True:
                if z.surd != 0:
                    ok = (candidate * trace).denominator == 1 and (
                        candidate * candidate * norm
                    ).denominator == 1
                else:
                    ok = (candidate * z.rat).denominator == 1
                if ok:
                    break
                candidate += 1
            assert Z == candidate

        # Legendre symbol against residue enumeration
        for p in primes_upto(200):
            if p == 2:
                continue
            squares = {(x * x) % p for x in range(1, p)}
            for M in (-6, -1, 2, 3, 5, 10, 15):
                want = 0 if M % p == 0 else (1 if M % p in squares else -1)
                assert legendre(M, p) == want
