"""Prime sets, denominator scans, and the finite-range divisibility laws."""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from vvmf2 import denoms, qseries
from vvmf2.denoms import (
    combination,
    denom_scan,
    factor_trial,
    pochhammer_numerator_probe,
    prime_sets,
    side_condition_audit,
    ubd_general,
    verify_ubd,
)
from vvmf2.errors import ConsistencyError
from vvmf2.forms import eta_pow, form_monomial
from vvmf2.minform import decompose, h_closed, minimal_form, mlde_residual, weight_basis
from vvmf2.params import ExponentData, params_from_exponents, seed_exponents
from vvmf2.qseries import PureQSeries, equal_through, to_json
from vvmf2.quadratic import (
    QuadNum,
    denominator_of,
    is_p_integral,
    is_prime,
    legendre,
    norm_trace,
    primes_upto,
)
from vvmf2.record import replace

from instance_strategy import instances
from plain_series import plain_series_h

M2 = params_from_exponents(seed_exponents("m2"))
SQRT2 = QuadNum(Fraction(0), Fraction(1), 2)
# exponent difference -1/3 splits S and S~ into different progressions
R_V3 = QuadNum(Fraction(1, 12), Fraction(1), 2)
V3 = params_from_exponents(ExponentData(0, Fraction(0), Fraction(1, 3), R_V3, R_V3.conjugate()))
# l2 = 1/5 puts the components on the 1/120 lattice, finer than the monomials' 1/24
R_L120 = QuadNum(Fraction(3, 20), Fraction(1), 2)


def lattice_120_instance(k0):
    return params_from_exponents(
        ExponentData(k0, Fraction(0), Fraction(1, 5), R_L120, R_L120.conjugate())
    )


def test_prime_sets_m2():
    ps = prime_sets(M2, 30)
    assert ps.S == (3, 5, 11, 13, 19, 29)
    assert ps.S == ps.S_tilde  # v = 2
    # independent residue check: (2/p) = -1 iff p = 3, 5 mod 8
    for p in primes_upto(100):
        if p == 2:
            continue
        want = p % 8 in (3, 5)
        assert (legendre(2, p) == -1) == want


def test_prime_sets_congruence_filter():
    # u = -1, v = 2 passes every odd prime through the congruence
    ps = prime_sets(M2, 60)
    inert = tuple(p for p in primes_upto(60) if p != 2 and legendre(2, p) == -1)
    assert ps.S == inert


@pytest.mark.parametrize("M", [2, 3, 5, -1, -3, -7])
def test_prime_sets_read_eulers_criterion_as_the_legendre_symbol(M):
    # u = -1, v = 2 passes every odd prime through both congruences
    primes = primes_upto(300)
    inert = tuple(p for p in primes if p != 2 and legendre(M, p) == -1)
    got = denoms._prime_sets(SimpleNamespace(M=M, u=-1, v=2), primes)
    assert got == denoms.PrimeSets(inert, inert)


def _verdicts(row):
    return row.earlier_integral, row.asserted, row.passed, row.verdict


def test_ubd_row_verdicts_are_built_with_the_row_and_again_by_replace():
    row = denoms.UbdRow(11, 23, True, True, (), True, 11)
    assert _verdicts(row) == (True, True, True, "pass")
    assert row._fields == ("K", "p", "is_prime", "in_S", "exempt", "divides", "first")
    assert to_json(row) == {"K": 11, "p": 23, "is_prime": True, "in_S": True, "exempt": [],
                            "divides": True, "first": 11}
    assert repr(row) == (
        "UbdRow(K=11, p=23, is_prime=True, in_S=True, exempt=(), divides=True, first=11)"
    )
    cases = [
        ({"first": 3}, (False, True, False, "fail")),
        ({"divides": False}, (True, True, False, "fail")),
        ({"first": None}, (True, True, True, "pass")),
        ({"exempt": ("p divides the level",)}, (True, False, None, "exempt")),
        ({"is_prime": False}, (True, False, None, "skip")),
        ({"in_S": False, "divides": None, "first": None}, (None, False, None, "skip")),
    ]
    for changes, want in cases:
        changed = replace(row, **changes)
        assert _verdicts(changed) == want, changes
        assert changed != row and replace(changed, **{n: getattr(row, n) for n in changes}) == row
    assert _verdicts(row) == (True, True, True, "pass")
    assert replace(row) == row and hash(replace(row)) == hash(row)
    with pytest.raises(AttributeError, match="cannot assign"):
        row.verdict = "fail"


def test_factor_trial():
    factors, cofactor = factor_trial(2**4 * 3 * 25, 10)
    assert factors == {2: 4, 3: 1, 5: 2} and cofactor == 1
    big = 1000003 * 1000033
    factors, cofactor = factor_trial(12 * big, 100)
    assert factors == {2: 2, 3: 1} and cofactor == big
    # a negative bound skips trial division yet passes n <= bound^2: 45 would come out prime
    for bound in (0, -1000):
        with pytest.raises(ValueError, match="factor bound"):
            factor_trial(45, bound)


def test_denom_scan_trivials():
    records = denom_scan([Fraction(1), Fraction(7), Fraction(-3)])
    assert all(r.denominator == 1 for r in records)
    records = denom_scan([Fraction(1, 3), Fraction(1, 9)])
    assert [r.denominator for r in records] == [3, 9]
    assert records[1].factors == {3: 2}


def test_side_condition_audit():
    assert "p divides 12" in side_condition_audit(M2, 3)
    assert side_condition_audit(M2, 11, K=6) == []
    assert "p <= K" in side_condition_audit(M2, 11, K=11)
    assert side_condition_audit(M2, 5) == []


def test_verify_ubd_m2():
    mf = minimal_form(M2, 20, "both")
    report = verify_ubd(mf, 20)
    assert report.all_asserted_pass
    assert report.exceptional == ()
    assert report.threshold == 5
    by_K = {r.K: r for r in report.rows_d}
    assert by_K[6].p == 11 and by_K[6].passed
    assert by_K[2].p == 3 and by_K[2].exempt == ("p divides 12",)
    assert by_K[4].p == 7 and by_K[4].is_prime and not by_K[4].in_S
    assert not by_K[5].is_prime  # 9
    tilde_by_K = {r.K: r for r in report.rows_d_tilde}
    assert tilde_by_K[5].p == 11 and tilde_by_K[5].passed


def test_verify_ubd_m2_at_kmax_320():
    # the verdict of both routes at Kmax 320: 58 asserted rows in each of d, h and d~, all passing
    report = verify_ubd(minimal_form(M2, 320, "both"))
    components = (report.rows_d, report.rows_h, report.rows_d_tilde)
    asserted = [[r for r in rows if r.asserted] for rows in components]
    assert [len(rows) for rows in asserted] == [58, 58, 58]
    assert all(r.passed for rows in asserted for r in rows)
    assert (report.threshold, report.exceptional) == (5, ())


def test_verify_ubd_h_and_d_first_hits_agree():
    # the eta tail is integral, so h and d go non-integral at the same K
    mf = minimal_form(M2, 16, "both")
    for p in (5, 11, 13):
        first_h = min(
            K for K in range(1, 17) if not is_p_integral(mf.tables.h[K], p)
        )
        first_d = min(
            K for K in range(1, 17) if not is_p_integral(mf.tables.d[K], p)
        )
        assert first_h == first_d == (p + 1) // 2


def test_verify_ubd_requires_both():
    mf = minimal_form(M2, 6, "closed")
    with pytest.raises(ConsistencyError):
        verify_ubd(mf, 6)
    mf = minimal_form(M2, 6, "both")
    with pytest.raises(ConsistencyError):
        verify_ubd(mf, 12)


def test_the_verifiers_refuse_a_negative_kmax():
    mf = minimal_form(M2, 6, "both")
    with pytest.raises(ValueError, match="Kmax must be >= 0, got -3"):
        verify_ubd(mf, -3)
    with pytest.raises(ValueError, match="Kmax must be >= 0, got -3"):
        ubd_general(mf, {(0, 0): 1}, {}, M2.k0, -3, 14)


def test_probe_examples():
    verdict = pochhammer_numerator_probe(SQRT2, Fraction(0), 5, 20)
    assert verdict.status == "pass"
    assert verdict.bad_shifts == () and verdict.bad_indices == ()
    inconclusive = pochhammer_numerator_probe(5 * SQRT2, Fraction(0), 5, 10)
    assert inconclusive.status == "inconclusive"
    with pytest.raises(ValueError):
        pochhammer_numerator_probe(SQRT2, Fraction(0), 7, 5)  # (2/7) = +1
    with pytest.raises(ValueError):
        pochhammer_numerator_probe(SQRT2, Fraction(0), 9, 5)
    with pytest.raises(ValueError):
        pochhammer_numerator_probe(QuadNum(Fraction(1, 2), Fraction(0), 2), Fraction(0), 5, 5)


def test_probe_rational_shift():
    verdict = pochhammer_numerator_probe(SQRT2, Fraction(1, 3), 5, 12)
    assert verdict.status == "pass"


def test_combination_weights():
    mf = minimal_form(M2, 10, "both")
    with pytest.raises(ConsistencyError):
        combination(mf, {(1, 0): 1}, {}, M2.k0 + 8)
    z1, z2 = combination(mf, {(0, 0): Fraction(1)}, {}, M2.k0)
    assert z1.coeff(M2.l1) == 1
    assert z2.coeff(M2.l2) == 1


def test_ubd_general_reduces_to_minimal_scan():
    mf = minimal_form(M2, 16, "both")
    report = ubd_general(mf, {(0, 0): 1}, {}, M2.k0, 16, 14)
    rows = {r.p: r for r in report.rows}
    # first hit for p must sit exactly where the d-sequence loses p-integrality
    for p in (5, 11, 13):
        assert rows[p].first_hit_1 == (p + 1) // 2
    assert rows[3].exempt == ("p divides 12",)


def test_ubd_general_derivative_only():
    mf = minimal_form(M2, 16, "both")
    report = ubd_general(mf, {}, {(0, 0): 1}, M2.k0 + 2, 16, 12)
    rows = {r.p: r for r in report.rows}
    assert rows[5].passed and rows[11].passed


def test_ubd_general_mixed_weight8():
    mf = minimal_form(M2, 24, "both")
    m1 = {(4, 0): 2, (2, 1): -3, (0, 2): 1}
    m2 = {(3, 0): 5, (1, 1): 1}
    report = ubd_general(mf, m1, m2, M2.k0 + 8, 24, 14)
    assert report.all_asserted_pass


def test_denominators_display_growth():
    mf = minimal_form(M2, 12, "both")
    dens = [denominator_of(x) for x in mf.tables.d]
    assert dens[0] == 1
    assert max(dens) > 10**3  # denominators visibly blow up


def test_prime_summary():
    mf = minimal_form(M2, 20, "both")
    report = verify_ubd(mf, 20)
    by_p = {s.p: s for s in report.summary_d}
    # each audited prime first divides a denominator exactly at its own index
    for p in (5, 11, 13, 19):
        assert by_p[p].verdict == "pass"
        assert by_p[p].first_division_K == by_p[p].expected_K == (p + 1) // 2
    assert by_p[3].verdict == "exempt"


def test_v3_instance_full_run():
    p = V3
    assert (p.u, p.v) == (-1, 3)
    ps = prime_sets(p, 60)
    assert ps.S == (5, 11, 29, 53, 59)
    assert ps.S_tilde == (13, 19, 37, 43)
    assert not set(ps.S) & set(ps.S_tilde)
    mf = minimal_form(p, 22, "both")
    report = verify_ubd(mf, 22)
    assert report.all_asserted_pass
    assert {r.p for r in report.rows_d if r.passed} >= {5, 11, 29, 59}
    assert {r.p for r in report.rows_d_tilde if r.passed} >= {13, 19, 37, 43}


def test_ubd_general_v3_checks_only_own_component():
    # S and S~ are disjoint for v = 3: each prime is hit in its own component only
    mf = minimal_form(V3, 30, "both")
    report = ubd_general(mf, {(0, 0): 1}, {}, V3.k0, 30, 120)
    assert report.all_asserted_pass
    rows = {r.p: r for r in report.rows}
    for p in (5, 11, 29, 53, 59, 83):
        assert rows[p].passed and rows[p].first_hit_1 == rows[p].row_1.K == (p + 1) // 3
        assert rows[p].first_hit_2 is None
    for p in (13, 19, 37, 43, 61, 67):
        assert rows[p].passed and rows[p].first_hit_2 == rows[p].row_2.K == (p - 1) // 3
        assert rows[p].first_hit_1 is None
    # predicted at K = 34, 36, 36 > 30: reported out of range, not asserted
    for p in (101, 107, 109):
        assert rows[p].rows == () and not rows[p].asserted and rows[p].passed is None


def row_K(row):
    return row.K if row else None


def mirror_pair(l1):
    """The instances (l1, 0) and (0, l1), r = (1/2 - l1)/2 + sqrt(2): each the other's mirror."""
    r = QuadNum((Fraction(1, 2) - l1) / 2, Fraction(1), 2)
    return tuple(
        params_from_exponents(ExponentData(0, a, b, r, r.conjugate()))
        for a, b in ((l1, Fraction(0)), (Fraction(0), l1))
    )


@pytest.mark.parametrize("l1", [Fraction(7, 2), Fraction(8, 3)], ids=["7/2", "8/3"])
def test_the_second_component_follows_the_mirrored_instance(l1):
    # exchanging l1 and l2 keeps the equation and swaps the components, so the
    # tilde rows of one instance are the plain rows of its mirror, audit included
    p, q = mirror_pair(l1)
    assert p.mirrored() == q and q.mirrored() == p
    assert (q.A, q.B, q.u, q.v) == (p.B, p.A, -p.u, p.v)
    built = {x: minimal_form(x, 30, "both") for x in (p, q)}

    def key(rows):
        return [(r.K, r.p, r.verdict, r.exempt) for r in rows]

    for x, y in ((p, q), (q, p)):
        assert key(verify_ubd(built[x]).rows_d) == key(verify_ubd(built[y]).rows_d_tilde)

    def general(x):
        # m1 = G^4 + E4^2 and m2 = G*E4 at weight 8; the exempt reasons as a set,
        # since their order follows the component order
        report = ubd_general(built[x], {(4, 0): 1, (0, 2): 1}, {(1, 1): 1}, 8, 30, 60)
        return [
            (r.p, set(r.exempt), r.first_hit_1, r.first_hit_2, row_K(r.row_1), row_K(r.row_2))
            for r in report.rows
        ]

    swapped = [(pr, ex, h2, h1, e2, e1) for pr, ex, h1, h2, e1, e2 in general(q)]
    assert general(p) == swapped


# (p, exempt, first_hit_1, first_hit_2, asserted, passed) of ubd_general with
# m1 = G^4 + E4^2, m2 = G*E4, k = 8, Kmax 30 and prime bound 60
GENERAL_ROWS = {
    "v3": [
        (5, (), 2, None, True, True),
        (11, (), 4, None, True, True),
        (13, (), None, 4, True, True),
        (19, (), None, 6, True, True),
        (29, (), 10, None, True, True),
        (37, (), None, 12, True, True),
        (43, (), None, 14, True, True),
        (53, (), 18, None, True, True),
        (59, (), 20, None, True, True),
    ],
    "7/2": [
        (3, ("p divides 12", "p <= K", "p divides negative progression member -3"),
         None, 2, False, None),
        (5, ("p <= K", "p divides negative progression member -5"), None, 1, False, None),
        (11, ("leading factor 11",), 2, 10, True, True),
        (13, (), 3, 10, True, True),
        (19, (), 6, 13, True, True),
        (29, (), 11, 18, True, True),
        (37, (), 15, 22, True, True),
        (43, (), 18, 25, True, True),
        (53, (), 23, 30, True, True),
        (59, (), 26, None, True, True),
    ],
    "8/3": [
        (5, (), None, None, False, None),
        (11, (), 1, None, True, True),
        (13, (), None, 7, True, True),
        (19, (), None, 9, True, True),
        (29, (), 7, None, True, True),
        (37, (), None, 15, True, True),
        (43, (), None, 17, True, True),
        (53, (), 15, None, True, True),
        (59, (), 17, None, True, True),
    ],
}


def general_instance(name):
    return V3 if name == "v3" else mirror_pair(Fraction(name))[0]


@pytest.mark.parametrize("name", list(GENERAL_ROWS))
def test_ubd_general_pins_the_component_rows(name):
    mf = minimal_form(general_instance(name), 30, "both")
    report = ubd_general(mf, {(4, 0): 1, (0, 2): 1}, {(1, 1): 1}, 8, 30, 60)
    got = [(r.p, r.exempt, r.first_hit_1, r.first_hit_2, r.asserted, r.passed) for r in report.rows]
    assert got == GENERAL_ROWS[name]
    assert report.scanned_to == 30 and report.all_asserted_pass
    rows = {r.p: r for r in report.rows}
    if name == "8/3":
        # 5 = 8 + K*3 at K = -1: before the scan, so neither component asserts it
        assert rows[5].rows == () and not rows[5].asserted
    if name == "7/2":
        # 2 + (K + 0) vanishes mod 11 at K = 9: exempt, and the first hit comes later
        row = rows[11].row_2
        assert (row.K, row.exempt, row.first, row.passed) == (9, ("leading factor 11",), 10, None)
        assert rows[11].row_1.passed


def test_ubd_general_fails_when_an_asserted_coefficient_is_scaled_by_p(monkeypatch):
    # p = 11 is asserted at K = 4 in the first component; 11*z(4) is 11-integral
    mf = minimal_form(V3, 30, "both")
    m1, m2 = {(4, 0): 1, (0, 2): 1}, {(1, 1): 1}
    lead = V3.leads[0]

    def scaled(mf, m1_map, m2_map, k):
        z1, z2 = combination(mf, m1_map, m2_map, k)
        assert (z1.lead, z1.step) == (lead, 1)
        coeffs = list(z1.coeffs)
        coeffs[4] *= 11
        return PureQSeries(z1.lead, z1.step, tuple(coeffs)), z2

    assert ubd_general(mf, m1, m2, 8, 30, 60).all_asserted_pass
    monkeypatch.setattr(denoms, "combination", scaled)
    report = ubd_general(mf, m1, m2, 8, 30, 60)
    row = next(r for r in report.rows if r.p == 11)
    assert (row.row_1.K, row.row_1.divides, row.asserted, row.passed) == (4, False, True, False)
    assert not report.all_asserted_pass


def test_ubd_general_exempts_a_vanishing_leading_factor():
    # Z = DF' on m2: the second component's leading factor is K + 1/2 = p/2
    mf = minimal_form(M2, 16, "both")
    report = ubd_general(mf, {}, {(0, 0): 1}, M2.k0 + 2, 16, 30)
    rows = [r for r in report.rows if r.p != 3]  # p = 3 divides 12
    assert [r.p for r in rows] == [5, 11, 13, 19, 29]
    for r in rows:
        assert r.row_2.exempt == (f"leading factor {r.p}/2",) and r.row_2.passed is None
        assert r.row_1.passed and r.row_1.first == r.row_1.K


def test_ubd_general_exempts_a_prime_in_a_map_denominator():
    # Z = F'/5: every coefficient has 5 in its denominator, so p = 5 predicts nothing
    mf = minimal_form(M2, 16, "both")
    rows = {r.p: r for r in ubd_general(mf, {(0, 0): Fraction(1, 5)}, {}, M2.k0, 16, 14).rows}
    row = rows[5].row_1
    assert row.exempt == ("p divides denominator of a map coefficient", "leading factor 1/5")
    assert (row.K, row.first, rows[5].asserted) == (3, 1, False)
    assert rows[11].passed and rows[13].passed


def test_ubd_general_asserts_nothing_for_a_cusp_form_multiplier():
    # m1 = E4 - G^2 and m2 = 0 have constant terms c1 = c2 = 0: no row is predicted
    mf = minimal_form(M2, 16, "both")
    report = ubd_general(mf, {(0, 1): 1, (2, 0): -1}, {}, M2.k0 + 4, 16, 30)
    assert len(report.rows) == 6
    assert not any(r.asserted for r in report.rows)
    assert all("leading factor 0" in r.exempt for r in report.rows)


def test_ubd_general_out_of_range_beyond_computed_terms():
    # a Kmax past the computed coefficients scans only what is known
    mf = minimal_form(M2, 10, "both")
    report = ubd_general(mf, {(0, 0): 1}, {}, M2.k0, 40, 40)
    rows = {r.p: r for r in report.rows}
    assert report.all_asserted_pass
    assert rows[19].passed and rows[19].first_hit_2 == 9
    assert rows[29].rows == () and rows[29].passed is None


def _counting_denominators(monkeypatch):
    """The series whose denominators are read, with every value build refused."""
    calls, real = [], PureQSeries.denominators

    def counting(s):
        calls.append(s)
        return real(s)

    def refuse(*args):
        raise AssertionError("a coefficient value was built")

    monkeypatch.setattr(PureQSeries, "denominators", counting)
    monkeypatch.setattr(qseries, "_rebuild", refuse)
    return calls


def test_verify_ubd_computes_each_denominator_once(monkeypatch):
    # h, d and d~, once each, off their integer forms, for k0 = 0 (d is h shifted) as for k0 = 2
    built = {k0: minimal_form(lattice_120_instance(k0), 20, "both") for k0 in (0, 2)}
    calls = _counting_denominators(monkeypatch)
    monkeypatch.setattr(denoms, "denominator_of", None)  # a call would raise TypeError
    for k0, mf in built.items():
        calls.clear()
        report = verify_ubd(mf, 20)
        assert report.all_asserted_pass
        t = mf.tables
        read = (t.h_series, t.comp1, t.comp2)
        assert len(calls) == len(read) and all(s is r for s, r in zip(calls, read))
    monkeypatch.undo()
    for mf in built.values():
        assert list(verify_ubd(mf, 20).dens_d) == [denominator_of(z) for z in mf.tables.d]


def test_h_is_scanned_on_its_own_only_when_d_differs(monkeypatch):
    # at k0 = 0 d is h shifted, so d's rows are h's; at k0 = 2 h has its own denominators
    scans, real = [], denoms._scan_rows

    def recording(dens, *args):
        rows = real(dens, *args)
        scans.append((list(dens), rows))
        return rows

    monkeypatch.setattr(denoms, "_scan_rows", recording)
    for k0 in (0, 2):
        mf = minimal_form(lattice_120_instance(k0), 20, "both")
        dens_h, dens_d, dens_dt = (
            list(s.denominators()) for s in (mf.tables.h_series, mf.tables.comp1, mf.tables.comp2)
        )
        scans.clear()
        report = verify_ubd(mf, 20)
        assert (dens_h == dens_d) == (k0 == 0)
        want = [dens_d, dens_dt] if k0 == 0 else [dens_d, dens_h, dens_dt]
        assert [dens for dens, _ in scans] == want
        assert report.rows_h == tuple(next(rows for dens, rows in scans if dens == dens_h))


def test_ubd_general_computes_each_denominator_once(monkeypatch):
    mf = minimal_form(V3, 20, "both")
    z = combination(mf, {(4, 0): 1, (0, 2): 1}, {(1, 1): 1}, V3.k0 + 8)
    map_values = []

    def counting(x):
        map_values.append(x)
        return denominator_of(x)

    monkeypatch.setattr(denoms, "denominator_of", counting)
    calls = _counting_denominators(monkeypatch)
    report = ubd_general(mf, {(4, 0): 1, (0, 2): 1}, {(1, 1): 1}, V3.k0 + 8, 20, 60)
    assert report.all_asserted_pass and len(report.rows) > 2
    assert report.scanned_to == 20
    # both components once, off their integer forms, and each map coefficient once
    assert calls == list(z) and len(map_values) == 3


@pytest.mark.parametrize("k0", [0, 2])
def test_combinations_run_on_the_instance_lattice(k0):
    params = lattice_120_instance(k0)
    mf = minimal_form(params, 8, "both")
    assert mf.comp1.lattice == 24
    assert mf.comp2.lattice == 120
    assert mlde_residual(params, mf.comp1).is_zero and mlde_residual(params, mf.comp2).is_zero
    labels = [b.label for b in weight_basis(mf, k0 + 4)]
    assert labels == ["G^2*E4^0*F'", "G^0*E4^1*F'", "G^1*E4^0*DF'"]
    k = k0 + 6
    m1_map, m2_map = {(3, 0): 1, (1, 1): 2}, {(2, 0): 1, (0, 1): -5}
    r1, r2 = decompose(mf, *combination(mf, m1_map, m2_map, k), k)
    n = len(mf.comp1.coeffs) + 1
    m1_true = form_monomial(3, 0, n) + 2 * form_monomial(1, 1, n)
    m2_true = form_monomial(2, 0, n) - 5 * form_monomial(0, 1, n)
    assert r1.horizon == r2.horizon == 9
    for nn in range(9):
        assert r1.coeff(nn) == m1_true.coeff(nn)
        assert r2.coeff(nn) == m2_true.coeff(nn)
    report = ubd_general(mf, m1_map, m2_map, k, 8, 60)
    assert [r.p for r in report.rows if r.asserted] == [11, 19, 29]
    assert report.all_asserted_pass


@given(instances())
@settings(max_examples=30, deadline=None)
def test_generated_instances_run_through_the_engine(params):
    mf = minimal_form(params, 8, "both")
    assert mf.comp1.integer_form()[2] is None and mf.comp2.integer_form()[2] is None
    assert plain_series_h(params, 8, 0) == list(mf.tables.h)
    assert plain_series_h(params, 8, 1) == list(mf.tables.h_tilde)
    assert mlde_residual(params, mf.comp1).is_zero and mlde_residual(params, mf.comp2).is_zero
    k = params.k0 + 4
    r1, r2 = decompose(mf, *combination(mf, {(2, 0): 1}, {(1, 0): 3}, k), k)
    n = len(mf.comp1.coeffs) + 1
    assert r1.horizon == r2.horizon == 9
    assert equal_through(r1, form_monomial(2, 0, n), 8)
    assert equal_through(r2, 3 * form_monomial(1, 0, n), 8)
    assert verify_ubd(mf).all_asserted_pass
    assert to_json(mf.comp2)["lattice"] == math.lcm(24, params.leads[1].denominator)


def test_verify_ubd_fails_when_a_predicted_denominator_is_cleared():
    mf = minimal_form(M2, 40, "both")
    row = next(r for r in verify_ubd(mf).rows_d if r.K == 6)
    assert (row.p, row.asserted, row.passed) == (11, True, True)
    # verify_ubd reads the integer form of d, the tables' comp1
    cs = mf.tables.comp1.coeffs
    bad_d = PureQSeries.make(mf.tables.comp1.lead, cs[:6] + (11 * cs[6],) + cs[7:])
    bad = replace(mf, tables=replace(mf.tables, comp1=bad_d))
    assert bad.tables.d[6] == 11 * mf.tables.d[6]
    report = verify_ubd(bad)
    row = next(r for r in report.rows_d if r.K == 6)
    assert (row.divides, row.passed, row.verdict) == (False, False, "fail")
    assert report.exceptional == (11,)
    assert report.threshold == 13
    assert not report.all_asserted_pass


# ---------------------------------------------------------------------------
# the integer-form reads against the values they replaced
# ---------------------------------------------------------------------------


def _assert_reads_match_the_values(params, Kmax, monkeypatch):
    mf = minimal_form(params, Kmax, "both")
    t = mf.tables
    h, h_tilde = h_closed(params, Kmax)
    eta = eta_pow(2 * params.k0, Kmax)
    # the value tuples the tables stored before they were derived on read
    stored = {
        "h": h.coeffs,
        "h_tilde": h_tilde.coeffs,
        "e": eta.coeffs,
        "d": (eta * h.shifted(params.l1)).coeffs,
        "d_tilde": (eta * h_tilde.shifted(params.l2)).coeffs,
    }
    assert {name: getattr(t, name) for name in stored} == stored
    for s in (t.h_series, t.h_tilde_series, t.eta, t.comp1, t.comp2):
        assert s.denominators() == [denominator_of(z) for z in s.coeffs]
    if params.k0 == 0:
        assert mf.comp1 == h.shifted(params.l1) and mf.comp2 == h_tilde.shifted(params.l2)
        assert t.d is t.h and t.d_tilde is t.h_tilde
    with pytest.raises(ValueError, match="factor bound must be >= 1"):
        verify_ubd(mf, factor_bound=0)  # at the call, not when scan_d is read
    scans, real = [], denoms._scan_denominators

    def counting(dens, bound):
        scans.append(bound)
        return real(dens, bound)

    monkeypatch.setattr(denoms, "_scan_denominators", counting)
    for bound in (1, 50, denoms.DEFAULT_FACTOR_BOUND):
        report = verify_ubd(mf, factor_bound=bound)
        assert report.dens_d == tuple(denominator_of(z) for z in t.d) and scans == []
        assert report.scan_d == tuple(real(list(report.dens_d), bound))
        assert report.scan_d is report.scan_d and scans == [bound]
        scans.clear()
    monkeypatch.undo()


@pytest.mark.parametrize(
    "params",
    [M2, params_from_exponents(seed_exponents("m5")), V3, lattice_120_instance(0),
     lattice_120_instance(2)],
    ids=["m2", "m5", "v3", "l2=1/5", "k0=2"],
)
def test_integer_form_reads_match_the_values(params, monkeypatch):
    _assert_reads_match_the_values(params, 40, monkeypatch)


@given(instances())
@settings(max_examples=20, deadline=None)
def test_integer_form_reads_match_the_values_on_generated_instances(params):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_reads_match_the_values(params, 12, monkeypatch)


# ---------------------------------------------------------------------------
# the scans against the loops they replaced
# ---------------------------------------------------------------------------


def _reference_factor_trial(n, bound):
    """Trial division by every odd d (and 2) up to the bound, one division per unit of exponent."""
    n = abs(n)
    factors = {}
    d = 2
    while d <= bound and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if 1 < n <= bound * bound:
        factors[n] = factors.get(n, 0) + 1
        n = 1
    return factors, n


def _reference_scan_rows(dens, params, Kmax, S, c=(1, 0), map_den=1):
    """The row scan with Miller-Rabin per row and a first-hit search from index 1 per prime."""
    c1, c2 = c
    rows = []
    for K in range(1, Kmax + 1):
        p = params.u + K * params.v
        if p not in S:
            rows.append(denoms.UbdRow(K, p, p >= 2 and is_prime(p), False, (), None, None))
            continue
        exempt = side_condition_audit(params, p, K)
        if map_den % p == 0:
            exempt.append("p divides denominator of a map coefficient")
        factor = c1 + c2 * (K + params.l1)
        norm = norm_trace(factor)[0]
        if norm.numerator % p == 0 or norm.denominator % p == 0:
            exempt.append(f"leading factor {factor}")
        first = next((i for i in range(1, len(dens)) if dens[i] % p == 0), None)
        rows.append(denoms.UbdRow(K, p, True, True, tuple(exempt), dens[K] % p == 0, first))
    return rows


def _reference_records(dens, bound):
    return [denoms.ScanRecord(i, d, *_reference_factor_trial(d, bound)) for i, d in enumerate(dens)]


def _assert_report_matches_the_reference(params, Kmax, factor_bound=denoms.DEFAULT_FACTOR_BOUND):
    mf = minimal_form(params, Kmax, "both")
    report = verify_ubd(mf, factor_bound=factor_bound)
    t = mf.tables
    dens_d, dens_h, dens_dt = ([denominator_of(z) for z in seq] for seq in (t.d, t.h, t.d_tilde))
    sets = prime_sets(params, abs(params.u) + Kmax * params.v)
    assert list(report.scan_d) == _reference_records(dens_d, factor_bound)
    assert list(report.rows_d) == _reference_scan_rows(dens_d, params, Kmax, sets.S)
    assert list(report.rows_h) == _reference_scan_rows(dens_h, params, Kmax, sets.S)
    mirrored = params.mirrored()
    assert list(report.rows_d_tilde) == _reference_scan_rows(dens_dt, mirrored, Kmax, sets.S_tilde)
    return dens_d


@pytest.mark.parametrize("params", [M2, params_from_exponents(seed_exponents("m5")), V3],
                         ids=["m2", "m5", "v3"])
def test_verify_ubd_scans_match_the_reference_loops_at_kmax_80(params):
    dens = _assert_report_matches_the_reference(params, 80)
    for bound in (1, 2, 7):
        assert denoms._scan_denominators(dens, bound) == _reference_records(dens, bound)


@given(instances())
@settings(max_examples=20, deadline=None)
def test_verify_ubd_scans_match_the_reference_loops_on_generated_instances(params):
    _assert_report_matches_the_reference(params, 16, 50)


def test_weighted_row_scans_match_the_reference_loop():
    # c2 != 0: the leading factor moves with K; map_den 7 exempts p = 7
    mf = minimal_form(V3, 40, "both")
    dens = [denominator_of(z) for z in mf.tables.d]
    S = prime_sets(V3, 200).S
    primes = set(primes_upto(200))
    for c, map_den in (((2, 1), 7), ((Fraction(1, 3), Fraction(-2, 5)), 5), ((1, 0), 1)):
        got = denoms._scan_rows(dens, V3, 40, S, primes, c, map_den)
        assert got == _reference_scan_rows(dens, V3, 40, S, c, map_den)


# a prime above the bound, p^2 with p <= bound < p^2, composite cofactors,
# large exponents, 0 and 1
HANDMADE = (
    0, 1, -1, 2, 49, 3 * 11**2, 1009, 10007, 101 * 103, 2**5 * 101 * 103, -(3**500) * 5**7 * 2**64,
    7**2 * 10007, 13**3 * 1009**2, 2 * 3 * 5 * 7 * 11 * 13 * 1000003, 999983**2,
)


@pytest.mark.parametrize("bound", [1, 2, 7, 10, 11, 100, 1000])
def test_factor_trial_matches_the_reference_loop(bound):
    for n in HANDMADE:
        assert factor_trial(n, bound) == _reference_factor_trial(n, bound), n
    assert denoms._scan_denominators(list(HANDMADE), bound) == _reference_records(HANDMADE, bound)


def test_the_shared_sieve_never_passes_the_factor_bound(monkeypatch):
    sieved = []

    def recording(bound):
        sieved.append(bound)
        return primes_upto(bound)

    monkeypatch.setattr(denoms, "primes_upto", recording)
    records = denoms._scan_denominators([10007, 2**40, 999983 * 1000003], 5000)
    assert [r.cofactor for r in records] == [1, 1, 999983 * 1000003]
    assert sieved == sorted(sieved) and max(sieved) == 5000
    sieved.clear()
    denoms._scan_denominators([2**10 * 3**7 * 97], 10**6)  # no root past 97 is needed
    assert max(sieved) < 200
