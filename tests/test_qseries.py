"""Truncated pure q-expansion arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvmf2.errors import ConfigError, TruncationError
from vvmf2.qseries import PureQSeries, equal_through, int_from_json
from vvmf2.quadratic import QuadNum, gen_binomial

small_fracs = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)


def series_from(coeffs, lead=0, step=1):
    return PureQSeries.make(lead, coeffs, step)


series_strategy = st.builds(
    series_from,
    st.lists(small_fracs, min_size=1, max_size=8),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]),
)


def test_mul_examples():
    u = series_from([1, 1, 0])
    v = series_from([1, -1, 0])
    prod = u * v
    assert prod.coeff(0) == 1 and prod.coeff(1) == 0 and prod.coeff(2) == -1
    root = PureQSeries.make(Fraction(1, 2), [1])
    assert (root * root).lead == 1


def test_mul_min_truncation():
    u = series_from([1, 2, 3, 4, 5])
    v = series_from([1, 1])
    assert (u * v).order == v.order


def test_inv_examples():
    geom = series_from([1, -1, 0, 0, 0, 0]).inv()
    assert [geom.coeff(n) for n in range(5)] == [1, 1, 1, 1, 1]
    q = PureQSeries.make(1, [1, 0, 0])
    assert q.inv().lead == -1
    s = series_from([1, 8, 28]).inv()
    assert [s.coeff(n) for n in range(3)] == [1, -8, 36]
    with pytest.raises(ZeroDivisionError):
        PureQSeries.zero(5).inv()


@given(series_strategy)
@settings(max_examples=100)
def test_inv_two_sided(u):
    if u.is_zero or not u.coeffs[0]:
        return
    left = u.inv() * u
    right = u * u.inv()
    for n in range(len(left.coeffs)):
        e = left.lead + n * left.step
        want = 1 if e == 0 else 0
        assert left.coeff(e) == want and right.coeff(e) == want


def test_pow_binomial_examples():
    u = series_from([1, 1, 0, 0])
    half = u.pow_binomial(Fraction(1, 2))
    assert half.coeff(0) == 1
    assert half.coeff(1) == Fraction(1, 2)
    assert half.coeff(2) == Fraction(-1, 8)
    assert u.pow_binomial(0).coeff(0) == 1 and u.pow_binomial(0).is_zero is False
    with pytest.raises(ValueError):
        PureQSeries.make(1, [1, 1]).pow_binomial(Fraction(1, 2))
    with pytest.raises(ValueError):
        series_from([2, 1]).pow_binomial(Fraction(1, 2))


def test_pow_binomial_matches_literal_sum():
    # oracle: sum_t C(gamma, t) X^t evaluated term by term
    for gamma in (Fraction(1, 2), Fraction(-3, 4), QuadNum(Fraction(1), Fraction(1), 2)):
        u = series_from([1, 3, -2, 5, 1, -1])
        x = u - PureQSeries.constant(1, len(u.coeffs))
        total = PureQSeries.constant(1, len(u.coeffs))
        xpow = PureQSeries.constant(1, len(u.coeffs))
        for t in range(1, len(u.coeffs)):
            xpow = xpow * x
            total = total + xpow * gen_binomial(gamma, t)
        fast = u.pow_binomial(gamma)
        for n in range(len(u.coeffs) - 1):
            assert fast.coeff(n) == total.coeff(n)


@given(
    st.lists(small_fracs, min_size=2, max_size=6),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4),
)
@settings(max_examples=60)
def test_pow_binomial_additivity(tail, g1, g2):
    u = series_from([1] + tail)
    lhs = u.pow_binomial(g1) * u.pow_binomial(g2)
    rhs = u.pow_binomial(g1 + g2)
    for n in range(len(rhs.coeffs)):
        if n < lhs.horizon:
            assert lhs.coeff(n) == rhs.coeff(n)


def test_theta_examples():
    mono = PureQSeries.make(7, [1])
    assert mono.theta().coeff(7) == 7
    s = PureQSeries.make(Fraction(1, 2), [1, 1]).theta()
    assert s.coeff(Fraction(1, 2)) == Fraction(1, 2)
    assert s.coeff(Fraction(3, 2)) == Fraction(3, 2)
    assert PureQSeries.constant(5, 4).theta().is_zero


@given(series_strategy, series_strategy)
@settings(max_examples=100)
def test_theta_leibniz(u, v):
    lhs = (u * v).theta()
    rhs = u.theta() * v + u * v.theta()
    diff = lhs - rhs
    assert diff.is_zero


def test_lead_arithmetic():
    u = PureQSeries.make(Fraction(1, 2), [2, 1])
    v = PureQSeries.make(Fraction(-1, 3), [3, 1])
    assert (u * v).lead == Fraction(1, 6)
    assert u.inv().lead == Fraction(-1, 2)
    w = series_from([1, 4, 1]).pow_binomial(Fraction(2, 3))
    assert w.lead == 0


def test_derived_lattice_and_truncation():
    u = PureQSeries.make(0, [1, 1], 1)
    v = PureQSeries.make(Fraction(1, 5), [1, 1], 1)
    assert PureQSeries.make(Fraction(1, 5), [1]).lattice == 120
    assert (u * v).lattice == 120
    with pytest.raises(TruncationError):
        u.coeff(2)
    assert u.coeff(Fraction(1, 2)) == 0  # off-grid but below the horizon


def test_zero_series_bookkeeping():
    z = PureQSeries.zero(4)
    assert z.is_zero and z.horizon == 4
    u = series_from([1, 2, 3])
    assert (u - u).is_zero and (u - u).horizon == 3
    prod = z * u
    assert prod.is_zero and prod.horizon == 4


def test_equal_through_demands_knowledge():
    u = series_from([1, 2, 3])
    v = series_from([1, 2, 3])
    assert equal_through(u, v, 2)
    with pytest.raises(TruncationError):
        equal_through(u, v, 5)


def test_rescale_and_shift():
    u = series_from([1, 2], lead=Fraction(1, 12))
    r = u.rescale(2)
    assert r.lead == Fraction(1, 6) and r.step == 2
    s = u.shifted(Fraction(1, 4))
    assert s.lead == Fraction(1, 3)


def test_quadnum_coefficients():
    w = QuadNum(Fraction(1), Fraction(1), 2)
    u = PureQSeries.make(0, [1, w, 2])
    sq = u * u
    assert sq.coeff(1) == 2 * w
    assert sq.coeff(2) == w * w + 4


mixed_series = st.builds(
    lambda coeffs, lead_num, step: PureQSeries.make(
        Fraction(lead_num, step.denominator), coeffs, step
    ),
    st.lists(small_fracs, min_size=1, max_size=6),
    st.integers(min_value=-6, max_value=6),
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]),
)


@given(mixed_series, mixed_series, mixed_series)
@settings(max_examples=120)
def test_distributivity_on_mixed_grids(u, v, w):
    lhs = (u + v) * w
    rhs = u * w + v * w
    diff = lhs - rhs
    assert diff.is_zero


@given(mixed_series, mixed_series, mixed_series)
@settings(max_examples=120)
def test_associativity_on_mixed_grids(u, v, w):
    diff = (u * v) * w - u * (v * w)
    assert diff.is_zero


@given(mixed_series, mixed_series)
@settings(max_examples=120)
def test_leibniz_on_mixed_grids(u, v):
    diff = (u * v).theta() - (u.theta() * v + u * v.theta())
    assert diff.is_zero


@given(mixed_series)
@settings(max_examples=120)
def test_coeff_reads_match_grid(u):
    for i, c in enumerate(u.coeffs):
        assert u.coeff(u.lead + i * u.step) == c
    if not u.is_zero:
        assert u.coeff(u.lead - u.step) == 0
    with pytest.raises(TruncationError):
        u.coeff(u.horizon)


@given(mixed_series, mixed_series)
@settings(max_examples=120)
def test_lead_additivity(u, v):
    prod = u * v
    if u.is_zero or v.is_zero:
        assert prod.is_zero
    else:
        assert prod.lead == u.lead + v.lead
        assert prod.coeff(prod.lead) == u.coeffs[0] * v.coeffs[0]


# -- the integer kernel against schoolbook field arithmetic ------------------
#
# Products, inverses and powers run on plain integers over one common
# denominator.  The references below are the term-by-term Fraction/QuadNum
# schoolbook algorithms they replaced, so any slip in a denominator, a
# sqrt(M) part or a grid index shows up as a coefficient mismatch.

_kernel_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _field_values(M):
    if M is None:
        return st.one_of(st.just(Fraction(0)), _kernel_fracs)
    return st.one_of(
        st.just(Fraction(0)),
        _kernel_fracs,
        st.builds(lambda a, b: QuadNum(a, b, M), _kernel_fracs, _kernel_fracs),
    )


@st.composite
def _kernel_series(draw, M, min_size=0):
    step = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]))
    lead = draw(st.sampled_from([Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(1, 12)]))
    coeffs = draw(st.lists(_field_values(M), min_size=min_size, max_size=9))
    return PureQSeries.make(lead, coeffs, step)


_fields = st.sampled_from([None, 2, 5, -1])


def _naive_mul(u, v):
    """Schoolbook product on the finest common grid, with the same truncation."""
    a, b = u.step, v.step
    g = Fraction(math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                 a.denominator * b.denominator)
    lead = u.lead + v.lead
    horizon = min(u.horizon + v.lead, v.horizon + u.lead)
    out = [Fraction(0)] * int((horizon - lead) / g)
    for i, x in enumerate(u.coeffs):
        for j, y in enumerate(v.coeffs):
            k = int((i * u.step + j * v.step) / g)
            if k < len(out):
                out[k] = out[k] + x * y
    return PureQSeries.make(lead, out, g)


def _naive_inv(u):
    c = u.coeffs
    b0 = c[0].inverse() if isinstance(c[0], QuadNum) else 1 / c[0]
    out = [b0]
    for i in range(1, len(c)):
        acc = sum((c[j] * out[i - j] for j in range(1, i + 1)), Fraction(0))
        out.append(-b0 * acc)
    return PureQSeries(-u.lead, u.step, tuple(out))


def _naive_pow(u, n):
    base = _naive_inv(u) if n < 0 else u
    out = base
    for _ in range(abs(n) - 1):
        out = _naive_mul(out, base)
    return out


def _same(s, t):
    assert (s.lead, s.step, s.horizon, s.lattice) == (t.lead, t.step, t.horizon, t.lattice)
    assert s.coeffs == t.coeffs


@given(_fields.flatmap(lambda M: st.tuples(_kernel_series(M), _kernel_series(M))))
@settings(max_examples=150, deadline=None)
def test_kernel_mul_matches_schoolbook(pair):
    u, v = pair
    prod = u * v
    if u.is_zero or v.is_zero:
        assert prod.is_zero
        return
    _same(prod, _naive_mul(u, v))


@given(_fields.flatmap(lambda M: _kernel_series(M, min_size=1)))
@settings(max_examples=150, deadline=None)
def test_kernel_inv_matches_schoolbook(u):
    if u.is_zero:
        with pytest.raises(ZeroDivisionError):
            u.inv()
        return
    _same(u.inv(), _naive_inv(u))


@given(
    _fields.flatmap(lambda M: _kernel_series(M, min_size=1)),
    st.sampled_from([-3, -2, -1, 1, 2, 3, 5]),
)
@settings(max_examples=100, deadline=None)
def test_kernel_pow_matches_schoolbook(u, n):
    if u.is_zero:
        return
    _same(u**n, _naive_pow(u, n))


def test_kernel_inv_non_unit_leading_terms():
    # c0 = 3/32 as in 6J, a QuadNum c0, and a tail that stays non-integral
    # after c0 is factored out (L > 1)
    w = QuadNum(Fraction(1, 2), Fraction(3), 5)
    for coeffs in (
        [Fraction(3, 32), Fraction(-9, 4), Fraction(27, 16), 5],
        [w, 1, Fraction(2, 7), w * w, -3],
        [Fraction(2, 3), Fraction(1, 5), Fraction(-7, 11), Fraction(1, 9), Fraction(5, 2)],
        [QuadNum(0, Fraction(1, 3), 2), Fraction(1, 2), QuadNum(1, Fraction(1, 7), 2)],
    ):
        u = PureQSeries.make(Fraction(-1, 2), coeffs)
        _same(u.inv(), _naive_inv(u))
        one = u * u.inv()
        assert one.coeffs == (1,) + (0,) * (len(coeffs) - 1)


def test_kernel_rejects_mixed_fields():
    r2 = QuadNum(Fraction(0), Fraction(1), 2)
    r5 = QuadNum(Fraction(0), Fraction(1), 5)
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        PureQSeries.make(0, [1, r2]) * PureQSeries.make(0, [1, r5])
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        PureQSeries.make(0, [1, r2, r5]).inv()


def test_int_from_json_takes_integers_and_digit_strings_only():
    assert int_from_json(7, "kmax") == 7
    assert int_from_json("12", "eta power") == 12
    assert int_from_json("-4", "eta power") == -4
    for value in (6.9, 8.0, True, False, None, "ten", [3]):
        with pytest.raises(ConfigError, match="kmax must be an integer"):
            int_from_json(value, "kmax")
