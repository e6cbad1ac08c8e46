"""Truncated pure q-expansion arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvmf2 import qseries
from vvmf2.errors import ConfigError, TruncationError
from vvmf2.qseries import PureQSeries, _conv, _iconv, _toeplitz, equal_through, int_from_json
from vvmf2.quadratic import QuadNum, denominator_of, gen_binomial

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
    assert (u * v).length == v.length


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


def _qgcd(a, b):
    """Positive generator of the group Z*a + Z*b inside Q."""
    return Fraction(math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                    a.denominator * b.denominator)


def _naive_mul(u, v):
    """Schoolbook product on the finest common grid, with the same truncation."""
    g = _qgcd(u.step, v.step)
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
    b0 = 1 / c[0]
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


def _irrational(u):
    return u.integer_form()[2] is not None


def _refuses_inverse(u, invert=PureQSeries.inv):
    """inv, and so every negative power, takes rational series only."""
    with pytest.raises(ValueError, match=r"cannot invert a series with a sqrt\(-?\d+\) part"):
        invert(u)


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
    elif _irrational(u):
        _refuses_inverse(u)
    else:
        _same(u.inv(), _naive_inv(u))


@given(
    _fields.flatmap(lambda M: _kernel_series(M, min_size=1)),
    st.sampled_from([-3, -2, -1, 1, 2, 3, 5]),
)
@settings(max_examples=100, deadline=None)
def test_kernel_pow_matches_schoolbook(u, n):
    if u.is_zero:
        return
    if n < 0 and _irrational(u):
        _refuses_inverse(u, lambda u: u**n)
        return
    _same(u**n, _naive_pow(u, n))


def test_kernel_inv_non_unit_leading_terms():
    # c0 = 3/32 as in 6J, and a tail that stays non-integral after c0 is
    # factored out (L > 1)
    for coeffs in (
        [Fraction(3, 32), Fraction(-9, 4), Fraction(27, 16), 5],
        [Fraction(2, 3), Fraction(1, 5), Fraction(-7, 11), Fraction(1, 9), Fraction(5, 2)],
    ):
        u = PureQSeries.make(Fraction(-1, 2), coeffs)
        _same(u.inv(), _naive_inv(u))
        one = u * u.inv()
        assert one.coeffs == (1,) + (0,) * (len(coeffs) - 1)


def test_kernel_inv_refuses_an_irrational_series():
    # a QuadNum c0, an irrational tail behind a rational c0, and a sqrt(M) part at the end only
    w = QuadNum(Fraction(1, 2), Fraction(3), 5)
    for coeffs in (
        [w, 1, Fraction(2, 7), w * w, -3],
        [Fraction(1, 2), QuadNum(0, Fraction(1, 3), 2), QuadNum(1, Fraction(1, 7), 2)],
        [1, 2, 3, QuadNum(0, 1, 3)],
    ):
        u = PureQSeries.make(Fraction(-1, 2), coeffs)
        _refuses_inverse(u)
        _refuses_inverse(u, lambda u: u**-2)
    # a zero sqrt(M) part is stored rational, so it inverts
    r = PureQSeries.make(0, [QuadNum(2, 0, 5), QuadNum(1, 0, 5)])
    assert r.inv().coeffs[:2] == (Fraction(1, 2), Fraction(-1, 4))


def test_kernel_rejects_mixed_fields():
    r2 = QuadNum(Fraction(0), Fraction(1), 2)
    r5 = QuadNum(Fraction(0), Fraction(1), 5)
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        PureQSeries.make(0, [1, r2]) * PureQSeries.make(0, [1, r5])
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        PureQSeries.make(0, [1, r2, r5]).inv()


# -- long products: Kronecker substitution against schoolbook -----------------
#
# ``_conv`` packs long products with narrow entries into one int each.  The
# hypothesis strategies above draw at most 9 coefficients and never reach
# that path; these cases sit on both sides of its two cutoffs.

_MIN_LEN, _MAX_BITS = qseries._KRONECKER_MIN_LEN, qseries._KRONECKER_MAX_BITS


@pytest.fixture
def slot_widths(monkeypatch):
    """The slot width in bits of every Kronecker product run while the fixture is active."""
    widths = []
    real = qseries._kronecker

    def spy(a, b, n, w):
        widths.append(8 * w)
        return real(a, b, n, w)

    monkeypatch.setattr(qseries, "_kronecker", spy)
    return widths


def _schoolbook(a, b, n):
    return _iconv(a[:n], _toeplitz(b[:n], n))


def _entries(rng, length, bits, shape):
    top = 2**bits
    if shape == "all-negative":
        return [-rng.randint(1, top) for _ in range(length)]
    if shape == "zero-runs":
        # three entries, then a run of 22 zeros, repeated
        return [rng.randint(-top, top) if i % 25 < 3 else 0 for i in range(length)]
    return [rng.choice((0, rng.randint(-top, top))) for _ in range(length)]


@pytest.mark.parametrize("shape", ["mixed", "all-negative", "zero-runs"])
@pytest.mark.parametrize(
    "length, bits, narrow",
    [
        (_MIN_LEN - 1, 8, True),  # too short at n = length, long enough at n = length + 7
        (_MIN_LEN, 8, True),
        (_MIN_LEN + 1, 1, True),
        (150, 140, True),  # slot just under the bit cutoff
        (150, 160, False),  # slot just over it
        (210, 35, True),
    ],
)
def test_conv_matches_schoolbook_across_both_cutoffs(slot_widths, length, bits, narrow, shape):
    rng = random.Random(length * 1000 + bits)
    a = _entries(rng, length, bits, shape)
    b = _entries(rng, length, bits, "mixed")
    half = b[: length // 2]
    for x, y, n in ((a, b, length), (b, a, length + 7), (a, a, length), (a, half, length)):
        slot_widths.clear()
        assert _conv(x, y, n) == _schoolbook(x, y, n)
        assert bool(slot_widths) == (narrow and n >= _MIN_LEN and any(x[:n]) and any(y[:n]))
        assert all(w <= _MAX_BITS for w in slot_widths)


def test_conv_reaches_past_both_operands(slot_widths):
    a, b = [3, -1, 0, 7] * 12, [-2, 5] * 20
    for n in (len(a) + len(b), 150):
        got = _conv(a, b, n)
        assert got == _schoolbook(a, b, n)
        assert len(got) == n and not any(got[len(a) + len(b) - 1 :])
    assert slot_widths


@pytest.mark.parametrize("w", [1, 2, 8, _MAX_BITS // 8])
def test_conv_fills_each_slot_to_its_extremes(slot_widths, w):
    # entries at +-(2^(8w - 1) - 1) times a unit: the bound is exactly the largest slot value
    top = 2 ** (8 * w - 1) - 1
    a = [top, -top, 0, -top, top, top, -top, -top] * (_MIN_LEN // 4)
    for unit in ([1], [-1]):
        n = len(a)
        assert _conv(a, unit, n) == _schoolbook(a, unit, n)
        assert slot_widths[-1] == 8 * w
    # m^2 * length is both the bound and the reached coefficient, of either sign
    m = 2**29 - 1
    for sign in (1, -1):
        a, b = [sign * m] * _MIN_LEN, [m] * _MIN_LEN
        got = _conv(a, b, _MIN_LEN)
        assert got == _schoolbook(a, b, _MIN_LEN) and got[-1] == sign * m * m * _MIN_LEN


def _width_operands(rng, w, shape):
    """Two operands of _MIN_LEN entries whose slot bound takes exactly w bytes."""
    top = 2 ** (8 * w - 1) - 1
    if shape == "extremes":  # +-top times a unit: the bound is the largest slot value
        return [rng.choice((top, -top)) for _ in range(_MIN_LEN)], [rng.choice((1, -1))]
    m = max(1, math.isqrt(top // _MIN_LEN))  # m^2 * _MIN_LEN <= top, the bound reached
    if shape == "all-negative":  # the last coefficient of the product is the bound itself
        return [-m] * _MIN_LEN, [-m] * _MIN_LEN
    # alternating signs
    a = [(-1) ** i * (m if i == 0 else rng.randint(1, m)) for i in range(_MIN_LEN)]
    b = [(-1) ** (i + 1) * (m if i == 1 else rng.randint(1, m)) for i in range(_MIN_LEN)]
    return a, b


@pytest.mark.parametrize("shape", ["all-negative", "alternating", "extremes"])
@pytest.mark.parametrize("w", range(1, _MAX_BITS // 8 + 1))
def test_conv_matches_schoolbook_at_every_slot_width(slot_widths, w, shape):
    rng = random.Random(w)
    a, b = _width_operands(rng, w, shape)
    for x, y in ((a, b), (b, a)):
        slot_widths.clear()
        assert _conv(x, y, _MIN_LEN) == _schoolbook(x, y, _MIN_LEN)
        assert slot_widths == [8 * w]
    assert _conv(a, a, _MIN_LEN) == _schoolbook(a, list(a), _MIN_LEN)  # a square, either path


@pytest.mark.parametrize(
    "length, bits, narrow",
    [(_MIN_LEN - 1, 8, True), (_MIN_LEN, 8, True), (150, 140, True), (150, 160, False)],
)
def test_a_square_matches_schoolbook_on_both_paths(slot_widths, length, bits, narrow):
    rng = random.Random(length + bits)
    a = _entries(rng, length, bits, "mixed")
    for n in (length, length + 9):
        slot_widths.clear()
        assert _conv(a, a, n) == _schoolbook(a, list(a), n)
        assert bool(slot_widths) == (narrow and n >= _MIN_LEN)
    u = PureQSeries.make(0, [Fraction(c, 7) for c in a])
    _same(u * u, _naive_mul(u, u))
    _same(u**2, _naive_pow(u, 2))


def test_a_square_packs_its_operand_once(monkeypatch):
    packed = []
    real = qseries._pack

    def pack(a, w):
        packed.append(len(a))
        return real(a, w)

    monkeypatch.setattr(qseries, "_pack", pack)
    a = [(-1) ** i * (3 * i + 1) for i in range(2 * _MIN_LEN)]
    assert _conv(a, a, len(a)) == _schoolbook(a, a, len(a)) and packed == [len(a)]
    packed.clear()
    assert _conv(a, list(a), len(a)) == _schoolbook(a, a, len(a)) and packed == [len(a)] * 2
    packed.clear()
    u = PureQSeries.make(0, a)
    assert u * u == u**2 and packed == [len(a)] * 2  # one pack per square


def test_split_of_integers_is_the_integer_form_of_the_general_path():
    ints = [3, 0, -7, 2**70, 1]
    L, parts, M = qseries._split(ints)
    assert (L, parts, M) == qseries._split([Fraction(c) for c in ints]) == (1, [ints], None)
    assert parts[0] is not ints and all(type(x) is int for x in parts[0])
    assert qseries._split([]) == qseries._split(()) == (1, [[]], None)
    # a bool or a Fraction among the values takes the general path, which writes plain ints
    for values, want in (([1, True, 0], (1, [[1, 1, 0]], None)),
                         ([2, Fraction(1, 2)], (2, [[4, 1]], None))):
        got = qseries._split(values)
        assert got == want and all(type(x) is int for x in got[1][0])


def test_conv_of_a_zero_operand_is_zero():
    assert _conv([0] * 50, [2**400] * 50, 50) == [0] * 50
    assert _conv([], [1] * 50, 45) == [0] * 45


def _long_series(rng, M, length, zero_run=False):
    def value():
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        if M is None or rng.random() < 0.3:
            return x
        return QuadNum(x, Fraction(rng.randint(-20, 20), rng.randint(1, 12)), M)

    coeffs = [value() for _ in range(length)]
    coeffs[0] = coeffs[0] or Fraction(1)
    if zero_run:
        coeffs[5:length - 5] = [Fraction(0)] * (length - 10)
    return PureQSeries.make(Fraction(rng.choice([0, -1, 1])), coeffs)


@pytest.mark.parametrize("M", [None, 2, -1])
@pytest.mark.parametrize("zero_run", [False, True])
def test_long_series_products_inverses_and_powers_match_schoolbook(slot_widths, M, zero_run):
    rng = random.Random(7 if M is None else M)
    u = _long_series(rng, M, 2 * _MIN_LEN, zero_run)
    v = _long_series(rng, M, _MIN_LEN + 5)
    _same(u * v, _naive_mul(u, v))
    w = u.shifted(Fraction(1, 2)).rescale(2)  # on the grid 1 + 2Z, so v * w runs on v's grid
    _same(v * w, _naive_mul(v, w))
    _same(v**3, _naive_pow(v, 3))
    if M is None:
        _same(u.inv(), _naive_inv(u))
        _same(v**-2, _naive_pow(v, -2))
    else:
        _refuses_inverse(u)
        _refuses_inverse(v, lambda v: v**-2)
    assert slot_widths


def test_int_from_json_takes_integers_and_digit_strings_only():
    assert int_from_json(7, "kmax") == 7
    assert int_from_json("12", "eta power") == 12
    assert int_from_json("-4", "eta power") == -4
    for value in (6.9, 8.0, True, False, None, "ten", [3]):
        with pytest.raises(ConfigError, match="kmax must be an integer"):
            int_from_json(value, "kmax")


# -- the stored integer form against schoolbook field arithmetic -------------
#
# A series stores its coefficients as integers over one least common
# denominator and nothing else.  Each operation is compared with a
# reference that works value by value, and every result must keep the
# invariants of the integer form.

_steps = st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 4)])
_leads = st.sampled_from(
    [Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(1, 5), Fraction(-7, 5), Fraction(3, 4)]
)

@st.composite
def _stored_series(draw, M=None):
    M = draw(st.sampled_from([None, 2])) if M is None else M
    coeffs = draw(st.lists(_field_values(M), max_size=8))
    return PureQSeries.make(draw(_leads), coeffs, draw(_steps))


def _assert_reduced(s):
    den, parts, M = s.integer_form()
    assert den > 0
    assert math.gcd(den, *(x for p in parts for x in p)) == 1
    assert (M is None) == (len(parts) == 1)
    assert M is None or any(parts[1])  # the field is Q(sqrt(M)) only for an irrational series


def _ref_combine(u, v, sign):
    """u + sign*v term by term, known below the nearer horizon.

    The grid holds the terms of both and the horizon itself, so a zero
    summand known only below an off-grid exponent refines the grid.
    """
    horizon = min(u.horizon, v.horizon)
    live = [s for s in (u, v) if not s.is_zero]
    if not live:
        return PureQSeries.zero(horizon, u.step)
    lead = min(s.lead for s in live)
    g = live[0].step
    for s in live:
        g = _qgcd(_qgcd(g, s.step), s.lead - lead)
    if horizon > lead:
        g = _qgcd(g, horizon - lead)
    terms = {}
    for s, f in ((u, 1), (v, sign)):
        for i, c in enumerate(s.coeffs):
            e = s.lead + i * s.step
            if e < horizon:
                terms[e] = terms.get(e, Fraction(0)) + f * c
    if horizon <= lead:
        return PureQSeries.zero(horizon, g)
    n = int((horizon - lead) / g)
    return PureQSeries.make(lead, [terms.get(lead + i * g, Fraction(0)) for i in range(n)], g)


def _ref_scaled(u, c):
    if u.is_zero or not c:
        return PureQSeries.zero(u.horizon, u.step)
    return PureQSeries.make(u.lead, [c * x for x in u.coeffs], u.step)


def _ref_theta(u):
    if u.is_zero:
        return u
    return PureQSeries.make(
        u.lead, [(u.lead + i * u.step) * x for i, x in enumerate(u.coeffs)], u.step
    )


def _ref_truncated(u, h):
    if h >= u.horizon:
        return u
    if u.is_zero or h <= u.lead:
        return PureQSeries.zero(min(h, u.horizon), u.step)
    return PureQSeries(u.lead, u.step, u.coeffs[: math.ceil((h - u.lead) / u.step)])


def _ref_pow(u, n):
    return PureQSeries.constant(1, max(len(u.coeffs), 1)) if n == 0 else _naive_pow(u, n)


_scalars = st.one_of(
    st.integers(-5, 5),
    _kernel_fracs,
    st.builds(lambda a, b: QuadNum(a, b, 2), _kernel_fracs, _kernel_fracs),
)

# name -> (operation, reference), both called with (u, v, extras)
_STORED_OPS = {
    "add": (lambda u, v, x: u + v, lambda u, v, x: _ref_combine(u, v, 1)),
    "sub": (lambda u, v, x: u - v, lambda u, v, x: _ref_combine(u, v, -1)),
    "neg": (lambda u, v, x: -u, lambda u, v, x: _ref_scaled(u, -1)),
    "scaled": (lambda u, v, x: u.scaled(x["c"]), lambda u, v, x: _ref_scaled(u, x["c"])),
    "theta": (lambda u, v, x: u.theta(), lambda u, v, x: _ref_theta(u)),
    "mul": (lambda u, v, x: u * v, lambda u, v, x: _naive_mul(u, v)),
    "inv": (lambda u, v, x: u.inv(), lambda u, v, x: _naive_inv(u)),
    "pow": (lambda u, v, x: u ** x["n"], lambda u, v, x: _ref_pow(u, x["n"])),
    "truncated_at": (
        lambda u, v, x: u.truncated_at(x["h"]),
        lambda u, v, x: _ref_truncated(u, x["h"]),
    ),
    "rescale": (
        lambda u, v, x: u.rescale(x["f"]),
        lambda u, v, x: PureQSeries(u.lead * x["f"], u.step * x["f"], u.coeffs),
    ),
    "shifted": (
        lambda u, v, x: u.shifted(x["d"]),
        lambda u, v, x: PureQSeries(u.lead + x["d"], u.step, u.coeffs),
    ),
}


@st.composite
def _stored_case(draw):
    u = draw(_stored_series())
    v = draw(_stored_series())
    if draw(st.booleans()):
        # v shares u's leading terms, so u - v (and u + (-v)) cancels them
        w = draw(_stored_series())
        v = u + w
    extras = {
        "c": draw(_scalars),
        "n": draw(st.sampled_from([-2, -1, 0, 1, 2, 3])),
        "h": draw(st.fractions(min_value=-2, max_value=6, max_denominator=10)),
        "f": draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3, 5)])),
        "d": draw(st.sampled_from([Fraction(0), Fraction(1, 5), Fraction(-3, 4), Fraction(2)])),
    }
    return u, v, extras


@pytest.mark.parametrize("name", list(_STORED_OPS))
@given(case=_stored_case())
@settings(max_examples=80, deadline=None)
def test_stored_integers_match_schoolbook(name, case):
    u, v, extras = case
    op, ref = _STORED_OPS[name]
    if name in ("inv", "pow") and u.is_zero:
        return
    if (name == "inv" or name == "pow" and extras["n"] < 0) and _irrational(u):
        _refuses_inverse(u, lambda u: op(u, v, extras))
        return
    got = op(u, v, extras)
    _assert_reduced(got)
    if name == "mul" and (u.is_zero or v.is_zero):
        assert got.is_zero
        return
    _same(got, ref(u, v, extras))


@given(_stored_series(), _stored_series())
@settings(max_examples=120, deadline=None)
def test_cancelled_leading_terms_keep_the_horizon(u, w):
    s = u + w
    diff = s - u
    if not (s.is_zero or u.is_zero):
        assert diff.horizon == min(s.horizon, u.horizon)
    _same(diff, _ref_combine(s, u, -1))
    _assert_reduced(diff)
    zero = s - s
    assert zero.is_zero and zero.horizon == s.horizon
    _assert_reduced(zero)


def test_a_zero_summand_lends_no_knowledge_past_its_horizon():
    # the zero summand is known only below q^(-2/5), between two grid points of the other
    s = PureQSeries.zero(Fraction(-2, 5), Fraction(1, 4)) + PureQSeries.make(
        Fraction(-1, 2), [1], Fraction(1, 4)
    )
    assert s.horizon == Fraction(-2, 5)
    assert s.coeff(Fraction(-1, 2)) == 1
    with pytest.raises(TruncationError):
        s.coeff(Fraction(-3, 10))
    half = PureQSeries.zero(Fraction(1, 2)) - PureQSeries.make(0, [1])
    assert (half.lead, half.horizon, half.coeffs) == (0, Fraction(1, 2), (-1,))


def test_two_fields_do_not_mix_in_sums_products_or_scalars():
    r2 = PureQSeries.make(0, [1, QuadNum(0, 1, 2)])
    r5 = PureQSeries.make(Fraction(1, 5), [QuadNum(1, 1, 5), 3])
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="mixed quadratic fields"):
            op(r2, r5)
        with pytest.raises(ValueError, match="mixed quadratic fields"):
            op(r5.scaled(1), r2.scaled(1))
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        r2.scaled(QuadNum(0, 1, 5))


def test_a_series_is_irrational_exactly_when_a_coefficient_is():
    x = PureQSeries.make(Fraction(1, 3), [1, QuadNum(Fraction(1, 2), 1, 2), Fraction(-2, 7)])
    x_bar = PureQSeries.make(x.lead, [1, QuadNum(Fraction(1, 2), -1, 2), Fraction(-2, 7)])
    one = PureQSeries.constant(1, 3).shifted(x.lead)
    r5 = PureQSeries.make(0, [QuadNum(1, 1, 5), 3])
    rational = {
        "x*conj(x)": x * x_bar,
        "x - x": x - x,
        "x - (x + 1)": x - (x + one),
        "prefix": x.truncated_at(x.lead + 1),
        "rational scaled": one.scaled(QuadNum(3, 0, 2)),
        "built": PureQSeries(Fraction(0), Fraction(1), (QuadNum(1, 0, 2), QuadNum(5, 0, 2))),
        "made": PureQSeries.make(0, [QuadNum(1, 0, 2), QuadNum(2, 0, 5)]),
    }
    for name, s in rational.items():
        assert s.integer_form()[2] is None, name
    assert (x * x_bar).coeffs == (1, 1, Fraction(-65, 28))
    assert all(isinstance(c, Fraction) for c in (x * x_bar).coeffs)
    # a zero-surd scalar is rational, so it scales a series of any field
    assert r5.scaled(QuadNum(3, 0, 2)).integer_form() == (1, [[3, 9], [3, 0]], 5)
    assert PureQSeries.make(0, [QuadNum(1, 0, 2), QuadNum(0, 1, 5)]).integer_form() == (
        1,
        [[1, 0], [0, 1]],
        5,
    )


def test_a_series_built_from_values_holds_its_integers_at_once():
    assert PureQSeries.__slots__ == ("lead", "step", "_den", "_parts", "_M")
    values = (Fraction(1, 2), Fraction(1, 3), QuadNum(0, 1, 2))
    for s in (
        PureQSeries(Fraction(1, 5), Fraction(1, 2), values),
        PureQSeries.make(Fraction(1, 5), values, Fraction(1, 2)),
    ):
        assert (s._den, s._parts, s._M) == (6, [[3, 2, 0], [0, 0, 6]], 2)
        assert s.coeffs == values


def test_prefixes_and_shifts_reuse_the_integer_form():
    s = PureQSeries.make(Fraction(1, 5), [Fraction(1, 2), Fraction(1, 3), 5, 7], Fraction(1, 2))
    head = s.truncated_at(s.lead + 1)
    assert head.integer_form() == (6, [[3, 2]], None)
    assert head.coeffs == (Fraction(1, 2), Fraction(1, 3))
    moved = s.rescale(2).shifted(1)
    assert moved.integer_form()[1] is s.integer_form()[1] and moved.coeffs == s.coeffs
    quad = PureQSeries.make(0, [1, 2]).scaled(QuadNum(0, 1, 2))
    assert all(isinstance(c, QuadNum) for c in quad.coeffs)


@pytest.mark.parametrize(
    "parts, lead, form",
    [
        # the rational part leads with zeros, the sqrt(2) part starts the series
        ([[0, 0, 4, 2], [0, 2, 0, 6]], Fraction(5, 6), (3, [[0, 2, 1], [1, 0, 3]], 2)),
        # the sqrt(2) part leads with zeros
        ([[0, 3, 0, 9], [0, 0, 0, 6]], Fraction(5, 6), (2, [[1, 0, 3], [0, 0, 2]], 2)),
        # an all-zero sqrt(2) part is dropped
        ([[0, 2, 4], [0, 0, 0]], Fraction(5, 6), (3, [[1, 2]], None)),
        # all zero: the zero series, known up to the same horizon
        ([[0, 0, 0, 0], [0, 0, 0, 0]], Fraction(11, 6), (1, [[]], None)),
    ],
)
def test_from_integers_strips_the_leading_zeros_of_either_part(parts, lead, form):
    step, den = Fraction(1, 3), 6
    s = PureQSeries.from_integers(Fraction(1, 2), step, den, parts, 2)
    horizon = Fraction(1, 2) + len(parts[0]) * step
    assert (s.lead, s.horizon, s.integer_form()) == (lead, horizon, form)
    values = [QuadNum(Fraction(x, den), Fraction(y, den), 2) for x, y in zip(*parts)]
    _same(s, PureQSeries.make(Fraction(1, 2), values, step))
    _assert_reduced(s)


def test_reduced_divides_both_parts_by_one_gcd():
    assert qseries._reduced(6, [[2, 4], [0, 8]]) == (3, [[1, 2], [0, 4]])
    assert qseries._reduced(6, [[0, 0], [0, 8]]) == (3, [[0, 0], [0, 4]])
    assert qseries._reduced(5, [[0, 0], [0, 3]]) == (5, [[0, 0], [0, 3]])
    assert qseries._reduced(6, [[0, 0], [0, 0]]) == (1, [[0, 0], [0, 0]])
    assert qseries._reduced(6, [[], []]) == (1, [[], []])
    parts = [[4, 6], [2, 8]]
    assert qseries._reduced(1, parts)[1] is parts


@given(st.sampled_from([None, 2, 3, 5, 13, -1, -3]).flatmap(_kernel_series))
@settings(max_examples=200, deadline=None)
def test_denominators_are_read_off_the_integer_form(s):
    # both rings of integers, zero and zero-surd coefficients in an irrational series
    assert s.denominators() == [denominator_of(c) for c in s.coeffs]


@pytest.mark.parametrize(
    "values", [(1, 2, 3), (QuadNum(1, 0, 2), QuadNum(2, 0, 2), QuadNum(3, 0, 5))]
)
def test_int_and_zero_surd_values_read_back_as_fractions(values):
    s = PureQSeries(Fraction(0), Fraction(1), values)
    for t in (s, s.shifted(Fraction(1, 2)), s.truncated_at(Fraction(2)), -(-s)):
        assert all(type(c) is Fraction for c in t.coeffs)
        assert type(t.coeff(t.lead + 1)) is Fraction
        assert qseries.to_json(t)["coefficients"] == ["1", "2", "3"][: t.length]


@st.composite
def _equality_case(draw):
    """Two series that often have the same coefficients, built along different paths."""
    u = draw(_kernel_series(draw(_fields)))
    c = draw(st.sampled_from([Fraction(3), Fraction(-2, 7), QuadNum(1, 1, 2)]))
    f, d = draw(st.sampled_from([Fraction(2), Fraction(1, 3)])), Fraction(1, 5)
    builds = {
        "drawn": lambda: draw(_kernel_series(draw(_fields))),
        "from values": lambda: PureQSeries(u.lead, u.step, u.coeffs),
        "zero-surd values": lambda: PureQSeries.make(
            u.lead, [x if isinstance(x, QuadNum) else QuadNum(x, 0, 5) for x in u.coeffs], u.step
        ),
        "negated twice": lambda: -(-u),
        "scaled back": lambda: u.scaled(c).scaled(1 / c) if u.integer_form()[2] in (None, 2) else u,
        "moved back": lambda: u.rescale(f).shifted(d).shifted(-d).rescale(1 / f),
        "times one": lambda: u * PureQSeries.constant(1, max(u.length, 1)),
        "prefix": lambda: u.truncated_at(u.horizon - u.step),
        "off-grid horizon": lambda: u + PureQSeries.zero(u.horizon - u.step / 2, u.step),
    }
    return u, builds[draw(st.sampled_from(sorted(builds)))]()


@given(_equality_case())
@settings(max_examples=300, deadline=None)
def test_equality_and_hash_follow_the_coefficients(case):
    u, v = case
    same = (u.lead, u.step, u.coeffs) == (v.lead, v.step, v.coeffs)
    assert (u == v) == (v == u) == same
    assert len({u, v}) == (1 if same else 2)
    if same:
        assert hash(u) == hash(v)
