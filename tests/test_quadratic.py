"""Exact quadratic-field arithmetic, denominators and symbol computations."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from vvmf2 import quadratic
from vvmf2.errors import PipelineMismatch
from vvmf2.quadratic import (
    HalfForm,
    QuadNum,
    denominator_of,
    gen_binomial,
    half_form,
    is_p_integral,
    is_prime,
    legendre,
    norm_trace,
    pochhammer,
    primes_upto,
)

SQRT2 = QuadNum(Fraction(0), Fraction(1), 2)
PHI = QuadNum(Fraction(1, 2), Fraction(1, 2), 5)

rationals = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=12
)


def quadnums(M: int = 2):
    return st.builds(lambda a, b: QuadNum(a, b, M), rationals, rationals)


def brute_force_denominator(z) -> int:
    """Independent oracle: try Z = 1, 2, 3, ... against trace/norm integrality."""
    norm, trace = norm_trace(z)
    Z = 1
    while True:
        if isinstance(z, QuadNum) and z.surd != 0:
            ok = (Z * trace).denominator == 1 and (Z * Z * norm).denominator == 1
        else:
            ok = (Z * Fraction(z) if not isinstance(z, QuadNum) else Z * z.rat).denominator == 1
        if ok:
            return Z
        Z += 1


def test_norm_trace_examples():
    assert norm_trace(SQRT2) == (Fraction(-2), Fraction(0))
    assert norm_trace(PHI) == (Fraction(-1), Fraction(1))
    assert norm_trace(Fraction(3)) == (Fraction(9), Fraction(6))


def test_field_axioms_spot():
    x = QuadNum(Fraction(3, 2), Fraction(-1, 3), 2)
    assert x * x.inverse() == 1
    assert x + (-x) == 0
    assert x.conjugate().conjugate() == x
    assert (x * SQRT2).norm() == x.norm() * SQRT2.norm()


def test_mixed_field_rejected():
    with pytest.raises(ValueError):
        SQRT2 + QuadNum(Fraction(0), Fraction(1), 3)
    with pytest.raises(ValueError):
        QuadNum(Fraction(1), Fraction(1), 4)  # not square-free


operands = st.one_of(st.integers(-50, 50), st.booleans(), rationals)
same_field_pairs = st.sampled_from([2, 5, -3]).flatmap(
    lambda M: st.tuples(quadnums(M), st.one_of(quadnums(M), operands))
)


@given(same_field_pairs)
@settings(max_examples=300)
def test_arithmetic_matches_the_validating_constructor(xy):
    # each result against its fields written out and built by the public constructor
    x, y = xy
    M = x.M
    ry, sy = (y.rat, y.surd) if isinstance(y, QuadNum) else (Fraction(y), Fraction(0))
    expected = {
        "x + y": (x.rat + ry, x.surd + sy), "y + x": (x.rat + ry, x.surd + sy),
        "x - y": (x.rat - ry, x.surd - sy), "y - x": (ry - x.rat, sy - x.surd),
        "x * y": (x.rat * ry + M * x.surd * sy, x.rat * sy + x.surd * ry),
        "y * x": (x.rat * ry + M * x.surd * sy, x.rat * sy + x.surd * ry),
        "-x": (-x.rat, -x.surd), "x.conjugate()": (x.rat, -x.surd),
    }
    got = {"x + y": x + y, "y + x": y + x, "x - y": x - y, "y - x": y - x,
           "x * y": x * y, "y * x": y * x, "-x": -x, "x.conjugate()": x.conjugate()}
    if ry or sy:
        n = ry * ry - M * sy * sy
        expected["x / y"] = ((x.rat * ry - M * x.surd * sy) / n, (x.surd * ry - x.rat * sy) / n)
        got["x / y"] = x / y
    for name, value in got.items():
        reference = QuadNum(*expected[name], M)
        assert type(value) is QuadNum and value == reference, name
        assert hash(value) == hash(reference), name
        assert (value.rat, value.surd, value.M) == (reference.rat, reference.surd, M), name
        assert type(value.rat) is Fraction and type(value.surd) is Fraction, name


@given(quadnums(2), quadnums(3))
@settings(max_examples=50)
def test_arithmetic_refuses_mixed_fields_and_floats(x, z):
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="mixed quadratic fields: M=2 vs M=3"):
            op(x, z)
        for a, b in ((x, 0.5), (0.5, x)):
            with pytest.raises(TypeError):
                op(a, b)
    if z:
        with pytest.raises(ValueError, match="mixed quadratic fields"):
            x / z
    with pytest.raises(TypeError):
        x / 0.5
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        x / QuadNum(0, 0, 3)  # the field is checked before the zero divisor
    with pytest.raises(ZeroDivisionError, match="division by zero in Q"):
        x / 0


def test_pochhammer_examples():
    assert pochhammer(SQRT2, 0) == 1
    assert pochhammer(Fraction(1), 5) == math.factorial(5)
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(SQRT2, 2) == QuadNum(Fraction(2), Fraction(1), 2)


def test_gen_binomial_examples():
    assert gen_binomial(SQRT2, 0) == 1
    assert gen_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert gen_binomial(SQRT2, 1) == SQRT2


@given(rationals, st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_pochhammer_additivity(z, m, n):
    assert pochhammer(z, m + n) == pochhammer(z, m) * pochhammer(z + m, n)


@given(quadnums(), st.integers(min_value=1, max_value=20))
def test_pascal_recurrence(z, t):
    assert gen_binomial(z, t) == gen_binomial(z - 1, t - 1) + gen_binomial(z - 1, t)


def test_legendre_examples():
    assert legendre(2, 7) == 1
    assert legendre(2, 3) == -1
    assert legendre(5, 5) == 0
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 9)


def test_legendre_against_enumeration():
    for p in primes_upto(200):
        if p == 2:
            continue
        squares = {(x * x) % p for x in range(1, p)}
        for M in range(-20, 21):
            expected = 0 if M % p == 0 else (1 if M % p in squares else -1)
            assert legendre(M, p) == expected


def test_denominator_examples():
    assert denominator_of(Fraction(1, 2)) == 2
    assert denominator_of(PHI) == 1
    assert denominator_of(SQRT2 / 2) == 2
    assert denominator_of(Fraction(0)) == 1
    assert denominator_of(QuadNum(Fraction(0), Fraction(0), 2)) == 1


@given(st.sampled_from([2, 3, 5, 6, 7, 13, -1, -3, -5]).flatmap(quadnums))
@settings(max_examples=300)
def test_denominator_minimality(z):
    assume(z)
    Z = denominator_of(z)
    assert Z == brute_force_denominator(z)
    norm, trace = norm_trace(Z * z)
    assert norm.denominator == 1 and trace.denominator == 1


def test_denominator_closed_form_on_both_ring_shapes():
    # Z[sqrt(M)] for M = 2, 3 (mod 4); Z[(1 + sqrt(M))/2] for M = 1 (mod 4)
    assert denominator_of(QuadNum(Fraction(1, 2), Fraction(1, 2), 3)) == 2
    assert denominator_of(QuadNum(Fraction(1, 2), Fraction(1, 2), -3)) == 1
    assert denominator_of(QuadNum(Fraction(1, 2), Fraction(0), 5)) == 2
    assert denominator_of(QuadNum(Fraction(1, 4), Fraction(1, 4), 5)) == 2
    assert denominator_of(QuadNum(Fraction(1, 4), Fraction(3, 4), 13)) == 2
    assert denominator_of(QuadNum(Fraction(1, 2), Fraction(1, 4), 5)) == 4
    assert denominator_of(QuadNum(Fraction(1, 3), Fraction(1, 5), 2)) == 15


def test_denominator_of_huge_coordinates_is_instant():
    # the coordinate denominators of a Pochhammer product run past 10^40; no
    # divisor search of them can finish, the closed form needs only gcds
    z = pochhammer(QuadNum(Fraction(1, 3), Fraction(1, 5), 2), 40)
    Z = denominator_of(z)
    assert Z == math.lcm(z.rat.denominator, z.surd.denominator) and Z > 10**40
    w = pochhammer(QuadNum(Fraction(1, 6), Fraction(1, 10), 5), 40)
    norm, trace = norm_trace(denominator_of(w) * w)
    assert norm.denominator == 1 and trace.denominator == 1


def test_is_p_integral_examples():
    assert is_p_integral(Fraction(1, 2), 3)
    assert not is_p_integral(Fraction(1, 3), 3)
    assert is_p_integral(PHI, 5)


@given(quadnums(5), quadnums(5), st.sampled_from([3, 7, 11, 13]))
@settings(max_examples=150)
def test_p_integral_ring_closure(z, w, p):
    assume(is_p_integral(z, p) and is_p_integral(w, p))
    assert is_p_integral(z + w, p)
    assert is_p_integral(z * w, p)


def test_half_form_examples():
    assert half_form(SQRT2) == HalfForm(1, 0, 2, 2)
    assert half_form(PHI) == HalfForm(1, 1, 1, 5)
    assert half_form(SQRT2 / 3) == HalfForm(3, 0, 2, 2)


@given(st.one_of(quadnums(2), quadnums(5)))
def test_half_form_reconstructs(z):
    assume(z)
    hf = half_form(z)
    assert hf.Z * z == QuadNum(Fraction(hf.x, 2), Fraction(hf.y, 2), z.M)
    if z.surd != 0:
        if z.M % 4 == 1:
            assert (hf.x - hf.y) % 2 == 0
        else:
            assert hf.x % 2 == 0 and hf.y % 2 == 0


@given(st.one_of(*(quadnums(M) for M in (2, 3, 5, -3))), st.integers(1, 40))
@settings(max_examples=200)
def test_half_form_is_its_fraction_definition(z, other):
    # Z z = (x + y sqrt(M))/2 with Z the least denominator, x = 2 Z rat and y = 2 Z surd
    assume(z)
    Z = brute_force_denominator(z)
    assert half_form(z) == HalfForm(Z, int(2 * Z * z.rat), int(2 * Z * z.surd), z.M)
    # a faulty Z: the form where 2 Z rat and 2 Z surd are integers, else PipelineMismatch
    x, y = 2 * other * z.rat, 2 * other * z.surd
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadratic, "denominator_of", lambda _: other)
        if x.denominator == y.denominator == 1:
            assert half_form(z) == HalfForm(other, int(x), int(y), z.M)
        else:
            with pytest.raises(PipelineMismatch, match="is not half-integral"):
                half_form(z)


def test_is_prime_small():
    known = set(primes_upto(500))
    for n in range(500):
        assert is_prime(n) == (n in known)
