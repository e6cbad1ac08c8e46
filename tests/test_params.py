"""Parameter algebra and the exponent classes of induced instances."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvmf2.errors import ConsistencyError
from vvmf2.params import (
    ExponentData,
    InstanceParams,
    check_assumptions,
    induced_exponent_classes,
    params_from_exponents,
    roots_from_abc,
    seed_exponents,
)
from vvmf2.qseries import to_json
from vvmf2.quadratic import QuadNum
from vvmf2.record import replace

SQRT2 = QuadNum(Fraction(0), Fraction(1), 2)
SQRT5 = QuadNum(Fraction(0), Fraction(1), 5)


def test_m2_instance_parameters():
    p = params_from_exponents(seed_exponents("m2"))
    assert (p.a, p.b, p.c) == (Fraction(-1, 3), Fraction(2, 3), Fraction(-2, 3))
    assert p.A == SQRT2
    assert p.B == SQRT2 + Fraction(1, 2)
    assert (p.u, p.v, p.M) == (-1, 2, 2)
    assert p.A * p.B == (p.r - 6 * p.c) / 2


def test_m5_instance_parameters():
    p = params_from_exponents(seed_exponents("m5"))
    assert (p.a, p.b, p.c) == (Fraction(-1, 3), Fraction(5, 3), Fraction(-5, 3))
    assert p.M == 5


def test_consistency_violations():
    with pytest.raises(ConsistencyError, match="1/2"):
        params_from_exponents(
            ExponentData(0, Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1, 2))
        )
    with pytest.raises(ConsistencyError, match="l1 - l2"):
        params_from_exponents(
            ExponentData(0, Fraction(1), Fraction(0), SQRT2, -SQRT2)
        )
    with pytest.raises(ConsistencyError, match="conjugate"):
        params_from_exponents(
            ExponentData(0, Fraction(0), Fraction(1, 2), SQRT2, SQRT2)
        )


def test_roots_from_abc_example():
    e = roots_from_abc(Fraction(-1, 3), Fraction(2, 3), Fraction(-2, 3), 2)
    assert {e.l1, e.l2} == {Fraction(0), Fraction(1, 2)}
    assert {e.r1, e.r2} == {SQRT2, -SQRT2}
    with pytest.raises(ConsistencyError, match="double root"):
        roots_from_abc(Fraction(1, 6), Fraction(0), Fraction(0), 2)
    with pytest.raises(ConsistencyError, match="rational square"):
        roots_from_abc(Fraction(-1, 3), Fraction(1, 3), Fraction(0), 2)


def test_roots_from_abc_refuses_a_rational_r():
    # l = 0, 1/2 and r = 1/4, -1/4: the root discriminant is (1/2)^2, so r is outside the class
    with pytest.raises(ConsistencyError, match="root discriminant 1/4 is a rational square"):
        roots_from_abc(Fraction(-1, 3), Fraction(1, 48), Fraction(-1, 48), 2)


exponent_instances = st.builds(
    lambda l1, l2, surd, M, k0: ExponentData(
        k0=k0,
        l1=l1,
        l2=l2,
        r1=QuadNum((Fraction(1, 2) - l1 - l2) / 2, surd, M),
        r2=QuadNum((Fraction(1, 2) - l1 - l2) / 2, -surd, M),
    ),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6),
    st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4), max_denominator=4),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=-3, max_value=3),
)


@given(exponent_instances)
@settings(max_examples=80)
def test_parameter_relations(e):
    if (e.l1 - e.l2).denominator == 1:
        return
    p = params_from_exponents(e)
    # quadratic consistency for A and B
    assert p.A + p.B + 1 == 2 * p.r + Fraction(7 - 6 * p.a, 6)
    assert p.A * p.B == (p.r - 6 * p.c) / 2
    disc = (2 * p.r + Fraction(1 - 6 * p.a, 6)) ** 2 - 2 * (p.r - 6 * p.c)
    assert disc == (p.l1 - p.l2) ** 2
    assert p.l1 + p.l2 == Fraction(1, 6) - p.a
    assert p.l1 * p.l2 == p.b + p.c


@given(exponent_instances)
@settings(max_examples=60)
def test_abc_roundtrip(e):
    if (e.l1 - e.l2).denominator == 1:
        return
    p = params_from_exponents(e)
    back = roots_from_abc(p.a, p.b, p.c, p.M, e.k0)
    p2 = params_from_exponents(back)
    assert (p2.a, p2.b, p2.c) == (p.a, p.b, p.c)
    assert {back.l1, back.l2} == {e.l1, e.l2}
    assert {back.r1, back.r2} == {e.r1, e.r2}


def test_the_mirror_is_built_once_and_stays_out_of_the_fields():
    p = params_from_exponents(seed_exponents("m2"))
    before = (hash(p), to_json(p))
    mirror = p.mirrored()
    assert mirror is p.mirrored()
    assert mirror == params_from_exponents(ExponentData(p.k0, p.l2, p.l1, p.r, p.r.conjugate()))
    # kept beside the fields: equality, hash, JSON and replace do not see it
    assert p == params_from_exponents(seed_exponents("m2")) and (hash(p), to_json(p)) == before
    copy = replace(p)
    assert copy == p and copy.mirrored() == mirror and copy.mirrored() is not mirror


def test_check_assumptions():
    p = params_from_exponents(seed_exponents("m2"))
    assert check_assumptions(p).all_pass and check_assumptions(p).failed == ()
    # building an instance outside the paper's class raises, naming each failed flag
    with pytest.raises(ConsistencyError, match="class: r_quadratic$"):
        InstanceParams(
            k0=0, a=p.a, b=p.b, c=p.c, l1=p.l1, l2=p.l2,
            r=Fraction(1, 3), A=Fraction(1, 3), B=Fraction(5, 6), M=2, u=-1, v=2,
        )
    with pytest.raises(ConsistencyError, match="class: difference_nonintegral, v_greater_one$"):
        InstanceParams(
            k0=0, a=p.a, b=p.b, c=p.c, l1=Fraction(1), l2=Fraction(0),
            r=p.r, A=p.A, B=p.B, M=2, u=1, v=1,
        )


def test_induced_classes_m2():
    cls = induced_exponent_classes(Fraction(0), -SQRT2, 0, "minus")
    assert set(cls.l_classes) == {Fraction(0), Fraction(1, 2)}
    assert cls.r_classes[0] == SQRT2
    assert cls.r_classes[1] == -SQRT2
    e = cls.exponents((0, 0, 0, 0))
    assert params_from_exponents(e) == params_from_exponents(seed_exponents("m2"))


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.integers(min_value=-6, max_value=6),
    st.sampled_from(["plus", "minus"]),
)
def test_m_classes_differ_by_half(xi1, k0, sign):
    cls = induced_exponent_classes(xi1, -SQRT2, k0, sign)
    m1, m2 = cls.m_classes
    assert (m1 - m2) % 1 == Fraction(1, 2)
    l1, l2 = cls.l_classes
    assert (l1 - l2) % 1 == Fraction(1, 2)


def test_induced_classes_rejects_rational_xi2():
    with pytest.raises(ConsistencyError):
        induced_exponent_classes(
            Fraction(1, 3), QuadNum(Fraction(1, 2), Fraction(0), 2), 0, "minus"
        )
    with pytest.raises(ValueError):
        induced_exponent_classes(Fraction(0), -SQRT2, 0, "sideways")
