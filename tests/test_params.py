"""Parameter algebra and the exponent classes of induced instances."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from instance_strategy import instances

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


# ---------------------------------------------------------------------------
# realization: the rejections, the induced sweep and the mirror
# ---------------------------------------------------------------------------


R_V3 = QuadNum(Fraction(1, 12), Fraction(1), 2)
R_L120 = QuadNum(Fraction(3, 20), Fraction(1), 2)
SWEEP_PAIRS = [(Fraction(x), M) for x in ("0", "1/3", "1/4", "1/6", "2/5") for M in (2, 3, 5, 7)]


def _sweep_classes(xi1, M):
    # xi2 = xi1/2 - sqrt(M), as the sweep script and the benchmark build it
    return induced_exponent_classes(xi1, QuadNum(xi1 / 2, Fraction(-1), M), 0, "minus")


def _realize(classes, window=2):
    """The sweep's search: the first shift vector that params_from_exponents accepts."""
    for shifts in itertools.product(range(-window, window + 1), repeat=4):
        try:
            return shifts, params_from_exponents(classes.exponents(shifts))
        except ConsistencyError:
            continue
    return None, None


def _reference_params(e):
    """params_from_exponents by the definitions, through the public constructors only."""
    k0, l1, l2, r1, r2 = e.k0, Fraction(e.l1), Fraction(e.l2), e.r1, e.r2
    if (l1 - l2).denominator == 1:
        raise ConsistencyError("l1 - l2 in Z")
    if isinstance(r1, QuadNum) and r2 != QuadNum(r1.rat, -r1.surd, r1.M):
        raise ConsistencyError("r1, r2 must be a conjugate pair")
    total = l1 + l2 + r1 + r2
    if total != Fraction(1, 2):
        raise ConsistencyError(f"l1+l2+r1+r2 = {total} != 1/2")
    if not isinstance(r1, QuadNum):
        raise ConsistencyError(f"r1 = {r1} must be given in a quadratic field Q(sqrt(M))")
    c = (r1.rat * r1.rat - r1.M * r1.surd * r1.surd - l1 * l2) / 3
    A = QuadNum(r1.rat + l1, r1.surd, r1.M)
    B = QuadNum(r1.rat + l2, r1.surd, r1.M)
    diff = l1 - l2
    return InstanceParams(
        k0=k0, a=Fraction(1, 6) - l1 - l2, b=l1 * l2 - c, c=c, l1=l1, l2=l2, r=r1, A=A, B=B,
        M=r1.M, u=diff.numerator, v=diff.denominator,
    )


def _outcome(build, *args):
    """The instance build returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except (ConsistencyError, ValueError) as exc:
        return type(exc), str(exc)


ZERO_SURD_R = QuadNum(Fraction(0), Fraction(0), 2)


@pytest.mark.parametrize(
    "e, error, message",
    [
        (ExponentData(0, Fraction(1), Fraction(0), SQRT2, -SQRT2),
         ConsistencyError, "l1 - l2 in Z"),
        (ExponentData(0, Fraction(-1, 2), Fraction(1, 2), SQRT2, -SQRT2),
         ConsistencyError, "l1 - l2 in Z"),
        (ExponentData(0, 3, 1, SQRT2, -SQRT2), ConsistencyError, "l1 - l2 in Z"),
        # l1 - l2 in Z and r1, r2 not conjugates: the first check names it
        (ExponentData(0, Fraction(1, 3), Fraction(-2, 3), SQRT2, SQRT2),
         ConsistencyError, "l1 - l2 in Z"),
        (ExponentData(0, Fraction(0), Fraction(1, 2), SQRT2, SQRT2),
         ConsistencyError, "r1, r2 must be a conjugate pair"),
        (ExponentData(0, Fraction(0), Fraction(1, 2), SQRT2, QuadNum(0, -1, 3)),
         ConsistencyError, "r1, r2 must be a conjugate pair"),
        (ExponentData(0, Fraction(0), Fraction(1, 2), SQRT2, -1.4142135623730951),
         ConsistencyError, "r1, r2 must be a conjugate pair"),
        # not conjugates and a wrong sum: the conjugate check comes first
        (ExponentData(0, Fraction(0), Fraction(1, 2), SQRT2 + 1, SQRT2),
         ConsistencyError, "r1, r2 must be a conjugate pair"),
        (ExponentData(0, Fraction(0), Fraction(1, 2), SQRT2 + 1, -SQRT2 + 1),
         ConsistencyError, "l1+l2+r1+r2 = 5/2 != 1/2"),
        (ExponentData(0, Fraction(1, 3), Fraction(0), Fraction(1, 12), Fraction(-1, 2)),
         ConsistencyError, "l1+l2+r1+r2 = -1/12 != 1/2"),
        (ExponentData(0, Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(-1, 4)),
         ConsistencyError, "r1 = 1/4 must be given in a quadratic field Q(sqrt(M))"),
        # r~ a Fraction equal to a zero-surd r: a conjugate pair, refused only by the class check
        (ExponentData(0, Fraction(0), Fraction(1, 2), ZERO_SURD_R, Fraction(0)),
         ConsistencyError, "instance outside the paper's class: r_quadratic"),
        (ExponentData(0, Fraction(0), Fraction(1, 2), ZERO_SURD_R, 0),
         ConsistencyError, "instance outside the paper's class: r_quadratic"),
        # zero surds in two fields are conjugates, but their sum mixes the fields
        (ExponentData(0, Fraction(0), Fraction(1, 2), ZERO_SURD_R, QuadNum(0, 0, 3)),
         ValueError, "mixed quadratic fields: M=2 vs M=3"),
    ],
)
def test_each_rejection_keeps_its_check_order_and_message(e, error, message):
    with pytest.raises(error) as info:
        params_from_exponents(e)
    assert type(info.value) is error and str(info.value) == message
    assert _outcome(params_from_exponents, e) == _outcome(_reference_params, e)


small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=4)
field_values = st.one_of(
    st.integers(-2, 2),
    small_fractions,
    st.builds(QuadNum, small_fractions, st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
              st.sampled_from([2, 3])),
)


@given(small_fractions, small_fractions, field_values, field_values)
@settings(max_examples=400)
def test_params_from_exponents_matches_the_reference(l1, l2, r1, r2):
    e = ExponentData(0, l1, l2, r1, r2)
    assert _outcome(params_from_exponents, e) == _outcome(_reference_params, e)


# the first shift vector the sweep accepts at window 2, per (xi1, M); u/v is -1/2 throughout
FIRST_SHIFTS = {(xi1, M): (-2, -2, 2, 2) if xi1 == 0 else (-2, -2, 1, 1) for xi1, M in SWEEP_PAIRS}


def _reference_realize(xi1, M, window=2):
    """The sweep's first accepted shift vector, by the definitions on public constructors."""
    classes = _sweep_classes(xi1, M)
    (l1, l2), (r1, r2) = classes.l_classes, classes.r_classes
    for s1, s2, s3, s4 in itertools.product(range(-window, window + 1), repeat=4):
        r1_s, r2_s = QuadNum(r1.rat + s3, r1.surd, M), QuadNum(r2.rat + s4, r2.surd, M)
        candidate = _outcome(_reference_params, ExponentData(0, l1 + s1, l2 + s2, r1_s, r2_s))
        if isinstance(candidate, InstanceParams):
            return (s1, s2, s3, s4), candidate
    return None, None


@pytest.mark.parametrize("xi1, M", SWEEP_PAIRS, ids=[f"{x}-M{M}" for x, M in SWEEP_PAIRS])
def test_the_sweep_realizes_each_induced_pair_as_the_reference_does(xi1, M):
    shifts, p = _realize(_sweep_classes(xi1, M))
    assert (shifts, p) == _reference_realize(xi1, M)
    assert shifts == FIRST_SHIFTS[(xi1, M)] and (p.u, p.v, p.M) == (-1, 2, M)


def _assert_the_mirror_swaps_the_fields(p):
    mirror = p.mirrored()
    solved = params_from_exponents(ExponentData(p.k0, p.l2, p.l1, p.r, p.r.conjugate()))
    assert mirror == solved and mirror.u == solved.u == -p.u
    assert (mirror.l1, mirror.l2, mirror.A, mirror.B) == (p.l2, p.l1, p.B, p.A)
    assert mirror.mirrored() == p


@pytest.mark.parametrize(
    "e",
    [
        seed_exponents("m2"),
        seed_exponents("m5"),
        ExponentData(0, Fraction(0), Fraction(1, 3), R_V3, R_V3.conjugate()),
        ExponentData(0, Fraction(0), Fraction(1, 5), R_L120, R_L120.conjugate()),
        ExponentData(2, Fraction(0), Fraction(1, 5), R_L120, R_L120.conjugate()),
    ],
    ids=["m2", "m5", "v3", "l2=1/5", "k0=2"],
)
def test_the_mirror_swaps_the_fields(e):
    _assert_the_mirror_swaps_the_fields(params_from_exponents(e))


def test_the_mirror_swaps_the_fields_on_every_sweep_instance():
    for xi1, M in SWEEP_PAIRS:
        _assert_the_mirror_swaps_the_fields(_realize(_sweep_classes(xi1, M))[1])


@given(instances())
@settings(max_examples=60)
def test_the_mirror_swaps_the_fields_on_generated_instances(p):
    _assert_the_mirror_swaps_the_fields(p)


@given(st.lists(st.tuples(*[st.one_of(st.integers(-3, 3), st.booleans(), small_fractions)] * 4),
                max_size=8))
@settings(max_examples=60)
def test_exponents_are_the_shifted_classes_on_every_call(shift_vectors):
    # one instance answers many calls, as in a search; each must equal the plain sums
    classes = _sweep_classes(Fraction(1, 3), 5)
    for shifts in [*shift_vectors, (0.0, 0, 0, 0), (0, 0, 0, 0), *shift_vectors]:
        e = classes.exponents(shifts)
        (l1, l2), (r1, r2) = classes.l_classes, classes.r_classes
        s1, s2, s3, s4 = shifts
        expected = (l1 + s1, l2 + s2, r1 + s3, r2 + s4)
        assert (e.k0, e.l1, e.l2, e.r1, e.r2) == (0, *expected)
        assert [type(x) for x in (e.l1, e.l2, e.r1, e.r2)] == [type(x) for x in expected]
