"""Translate representation data into the parameter pack of the order-two MLDE.

A representation instance is described by its minimal weight k0, the two
leading exponents l1, l2 of the weight-zero system at infinity, and the
two indicial roots r1, r2 at the cusp 0 (a conjugate pair in
Q(sqrt(M))).  From those the coefficients a, b, c of the differential
equation, the hypergeometric parameters A, B, the quadratic field
constant M and the reduced difference u/v = A - B all follow by exact
algebra:

    l1 + l2 = 1/6 - a        l1*l2 = b + c
    r1 + r2 = a + 1/3        r1*r2 = b + 4c
    A = r + l1,  B = r + l2,  r = r1

with the consistency constraint l1 + l2 + r1 + r2 = 1/2.  Only instances
of the paper's class (r irrational, l1 - l2 not an integer) are built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import ConsistencyError
from .quadratic import FieldElement, QuadNum, _as_fraction, is_square_free
from .record import Record


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    n = math.isqrt(x.numerator)
    d = math.isqrt(x.denominator)
    if n * n == x.numerator and d * d == x.denominator:
        return Fraction(n, d)
    return None


class ExponentData(Record):
    """Leading exponents at infinity and indicial roots at the cusp 0."""

    k0: int
    l1: Fraction
    l2: Fraction
    r1: FieldElement
    r2: FieldElement


class InstanceParams(Record):
    """The full parameter pack of one representation instance of the paper's class.

    Building one runs ``check_assumptions``; an instance outside the
    class raises ``ConsistencyError`` naming each failed flag.
    """

    k0: int
    a: Fraction
    b: Fraction
    c: Fraction
    l1: Fraction
    l2: Fraction
    r: QuadNum
    A: QuadNum
    B: QuadNum
    M: int
    u: int
    v: int

    def __post_init__(self):
        failed = check_assumptions(self).failed
        if failed:
            raise ConsistencyError(f"instance outside the paper's class: {', '.join(failed)}")

    @property
    def leads(self) -> tuple[Fraction, Fraction]:
        """The leading exponents k0/12 + l1 and k0/12 + l2 of the two components."""
        shift = Fraction(self.k0, 12)
        return shift + self.l1, shift + self.l2

    def mirrored(self) -> InstanceParams:
        """The instance with l1 and l2 exchanged: the same equation with its components swapped.

        A and B swap and u goes to -u, so the paper's tilde data (B, -u, S~)
        is the untilded data of the mirror; the other fields are symmetric in
        l1 and l2.  It is built once per instance and kept beside the fields.
        """
        mirror = getattr(self, "_mirror", None)
        if mirror is None:
            mirror = InstanceParams(self.k0, self.a, self.b, self.c, self.l2, self.l1, self.r,
                                    self.B, self.A, self.M, -self.u, self.v)
            # not through __dict__ (as cached_property would), which slows every later read
            object.__setattr__(self, "_mirror", mirror)
        return mirror


def params_from_exponents(e: ExponentData) -> InstanceParams:
    """Solve the indicial relations for (a, b, c, A, B, u, v, M)."""
    l1, l2, r, r2 = _as_fraction(e.l1), _as_fraction(e.l2), e.r1, e.r2

    # l1 - l2 in lowest terms is an integer only if both have one denominator that divides it
    if l1.denominator == l2.denominator and (l1.numerator - l2.numerator) % l1.denominator == 0:
        raise ConsistencyError("l1 - l2 in Z")
    if isinstance(r, QuadNum) and not _conjugates(r, r2):
        raise ConsistencyError("r1, r2 must be a conjugate pair")
    total = l1 + l2 + r + r2
    if total != Fraction(1, 2):
        raise ConsistencyError(f"l1+l2+r1+r2 = {total} != 1/2")
    if not isinstance(r, QuadNum):
        raise ConsistencyError(f"r1 = {r} must be given in a quadratic field Q(sqrt(M))")

    a = Fraction(1, 6) - l1 - l2
    c = (r.norm() - l1 * l2) / 3
    b = l1 * l2 - c
    diff = l1 - l2
    return InstanceParams(e.k0, a, b, c, l1, l2, r, r + l1, r + l2, r.M,
                          diff.numerator, diff.denominator)


def _conjugates(r: QuadNum, r2) -> bool:
    """``r2 == r.conjugate()``, field by field (surds in lowest terms); fields share only Q."""
    if isinstance(r2, QuadNum):
        s, t = r.surd, r2.surd
        return (t.numerator == -s.numerator and t.denominator == s.denominator
                and r2.rat == r.rat and (r2.M == r.M or not s))
    return isinstance(r2, (int, Fraction)) and not r.surd and r.rat == r2


def roots_from_abc(
    a: Fraction, b: Fraction, c: Fraction, M: int, k0: int = 0
) -> ExponentData:
    """Invert params_from_exponents: solve both indicial quadratics exactly.

    The exponent quadratic must split over Q and the root quadratic over
    Q(sqrt(M)) but not over Q: a rational r is outside the paper's class.
    l1 is the root with the smaller denominator (ties broken by smaller
    absolute value); r1 is the root with positive surd.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    disc_l = (a - Fraction(1, 6)) ** 2 - 4 * (b + c)
    s = _rational_sqrt(disc_l)
    if s is None:
        raise ConsistencyError("exponent discriminant is not a rational square")
    if s == 0:
        raise ConsistencyError("l1 = l2 (double root)")
    base = (Fraction(1, 6) - a) / 2
    l1, l2 = sorted((base + s / 2, base - s / 2), key=lambda x: (x.denominator, abs(x)))

    disc_r = (a + Fraction(1, 3)) ** 2 - 4 * (b + 4 * c)
    if _rational_sqrt(disc_r) is not None:
        raise ConsistencyError(f"root discriminant {disc_r} is a rational square: r is rational")
    if M in (0, 1) or not is_square_free(M):
        raise ConsistencyError(f"M must be square-free and not 0 or 1, got {M}")
    t = _rational_sqrt(disc_r / M)
    if t is None:
        raise ConsistencyError(f"root discriminant {disc_r} is not M={M} times a rational square")
    r1 = QuadNum((a + Fraction(1, 3)) / 2, t / 2, M)
    return ExponentData(k0=k0, l1=l1, l2=l2, r1=r1, r2=r1.conjugate())


class AssumptionReport(Record):
    """Structural flags the denominator theory depends on."""

    difference_nonintegral: bool
    exponents_rational: bool
    c_rational: bool
    r_quadratic: bool
    v_greater_one: bool

    @property
    def failed(self) -> tuple[str, ...]:
        """Names of the flags that do not hold."""
        return tuple(n for n in self._fields if not getattr(self, n))

    @property
    def all_pass(self) -> bool:
        return not self.failed


def check_assumptions(p: InstanceParams) -> AssumptionReport:
    """The flags that place an instance in the paper's class (``InstanceParams`` needs them all)."""
    diff = p.l1 - p.l2
    return AssumptionReport(
        difference_nonintegral=diff.denominator > 1,
        exponents_rational=isinstance(p.l1, Fraction) and isinstance(p.l2, Fraction),
        c_rational=isinstance(p.c, Fraction),
        r_quadratic=isinstance(p.r, QuadNum) and p.r.surd != 0,
        v_greater_one=p.v > 1,
    )


# ---------------------------------------------------------------------------
# induced representations
# ---------------------------------------------------------------------------


class InducedClasses(Record):
    """Congruence classes mod Z of the exponents of an induced instance."""

    k0: int
    m_classes: tuple[Fraction, Fraction]
    l_classes: tuple[Fraction, Fraction]
    r_classes: tuple[QuadNum, QuadNum]

    def __post_init__(self):
        # a search tries each shift of a class many times: each shifted class is built once
        classes, memo = (*self.l_classes, *self.r_classes), lru_cache(maxsize=None, typed=True)
        object.__setattr__(self, "_shifted", memo(lambda i, s: classes[i] + s))

    def exponents(self, shifts: tuple[int, int, int, int]) -> ExponentData:
        """Concrete ExponentData from integer shifts (validated downstream)."""
        return ExponentData(self.k0, *map(self._shifted, range(4), shifts))


def induced_exponent_classes(
    xi1: Fraction, xi2: QuadNum, k0: int, shift_sign: str
) -> InducedClasses:
    """Exponent classes of the representation induced from a character.

    The eigenvalues of the image of T are the two square roots of
    e^(2 pi i xi1), so the m-classes are xi1/2 and xi1/2 + 1/2.  The
    l-classes are the m-classes shifted by k0/6, with the sign of the
    shift chosen by ``shift_sign`` ("plus" or "minus"); the two
    conventions coincide whenever 6 divides k0.  The r-classes are
    -xi2 - k0/3 and xi2 - xi1 - k0/3.
    """
    if shift_sign not in ("plus", "minus"):
        raise ValueError("shift_sign must be 'plus' or 'minus'")
    if not isinstance(xi2, QuadNum) or xi2.surd == 0:
        raise ConsistencyError("xi2 must be a quadratic irrational")
    xi1 = Fraction(xi1)
    m1 = (xi1 / 2) % 1
    m2 = (xi1 / 2 + Fraction(1, 2)) % 1
    shift = Fraction(k0, 6) if shift_sign == "plus" else -Fraction(k0, 6)
    l1 = (m1 + shift) % 1
    l2 = (m2 + shift) % 1

    r1, r2 = -xi2 - Fraction(k0, 3), xi2 - xi1 - Fraction(k0, 3)
    r_classes = tuple(QuadNum(r.rat % 1, r.surd, r.M) for r in (r1, r2))  # rational parts mod 1
    return InducedClasses(k0, (m1, m2), (l1, l2), r_classes)


# ---------------------------------------------------------------------------
# worked instances
# ---------------------------------------------------------------------------


SEED_FIELDS = {"m2": 2, "m5": 5}


def seed_exponents(name: str) -> ExponentData:
    """Built-in instances k0 = 0, l1 = 0, l2 = 1/2, r = sqrt(M): 'm2' (M = 2) and 'm5' (M = 5)."""
    if name not in SEED_FIELDS:
        raise ValueError(f"unknown seed instance {name!r} (try 'm2' or 'm5')")
    r = QuadNum(Fraction(0), Fraction(1), SEED_FIELDS[name])
    return ExponentData(k0=0, l1=Fraction(0), l2=Fraction(1, 2), r1=r, r2=r.conjugate())
