"""Exact arithmetic in Q and in a fixed real or imaginary quadratic field Q(sqrt(M)).

Rationals are plain ``fractions.Fraction``; quadratic irrationals are
``QuadNum`` values ``rat + surd*sqrt(M)`` with ``M`` square-free.  Mixed
operations promote rationals into the quadratic field, while two
``QuadNum`` with different ``M`` never mix (one field per computation).

Also houses the small number-theoretic kit the rest of the package leans
on: Pochhammer symbols, generalized binomial coefficients, Legendre
symbols, primality, and denominators of algebraic numbers (smallest
positive ``Z`` with ``Z*z`` an algebraic integer).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import PipelineMismatch
from .record import Record

Rational = int | Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any prime used here."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(bound: int) -> list[int]:
    """All primes <= bound, by sieve."""
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


def legendre(M: int, p: int) -> int:
    """Legendre symbol (M/p) for an odd prime p: 0, +1 or -1."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"legendre symbol needs an odd prime, got p={p}")
    a = M % p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


@lru_cache(maxsize=256)
def is_square_free(m: int) -> bool:
    """Trial division, memoized: every QuadNum re-checks the M of its field."""
    if m == 0:
        return False
    m = abs(m)
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        while m % d == 0:
            m //= d
        d += 1
    return True


_set = object.__setattr__  # not through __dict__, which would slow every later read of a field


def _as_fraction(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _quad(rat: Fraction, surd: Fraction, M: int) -> "QuadNum":
    """A QuadNum with no checks, for fields that hold: Fractions rat and surd, and a QuadNum's M."""
    q = object.__new__(QuadNum)
    _set(q, "rat", rat)
    _set(q, "surd", surd)
    _set(q, "M", M)
    return q


class QuadNum(Record):
    """An element rat + surd*sqrt(M) of Q(sqrt(M)), M square-free and not 0 or 1."""

    rat: Fraction
    surd: Fraction
    M: int

    def __init__(self, rat: Rational, surd: Rational, M: int):
        # its own __init__: this is the hot value type, and it needs no generic binding
        if M in (0, 1) or not is_square_free(M):
            raise ValueError(f"M must be square-free and not 0 or 1, got {M}")
        _set(self, "rat", _as_fraction(rat))
        _set(self, "surd", _as_fraction(surd))
        _set(self, "M", M)

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "QuadNum":
        return _quad(self.rat, -self.surd, self.M)

    def norm(self) -> Fraction:
        """Field norm rat^2 - M*surd^2 (product with the conjugate)."""
        return self.rat * self.rat - self.M * self.surd * self.surd

    def trace(self) -> Fraction:
        return 2 * self.rat

    # -- arithmetic --------------------------------------------------------

    def _field(self, other: "QuadNum") -> int:
        """The M that self and other share; ValueError if they lie in different fields."""
        if other.M != self.M:
            raise ValueError(f"mixed quadratic fields: M={self.M} vs M={other.M}")
        return self.M

    def __add__(self, other):
        if isinstance(other, QuadNum):
            return _quad(self.rat + other.rat, self.surd + other.surd, self._field(other))
        if isinstance(other, (int, Fraction)):
            return _quad(self.rat + other, self.surd, self.M)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other if isinstance(other, (QuadNum, int, Fraction)) else NotImplemented

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __neg__(self):
        return _quad(-self.rat, -self.surd, self.M)

    def __mul__(self, other):
        if isinstance(other, QuadNum):
            M = self._field(other)
            return _quad(self.rat * other.rat + M * self.surd * other.surd,
                         self.rat * other.surd + self.surd * other.rat, M)
        if isinstance(other, (int, Fraction)):
            return _quad(self.rat * other, self.surd * other, self.M)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(M))")
        return _quad(self.rat / n, -self.surd / n, self.M)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _quad(_as_fraction(other), Fraction(0), self.M)
        elif isinstance(other, QuadNum):
            self._field(other)
        else:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other if isinstance(other, (int, Fraction)) else NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = _quad(Fraction(1), Fraction(0), self.M)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadNum):
            if other.M != self.M:
                # distinct fields only share the rationals
                return self.surd == 0 and other.surd == 0 and self.rat == other.rat
            return self.rat == other.rat and self.surd == other.surd
        if isinstance(other, (int, Fraction)):
            return self.surd == 0 and self.rat == other
        return NotImplemented

    def __hash__(self):
        if self.surd == 0:
            return hash(self.rat)
        return hash((self.rat, self.surd, self.M))

    def __bool__(self):
        return self.rat != 0 or self.surd != 0

    def __repr__(self):
        if self.surd == 0:
            return str(self.rat)
        if self.rat == 0:
            return f"{self.surd}*sqrt({self.M})"
        sign = "+" if self.surd > 0 else "-"
        return f"{self.rat} {sign} {abs(self.surd)}*sqrt({self.M})"


FieldElement = Fraction | QuadNum


def norm_trace(z: QuadNum | Rational) -> tuple[Fraction, Fraction]:
    """(norm, trace) of z, i.e. the non-leading minimal-polynomial data."""
    if isinstance(z, QuadNum):
        return z.norm(), z.trace()
    z = _as_fraction(z)
    return z * z, 2 * z


def pochhammer(z, n: int):
    """Rising factorial z(z+1)...(z+n-1); empty product 1 for n = 0."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    out = QuadNum(Fraction(1), Fraction(0), z.M) if isinstance(z, QuadNum) else Fraction(1)
    for i in range(n):
        out = out * (z + i)
    return out


def gen_binomial(z, t: int):
    """Generalized binomial coefficient C(z, t) = (-1)^t (-z)_t / t!."""
    if t < 0:
        raise ValueError("gen_binomial needs t >= 0")
    sign = 1 if t % 2 == 0 else -1
    return sign * pochhammer(-z, t) / math.factorial(t)


def denominator_of(z: QuadNum | Rational) -> int:
    """Least Z > 0 with Z*z an algebraic integer (1 for z = 0), by ``integer_denominator``."""
    if isinstance(z, QuadNum):
        (x, dx), (y, dy) = z.rat.as_integer_ratio(), z.surd.as_integer_ratio()
        den = math.lcm(dx, dy)
        return integer_denominator(den, x * (den // dx), y * (den // dy), z.M)
    z = _as_fraction(z)
    return z.denominator if z else 1


def integer_denominator(den: int, x: int, y: int, M: int) -> int:
    """``denominator_of((x + y*sqrt(M)) / den)`` for integers x, y and den > 0, no value built.

    When M = 2, 3 (mod 4) the ring of integers is Z[sqrt(M)], so Z is
    den // gcd(den, x, y), as for a rational (y = 0).  When M = 1 (mod 4) it
    is Z[(1 + sqrt(M))/2], the (s + t*sqrt(M))/2 with s = t (mod 2): Z must
    make 2*Z*x/den and 2*Z*y/den integers, so it is a multiple of
    D = den // gcd(den, 2x, 2y), and it is D exactly when 2*D*(x - y)/den is even.
    """
    if not y or M % 4 != 1:
        return den // math.gcd(den, x, y)
    D = den // math.gcd(den, 2 * x, 2 * y)
    return D if (2 * D * (x - y) // den) % 2 == 0 else 2 * D


def is_p_integral(z: QuadNum | Rational, p: int) -> bool:
    """True iff the prime p does not divide the denominator of z."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return denominator_of(z) % p != 0


class HalfForm(Record):
    """Z*z written as (x + y*sqrt(M))/2 with Z the denominator of z."""

    Z: int
    x: int
    y: int
    M: int


def half_form(z: QuadNum) -> HalfForm:
    """Z z = (x + y sqrt(M))/2, Z = denominator_of(z), x and y as 2 Z p // q for z's p/q parts."""
    if not z:
        raise ValueError("half_form needs z != 0")
    Z = denominator_of(z)
    (x, rx), (y, ry) = (divmod(2 * Z * v.numerator, v.denominator) for v in (z.rat, z.surd))
    if rx or ry:
        raise PipelineMismatch(f"numerator of {z} is not half-integral")
    return HalfForm(Z, x, y, z.M)

