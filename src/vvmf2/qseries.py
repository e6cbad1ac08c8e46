"""Truncated exact power series q^lead * (c0 + c1 q^step + c2 q^(2*step) + ...).

The leading exponent is any rational and the step any positive one;
series on different exponent grids add and multiply on their common grid.
The ``lattice`` a report shows is derived, never stored: lcm(24, the
denominators of lead and step), so eta, q^(1/2) and q^(1/4) expansions
all show 24.  Truncation is explicit: a series knows its coefficients up
to, but not including, ``horizon``; reading past the horizon raises
instead of silently returning zero.

A zero series keeps ``coeffs == ()`` and records in ``lead`` the exponent
up to which it is known to vanish.

What a series stores is integers over one common denominator: the i-th
coefficient is (rat[i] + surd[i]*sqrt(M)) / den, where den > 0 is the
least common denominator (gcd(den, *rat, *surd) == 1).  M is set exactly
when some coefficient is irrational, so a result whose sqrt(M) part
comes out zero (a norm, a difference, a prefix) is rational.  This
integer form is all a series holds: the constructor and ``make`` split
their values at once, and ``coeffs`` and ``coeff`` derive the
``Fraction``/``QuadNum`` values from it on each read.

Every operation works on plain ``int`` lists and reduces its result by
one multi-argument gcd, never one gcd per coefficient: sums rescale to
the lcm of the two denominators (``_lincomb``), scalar multiples and
theta multiply entrywise (``_iscale``, ``_iweigh``), and products,
inverses and integer powers run on one product entry point (``_conv``,
combined over the sqrt(M) parts by ``_kernel``).  ``_conv`` runs a long
product with narrow entries by Kronecker substitution (each operand
packed into one int, one CPython multiplication) and every other product
schoolbook (``_iconv`` over ``_toeplitz``); its two cutoffs are measured.
Around the multiplication only byte-level passes run: the borrows of
negative entries come off as one int, and the product's slots are read
as lifted digits (2^(8w-1) added to every slot at once, so no slot
borrows from the next).  A square packs its operand once and multiplies
the int by itself, which CPython squares.
``inv`` takes rational series only.  ``from_integers``, the inverse of
``integer_form``, builds a series from integers another module computed.

``to_json`` is the package's one JSON encoder (values, series, records
and containers of them), used by every CLI report; ``value_from_json``
decodes the field values of configs and components files.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction
from itertools import chain, compress
from operator import add, mul, or_
from typing import Union

from .errors import ConfigError, TruncationError
from .quadratic import FieldElement, QuadNum, integer_denominator
from .record import Record

Scalar = Union[int, Fraction, QuadNum]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _num(x: Scalar) -> FieldElement:
    """x as a field value: an int, or a QuadNum with zero surd, becomes a Fraction."""
    if isinstance(x, int):
        return Fraction(x)
    return x.rat if isinstance(x, QuadNum) and not x.surd else x


# ---------------------------------------------------------------------------
# the integer kernel
# ---------------------------------------------------------------------------


def _field(Ma: int | None, Mb: int | None) -> int | None:
    """The one quadratic field of two operands (None when both are rational)."""
    if Ma is not None and Mb is not None and Ma != Mb:
        raise ValueError(f"mixed quadratic fields: M={Ma} vs M={Mb}")
    return Mb if Ma is None else Ma


def _split(values) -> tuple[int, list[list[int]], int | None]:
    """Write field elements over their least common denominator L.

    Returns (L, parts, M) with values[i] = (parts[0][i] + parts[1][i]*sqrt(M)) / L;
    parts has the single rational list, and M is None, when every value is rational.
    An all-``int`` input is already in that form, over L = 1.
    """
    if set(map(type, values)) <= {int}:
        return 1, [list(values)], None
    fields = {v.M for v in values if isinstance(v, QuadNum) and v.surd}
    if len(fields) > 1:
        raise ValueError(f"mixed quadratic fields: M in {sorted(fields)}")
    M = fields.pop() if fields else None
    rats = [v.rat if isinstance(v, QuadNum) else v for v in values]
    comps = [rats]
    if M is not None:
        comps.append([v.surd if isinstance(v, QuadNum) else _ZERO for v in values])
    L = math.lcm(*(c.denominator for comp in comps for c in comp))
    return L, [[c.numerator * (L // c.denominator) for c in comp] for comp in comps], M


def _rebuild(parts: list[list[int]], den: int, M: int | None) -> list:
    """Field values (parts[0][i] + parts[1][i]*sqrt(M)) / den; Fraction when M is None."""
    if M is None:
        return [Fraction(x, den) for x in parts[0]]
    return [QuadNum(Fraction(x, den), Fraction(y, den), M) for x, y in zip(*parts)]


def _lincomb(x: list[int], fx: int, y: list[int], fy: int) -> list[int]:
    """The integer core of a sum: x[i]*fx + y[i]*fy."""
    return [u * fx + v * fy for u, v in zip(x, y)]


def _iscale(x: list[int], c: int) -> list[int]:
    """The integer core of a scalar multiple: x[i]*c."""
    return [u * c for u in x]


def _iweigh(x: list[int], a0: int, s: int) -> list[int]:
    """The integer core of theta: x[i]*(a0 + i*s), s > 0."""
    return list(map(mul, x, range(a0, a0 + s * len(x), s)))


def _iconv(a: list[int], cols) -> list[int]:
    """Plain-int matrix-vector product: out[s] = sum_i a[i] * cols[s][i].

    Columns may be shorter than a; missing entries count as zero.  A
    convolution is the case of Toeplitz columns (see ``_toeplitz``).
    """
    return [sum(map(mul, a, col)) for col in cols]


def _toeplitz(b: list, n: int) -> list:
    """Columns b[s], b[s-1], ..., b[0] (zero past the end of b) for s < n."""
    padded = list(b[:n]) + [0] * (n - len(b))
    return [padded[s::-1] for s in range(n)]


# Kronecker substitution wins from about this many terms on (at 21 terms with entries of
# 1 to 20 bits it took 1.3-1.5x schoolbook's time) and up to about this slot width in bits
# (a 194-bit by 960-bit product of 210 terms took 1.4x); CPython 3.11, 2-core x86-64 VM
_KRONECKER_MIN_LEN = 40
_KRONECKER_MAX_BITS = 320


def _conv(a: list[int], b: list[int], n: int) -> list[int]:
    """The first n coefficients of the product of the integer polynomials a and b.

    Long products whose coefficients fit narrow slots run by Kronecker
    substitution, every other product schoolbook.  A square (``a is b``)
    packs its operand once.
    """
    square = a is b
    a, b = a[:n], b[:n]
    if n >= _KRONECKER_MIN_LEN:
        top = max(map(abs, a), default=0)
        bound = top * (top if square else max(map(abs, b), default=0)) * min(len(a), len(b))
        if not bound:
            return [0] * n
        w = (bound.bit_length() + 8) // 8  # bytes per slot, so that |coefficient| < 2^(8w - 1)
        if 8 * w <= _KRONECKER_MAX_BITS:
            return _kronecker(a, None if square else b, n, w)
    return _iconv(a, _toeplitz(b, n))


_SIGN_BIT = bytes(128) + b"\x01" * 128  # byte -> 1 when its top bit is set, else 0


def _pack(a: list[int], w: int) -> int:
    """sum_i a[i] 2^(8wi): entries in signed slots of w bytes, less each negative one's borrow.

    A negative entry's slot reads 2^(8w) too high, a borrow of 1 from the
    slot above; the borrows are the top bits of the slots, moved up one
    slot and taken off as one int.
    """
    data = b"".join([c.to_bytes(w, "little", signed=True) for c in a])
    borrow = bytearray(len(data) + w)
    borrow[w::w] = data[w - 1 :: w].translate(_SIGN_BIT)
    return int.from_bytes(data, "little") - int.from_bytes(borrow, "little")


def _kronecker(a: list[int], b: list[int] | None, n: int, w: int) -> list[int]:
    """``_conv`` by one int product, in slots of w bytes that hold every coefficient.

    ``b=None`` squares a, packing it once.  Each slot is read lifted by
    beta = 2^(8w - 1): with beta added to every slot at once, a slot holds
    coefficient + beta in [0, 2^(8w)), so no slot borrows from the next.
    """
    x = _pack(a, w)
    prod = x * (x if b is None else _pack(b, w))
    lift = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    buf = ((prod + lift) & ((1 << 8 * w * n) - 1)).to_bytes(w * n, "little")
    beta = 1 << (8 * w - 1)
    return [int.from_bytes(buf[i : i + w], "little") - beta for i in range(0, w * n, w)]


def _kernel(
    parts: list[list[int]], other: list[list[int]], n: int, M: int | None
) -> list[list[int]]:
    """The first n integer parts of (parts[0] + parts[1]*sqrt(M)) * (other[0] + other[1]*sqrt(M)).

    The result has a sqrt(M) part exactly when one of the factors has.
    """
    sums: list = [None, None, None]  # coefficients of sqrt(M)^0, ^1, ^2
    for i, a in enumerate(parts):
        for j, b in enumerate(other):
            c = _conv(a, b, n)
            sums[i + j] = c if sums[i + j] is None else list(map(add, sums[i + j], c))
    rat, surd, both = sums
    if both is not None:
        rat = [x + M * z for x, z in zip(rat, both)]
    return [rat] if surd is None else [rat, surd]


def _inverse(den: int, P: list[int]) -> tuple[int, list[int]]:
    """(D, Q) with sum_i Q[i]/D q^i = 1 / (sum_i P[i]/den q^i) to len(P) terms, P[0] != 0.

    With c0 = P[0]/den factored out, the series is 1 + sum_j Y_j q^j / L
    with Y_j integral.  The inverse sum_i b_i q^i then has integral
    B_i = L^i b_i c0, which obey B_i = -sum_{j <= i} Y_j L^(j-1) B_(i-j),
    so b_i = B_i den L^(n-1-i) / (L^(n-1) P[0]) over one denominator.
    """
    n = len(P)
    g = math.gcd(*P)
    L = P[0] // g
    powers = [1]
    for _ in range(1, n):
        powers.append(powers[-1] * L)
    # z_j = Y_j * L^(j-1), stored from j = 1
    z = [(x // g) * w for x, w in zip(P[1:], powers)]
    rev = [1]  # B_i, ..., B_0: map(mul, z, rev) stops at B_0
    for _ in range(1, n):
        rev.insert(0, -sum(map(mul, z, rev)))
    D = powers[-1] * P[0]
    sign = -1 if D < 0 else 1
    return sign * D, [sign * den * b * w for b, w in zip(rev, powers)][::-1]


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Positive generator of the group Z*a + Z*b inside Q."""
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


def _reduced(den: int, parts: list[list[int]]) -> tuple[int, list[list[int]]]:
    """den and parts divided by gcd(den, *parts), found by one multi-argument gcd."""
    if den == 1:
        return den, parts
    g = math.gcd(den, *chain.from_iterable(parts))
    if g == 1:
        return den, parts
    return den // g, [[x // g for x in p] for p in parts]


class PureQSeries:
    """A pure q-expansion, truncated: q^lead * (c0 + c1 q^step + ...).

    Stored as integers over one denominator: c_i = (rat[i] + surd[i]*sqrt(M))
    / den with ``_den``, ``_parts`` = [rat] or [rat, surd] and ``_M``, M
    set only when some c_i is irrational.  The form is canonical, so two
    series are equal exactly when their forms are.  ``coeffs`` derives
    the values on each read.  Prefixes, rescalings and shifts share the
    integer lists.  A series is never modified after it is built.
    """

    __slots__ = ("lead", "step", "_den", "_parts", "_M")

    def __init__(self, lead: Fraction, step: Fraction, coeffs: tuple):
        if step <= 0:
            raise ValueError("step must be positive")
        if coeffs and not coeffs[0]:
            raise ValueError("non-normalized series: leading coefficient is zero")
        self.lead, self.step = lead, step
        self._den, self._parts, self._M = _split(coeffs)

    @staticmethod
    def _of(lead, step, den, parts, M) -> "PureQSeries":
        """A series from a normalized, reduced integer form; an all-zero sqrt(M) part is dropped."""
        if M is not None and not any(parts[1]):
            parts, M = parts[:1], None
        s = object.__new__(PureQSeries)
        s.lead, s.step = lead, step
        s._den, s._parts, s._M = den, parts, M
        return s

    @staticmethod
    def from_integers(lead, step, den: int, parts: list[list[int]], M) -> "PureQSeries":
        """The series of an integer form; leading zeros stripped (horizon kept), den reduced."""
        n = len(parts[0])
        k = next(compress(range(n), parts[0] if len(parts) == 1 else map(or_, *parts)), n)
        if k:
            lead, parts = lead + k * step, [p[k:] for p in parts]
        den, parts = _reduced(den, parts)  # all zero: den 1 and empty lists, the zero series
        return PureQSeries._of(lead, step, den, parts, M)

    def integer_form(self) -> tuple[int, list[list[int]], int | None]:
        """(den, parts, M), the series' own lists, shared with its prefixes: never modify them."""
        return self._den, self._parts, self._M

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fraction or QuadNum values, derived from the integer form."""
        return tuple(_rebuild(self._parts, self._den, self._M))

    def denominators(self) -> list[int]:
        """``denominator_of`` of each coefficient, read off the integer form: no value is built."""
        den, M = self._den, self._M
        if M is None:
            return [den // math.gcd(den, x) for x in self._parts[0]]
        return [integer_denominator(den, x, y, M) for x, y in zip(*self._parts)]

    # -- bookkeeping -------------------------------------------------------

    @property
    def length(self) -> int:
        """Number of known coefficients c0, c1, ..."""
        return len(self._parts[0])

    @property
    def lattice(self) -> int:
        """The least multiple L of 24 with lead and step on the grid (1/L)Z."""
        return math.lcm(24, self.lead.denominator, self.step.denominator)

    @property
    def is_zero(self) -> bool:
        return not self.length

    @property
    def horizon(self) -> Fraction:
        """First exponent about which nothing is known (exclusive bound)."""
        return self.lead + self.length * self.step

    @property
    def order(self) -> int:
        """Truncation order N: coefficients c0..cN are known."""
        return self.length - 1

    def coeff(self, exponent: Scalar) -> FieldElement:
        """Coefficient of q^exponent; 0 off the support, error past the horizon."""
        e = Fraction(exponent) if isinstance(exponent, int) else exponent
        if e >= self.horizon:
            raise TruncationError(f"coefficient of q^{e} is beyond horizon q^{self.horizon}")
        if self.is_zero or e < self.lead:
            return _ZERO
        rel = (e - self.lead) / self.step
        if rel.denominator != 1:
            return _ZERO
        i = int(rel)
        return _rebuild([p[i : i + 1] for p in self._parts], self._den, self._M)[0]

    def __eq__(self, other):
        if not isinstance(other, PureQSeries):
            return NotImplemented
        # the integer form is canonical: equal forms are exactly equal coefficients
        return (self.lead, self.step, self._den, self._parts, self._M) == (
            other.lead, other.step, other._den, other._parts, other._M
        )

    def __hash__(self):
        return hash((self.lead, self.step, self._den, tuple(map(tuple, self._parts)), self._M))

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def make(lead: Scalar, coeffs, step: Scalar = 1) -> "PureQSeries":
        """Normalize (strip leading zeros, keep the horizon) and build."""
        cs, step = tuple(coeffs), Fraction(step)
        k = next(compress(range(len(cs)), cs), len(cs))
        return PureQSeries(Fraction(lead) + k * step, step, cs[k:])

    @staticmethod
    def zero(horizon: Scalar, step: Scalar = 1) -> "PureQSeries":
        return PureQSeries(Fraction(horizon), Fraction(step), ())

    @staticmethod
    def constant(value: Scalar, count: int) -> "PureQSeries":
        """value + O(q^count) with integer steps."""
        return PureQSeries.make(0, [value] + [0] * (count - 1))

    # -- grid alignment ----------------------------------------------------

    def _on_grid(self, base: Fraction, g: Fraction, length: int) -> list[list[int]]:
        """Integer parts re-indexed on the grid base + i*g, i < length (the rest dropped)."""
        _, parts, _ = self.integer_form()
        start = int((self.lead - base) / g)
        stride = int(self.step / g)
        if start == 0 and stride == 1 and len(parts[0]) == length:
            return parts
        keep = max(0, -(-(length - start) // stride))
        out = []
        for p in parts:
            row = [0] * length
            p = p[:keep]
            row[start : start + stride * len(p) : stride] = p
            out.append(row)
        return out

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PureQSeries):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, PureQSeries):
            return NotImplemented
        return self._combine(other, -1)

    def _combine(self, other: "PureQSeries", sign: int) -> "PureQSeries":
        """self + sign*other on the common grid, known up to the nearer horizon."""
        horizon = min(self.horizon, other.horizon)
        if self.is_zero and other.is_zero:
            return PureQSeries.zero(horizon, self.step)
        if self.is_zero or other.is_zero:
            live, f = (other, sign) if self.is_zero else (self, 1)
            span = horizon - live.lead
            if span <= 0 or (span / live.step).denominator == 1:
                rest = live.truncated_at(horizon)
                return rest if f == 1 else -rest
            # an off-grid horizon refines the grid; rounding it up would claim unknown terms
            g = _frac_gcd(live.step, span)
            den, _, M = live.integer_form()
            parts = [_iscale(p, f) for p in live._on_grid(live.lead, g, int(span / g))]
            return PureQSeries.from_integers(live.lead, g, den, parts, M)
        g = _frac_gcd(_frac_gcd(self.step, other.step), self.lead - other.lead)
        base = min(self.lead, other.lead)
        length = int((horizon - base) / g)
        da, _, Ma = self.integer_form()
        db, _, Mb = other.integer_form()
        M = _field(Ma, Mb)
        pa = self._on_grid(base, g, length)
        pb = other._on_grid(base, g, length)
        if M is not None:
            pa, pb = (p if len(p) == 2 else p + [[0] * length] for p in (pa, pb))
        den = math.lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        parts = [_lincomb(x, fa, y, fb) for x, y in zip(pa, pb)]
        return PureQSeries.from_integers(base, g, den, parts, M)

    def __neg__(self):
        parts = [_iscale(p, -1) for p in self._parts]
        return PureQSeries._of(self.lead, self.step, self._den, parts, self._M)

    def truncated_at(self, horizon: Fraction) -> "PureQSeries":
        """Forget knowledge at and beyond the given exponent.

        The prefix slices the series' integer lists and re-reduces them by
        one gcd.
        """
        if horizon >= self.horizon:
            return self
        if self.is_zero or horizon <= self.lead:
            return PureQSeries.zero(min(horizon, self.horizon), self.step)
        keep = math.ceil((horizon - self.lead) / self.step)
        den, parts = _reduced(self._den, [p[:keep] for p in self._parts])
        return PureQSeries._of(self.lead, self.step, den, parts, self._M)

    def scaled(self, c: Scalar) -> "PureQSeries":
        """Scalar multiple; a zero scalar yields the zero series."""
        c = _num(c)
        if not c:
            return PureQSeries.zero(self.horizon, self.step)
        den, parts, M = self.integer_form()
        if isinstance(c, Fraction):
            out = [_iscale(p, c.numerator) for p in parts]
            return PureQSeries.from_integers(self.lead, self.step, den * c.denominator, out, M)
        M = _field(M, c.M)
        e = math.lcm(c.rat.denominator, c.surd.denominator)
        x, y = int(c.rat * e), int(c.surd * e)
        if len(parts) == 1:
            out = [_iscale(parts[0], x), _iscale(parts[0], y)]
        else:
            rat, surd = parts
            out = [_lincomb(rat, x, surd, M * y), _lincomb(rat, y, surd, x)]
        return PureQSeries.from_integers(self.lead, self.step, den * e, out, M)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadNum)):
            return self.scaled(other)
        if not isinstance(other, PureQSeries):
            return NotImplemented
        if self.is_zero or other.is_zero:
            # 0 + O(q^H) times v = O(q^(H + lead_v))
            if self.is_zero and other.is_zero:
                h = self.horizon + other.horizon
            elif self.is_zero:
                h = self.horizon + other.lead
            else:
                h = other.horizon + self.lead
            return PureQSeries.zero(h, self.step)
        da, a, Ma = self.integer_form()
        db, b, Mb = other.integer_form()
        if self.step == other.step:
            g = self.step
        else:
            g = _frac_gcd(self.step, other.step)
            a = self._on_grid(self.lead, g, int((self.horizon - self.lead) / g))
            b = other._on_grid(other.lead, g, int((other.horizon - other.lead) / g))
        M = _field(Ma, Mb)
        n = min(len(a[0]), len(b[0]))
        prod = _kernel(a, b, n, M)
        return PureQSeries.from_integers(self.lead + other.lead, g, da * db, prod, M)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QuadNum)):
            return self.scaled(other)
        return NotImplemented

    def inv(self) -> "PureQSeries":
        """Two-sided inverse to the truncation order, of a rational series."""
        if self.is_zero:
            raise ZeroDivisionError("cannot invert a zero series")
        den, parts, M = self.integer_form()
        if M is not None:
            raise ValueError(f"cannot invert a series with a sqrt({M}) part")
        iden, inv_rat = _inverse(den, parts[0])
        return PureQSeries.from_integers(-self.lead, self.step, iden, [inv_rat], None)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return PureQSeries.constant(1, max(self.length, 1))
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def pow_binomial(self, gamma: Scalar) -> "PureQSeries":
        """(1 + X)^gamma for a series 1 + X with X supported above exponent 0.

        Evaluated by the standard power recurrence (u w' = gamma u' w),
        which reproduces the binomial sum sum_t C(gamma, t) X^t exactly.
        It serves fractional and quadratic exponents; integer powers are
        faster through ``**`` on the integer kernel.
        """
        u = self.coeffs
        if not u or self.lead != 0 or u[0] != 1:
            raise ValueError("binomial power needs a series with leading term exactly 1 at q^0")
        gamma = _num(gamma)
        n = len(u)
        w: list = [_ONE] + [_ZERO] * (n - 1)
        for m in range(1, n):
            acc = _ZERO
            for k in range(1, m + 1):
                uk = u[k]
                if uk:
                    acc = acc + ((gamma + 1) * k - m) * uk * w[m - k]
            w[m] = acc / m
        return PureQSeries.make(0, w, self.step)

    # -- calculus and substitutions -----------------------------------------

    def theta(self) -> "PureQSeries":
        """The operator q d/dq: the coefficient of q^e picks up a factor e.

        With lam = lcm of the denominators of lead and step, c_i becomes
        c_i * lam*(lead + i*step) over the denominator den*lam.
        """
        lam = math.lcm(self.lead.denominator, self.step.denominator)
        a0, s = int(self.lead * lam), int(self.step * lam)
        den, parts, M = self.integer_form()
        out = [_iweigh(p, a0, s) for p in parts]
        return PureQSeries.from_integers(self.lead, self.step, den * lam, out, M)

    def _moved(self, lead: Fraction, step: Fraction) -> "PureQSeries":
        """The same coefficients (the integer lists shared) on the grid lead + i*step."""
        return PureQSeries._of(lead, step, self._den, self._parts, self._M)

    def rescale(self, factor: Scalar) -> "PureQSeries":
        """Substitute q -> q^factor (replace tau by factor*tau)."""
        f = Fraction(factor)
        if f <= 0:
            raise ValueError("rescale factor must be positive")
        return self._moved(self.lead * f, self.step * f)

    def shifted(self, delta: Scalar) -> "PureQSeries":
        """Multiply by q^delta."""
        return self._moved(self.lead + Fraction(delta), self.step)

    # -- presentation --------------------------------------------------------

    def render_text(self, terms: int = 8) -> str:
        if self.is_zero:
            return f"0 + O(q^{self.horizon})"
        parts = []
        for i, c in enumerate(self.coeffs[:terms]):
            if not c:
                continue
            e = self.lead + i * self.step
            if e == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"({c})*q^({e})")
        tail = " + ..." if self.length > terms else ""
        return " + ".join(parts or ["0"]) + tail + f" + O(q^{self.horizon})"

    def __repr__(self):
        return f"PureQSeries({self.render_text(4)})"


def equal_through(u: PureQSeries, v: PureQSeries, exponent: Scalar) -> bool:
    """Exact equality of two series through the given exponent (inclusive).

    Raises TruncationError if either side is not known that far; identity
    checks must never pass by running out of coefficients.
    """
    e = Fraction(exponent)
    diff = u - v
    if diff.horizon <= e:
        raise TruncationError(
            f"equality through q^{e} undecidable: difference known only below q^{diff.horizon}"
        )
    return diff.is_zero or diff.lead > e


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------


def to_json(x):
    """The JSON form of an engine object, built recursively.

    A rational is a "p/q" string and a quadratic value a {"rat", "surd",
    "M"} object (a QuadNum with zero surd is written as its rational part).
    A series is {"lead", "step", "lattice", "coefficients"}, any other
    record an object keyed by its field names.  Lists and tuples become
    lists, dicts keep their keys, and anything else passes through.
    """
    if x is None or isinstance(x, (str, int)):  # the bulk of a report, so tested first
        return x
    if isinstance(x, QuadNum):
        if x.surd == 0:
            return str(x.rat)
        return {"rat": str(x.rat), "surd": str(x.surd), "M": x.M}
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [to_json(v) for v in x]
    if isinstance(x, dict):
        return {k: to_json(v) for k, v in x.items()}
    if isinstance(x, PureQSeries):
        return {
            "lead": str(x.lead),
            "step": str(x.step),
            "lattice": x.lattice,
            "coefficients": to_json(x.coeffs),
        }
    if isinstance(x, Record):
        return {n: to_json(getattr(x, n)) for n in x._fields}
    return x


def fraction_from_json(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}: {exc}") from None


def int_from_json(value, key: str) -> int:
    """A JSON integer or a string of digits; a float or a bool is refused, not truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def value_from_json(obj) -> FieldElement:
    """The field value that ``to_json`` wrote as obj; ConfigError if malformed."""
    if isinstance(obj, dict):
        try:
            return QuadNum(
                fraction_from_json(obj["rat"]),
                fraction_from_json(obj["surd"]),
                int_from_json(obj["M"], "M"),
            )
        except KeyError as exc:
            raise ConfigError(f"quadratic value needs key {exc}") from None
    return fraction_from_json(obj)
