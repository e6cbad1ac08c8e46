"""Truncated exact power series q^lead * (c0 + c1 q^step + c2 q^(2*step) + ...).

The leading exponent is any rational and the step any positive one;
series on different exponent grids add and multiply on their common grid.
The ``lattice`` a report shows is derived, never stored: lcm(24, the
denominators of lead and step), so eta, q^(1/2) and q^(1/4) expansions
all show 24.  Truncation is explicit: a series knows its coefficients up
to, but not including, ``horizon``; reading past the horizon raises
instead of silently returning zero.

A zero series keeps ``coeffs == ()`` and records in ``lead`` the exponent
up to which it is known to vanish.  Coefficients are ``Fraction`` or
``QuadNum`` and may be mixed; sums and scalar multiples promote through
the coefficient operators themselves.

Products, inverses and integer powers run on one exact integer kernel
(``_split``, ``_iconv``, ``_toeplitz``, ``_lift``, ``_convolve``): the
coefficients are written over one common denominator, with a sqrt(M)
part when a ``QuadNum`` is present, convolved as plain ``int`` and
rebuilt once.  A series with ``QuadNum`` coefficients is inverted through
its conjugate, so the one inverse recurrence is rational.  The
closed-form route of ``minform`` uses the same kernel.

``to_json`` is the package's one JSON encoder (values, series, dataclasses
and containers of them), used by every CLI report; ``value_from_json``
decodes the field values of configs and components files.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from operator import add, mul
from typing import Union

from .errors import ConfigError, TruncationError
from .quadratic import FieldElement, QuadNum

Scalar = Union[int, Fraction, QuadNum]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _num(x: Scalar) -> FieldElement:
    return Fraction(x) if isinstance(x, int) else x


# ---------------------------------------------------------------------------
# the integer kernel
# ---------------------------------------------------------------------------


def _split(values) -> tuple[int, list[list[int]], int | None]:
    """Write field elements over one common denominator L.

    Returns (L, parts, M) with values[i] = (parts[0][i] + parts[1][i]*sqrt(M)) / L;
    parts has the single rational list, and M is None, when no value is a QuadNum.
    """
    fields = {v.M for v in values if isinstance(v, QuadNum)}
    if len(fields) > 1:
        raise ValueError(f"mixed quadratic fields: M in {sorted(fields)}")
    M = fields.pop() if fields else None
    rats = [v.rat if isinstance(v, QuadNum) else v for v in values]
    comps = [rats]
    if M is not None:
        comps.append([v.surd if isinstance(v, QuadNum) else _ZERO for v in values])
    L = math.lcm(*(c.denominator for comp in comps for c in comp))
    return L, [[c.numerator * (L // c.denominator) for c in comp] for comp in comps], M


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


def _rebuild(rat: list[int], surd: list[int] | None, dens: list[int], M: int | None) -> list:
    """Field values (rat[i] + surd[i]*sqrt(M)) / dens[i]; Fraction when M is None."""
    if M is None:
        return [Fraction(x, d) for x, d in zip(rat, dens)]
    return [QuadNum(Fraction(x, d), Fraction(y, d), M) for x, y, d in zip(rat, surd, dens)]


def _lift(values, cols_parts: list, L: int, M: int | None) -> list:
    """The products of field-valued ``values`` with (cols_parts[0] + cols_parts[1]*sqrt(M)) / L.

    Each part is a list of integer columns for ``_iconv``; the result is
    rebuilt as Fraction or QuadNum values over the common denominator.
    """
    Lv, parts, Mv = _split(values)
    if Mv is not None and M is not None and Mv != M:
        raise ValueError(f"mixed quadratic fields: M={Mv} vs M={M}")
    M = Mv if Mv is not None else M
    sums: list = [None, None, None]  # coefficients of sqrt(M)^0, ^1, ^2
    for i, a in enumerate(parts):
        for j, cols in enumerate(cols_parts):
            c = _iconv(a, cols)
            sums[i + j] = c if sums[i + j] is None else list(map(add, sums[i + j], c))
    rat, surd, both = sums
    if both is not None:
        rat = [x + M * z for x, z in zip(rat, both)]
    return _rebuild(rat, surd, [L * Lv] * len(rat), M)


def _convolve(u: list, v: list, n: int) -> list:
    """The first n coefficients of the product of two coefficient lists."""
    L, parts, M = _split(v)
    return _lift(u, [_toeplitz(p, n) for p in parts], L, M)


def _inverse(values: list) -> list:
    """The first len(values) coefficients of 1 / (sum_i values[i] q^i), values[0] != 0.

    A series a with a QuadNum coefficient is inverted as conj(a) / (a*conj(a)):
    the norm a*conj(a) has rational coefficients, so one recurrence serves.
    For rational values, with c0 = values[0] factored out, the series is
    1 + sum_j Y_j q^j / L with Y_j integral.  The inverse sum_i b_i q^i
    then has integral B_i = L^i b_i, which obey
    B_i = -sum_{j <= i} Y_j L^(j-1) B_(i-j); c0 and L^i are divided out
    once per coefficient at the end.
    """
    n = len(values)
    if any(isinstance(v, QuadNum) for v in values):
        conj = [v.conjugate() if isinstance(v, QuadNum) else v for v in values]
        norm = [v.rat for v in _convolve(values, conj, n)]
        return _convolve(conj, _inverse(norm), n)
    L0, (P,), _ = _split(values)
    g = math.gcd(*P)
    L = P[0] // g
    powers = [1]
    for _ in range(1, n):
        powers.append(powers[-1] * L)
    # z_j = Y_j * L^(j-1), stored from j = 1
    z = [(x // g) * w for x, w in zip(P[1:], powers)]
    B = [1]
    for i in range(1, n):
        B.append(-sum(map(mul, z[:i], B[::-1])))
    return _rebuild([b * L0 for b in B], None, [w * P[0] for w in powers], None)


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


@dataclass(frozen=True)
class PureQSeries:
    """A pure q-expansion, truncated: q^lead * (c0 + c1 q^step + ...)."""

    lead: Fraction
    step: Fraction
    coeffs: tuple

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.coeffs and not self.coeffs[0]:
            raise ValueError("non-normalized series: leading coefficient is zero")

    # -- bookkeeping -------------------------------------------------------

    @property
    def lattice(self) -> int:
        """The least multiple L of 24 with lead and step on the grid (1/L)Z."""
        return math.lcm(24, self.lead.denominator, self.step.denominator)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def horizon(self) -> Fraction:
        """First exponent about which nothing is known (exclusive bound)."""
        return self.lead + len(self.coeffs) * self.step

    @property
    def order(self) -> int:
        """Truncation order N: coefficients c0..cN are known."""
        return len(self.coeffs) - 1

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
        return self.coeffs[int(rel)]

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def make(lead: Scalar, coeffs, step: Scalar = 1) -> "PureQSeries":
        """Normalize (strip leading zeros, keep the horizon) and build."""
        lead = Fraction(lead)
        step = Fraction(step)
        cs = [_num(c) for c in coeffs]
        k = 0
        while k < len(cs) and not cs[k]:
            k += 1
        horizon = lead + len(cs) * step
        if k == len(cs):
            return PureQSeries(horizon, step, ())
        return PureQSeries(lead + k * step, step, tuple(cs[k:]))

    @staticmethod
    def zero(horizon: Scalar, step: Scalar = 1) -> "PureQSeries":
        return PureQSeries(Fraction(horizon), Fraction(step), ())

    @staticmethod
    def constant(value: Scalar, count: int) -> "PureQSeries":
        """value + O(q^count) with integer steps."""
        return PureQSeries.make(0, [value] + [0] * (count - 1))

    # -- grid alignment ----------------------------------------------------

    def _on_grid(self, base: Fraction, g: Fraction, length: int) -> list:
        """Coefficients re-indexed on the grid base + i*g, i < length."""
        out = [_ZERO] * length
        if self.coeffs:
            start = int((self.lead - base) / g)
            stride = int(self.step / g)
            out[start : start + stride * len(self.coeffs) : stride] = self.coeffs
        return out

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PureQSeries):
            return NotImplemented
        horizon = min(self.horizon, other.horizon)
        if self.is_zero and other.is_zero:
            return PureQSeries.zero(horizon, self.step)
        if self.is_zero:
            return other.truncated_at(horizon)
        if other.is_zero:
            return self.truncated_at(horizon)
        g = _frac_gcd(_frac_gcd(self.step, other.step), self.lead - other.lead)
        base = min(self.lead, other.lead)
        length = int((horizon - base) / g)
        a = self.truncated_at(horizon)._on_grid(base, g, length)
        for i, c in enumerate(other.truncated_at(horizon)._on_grid(base, g, length)):
            a[i] = a[i] + c
        return PureQSeries.make(base, a, g)

    def __sub__(self, other):
        if not isinstance(other, PureQSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PureQSeries(self.lead, self.step, tuple(-c for c in self.coeffs))

    def truncated_at(self, horizon: Fraction) -> "PureQSeries":
        """Forget knowledge at and beyond the given exponent."""
        if horizon >= self.horizon:
            return self
        if self.is_zero or horizon <= self.lead:
            return PureQSeries.zero(min(horizon, self.horizon), self.step)
        n = (horizon - self.lead) / self.step
        keep = int(n) + (1 if n.denominator != 1 else 0)
        return PureQSeries(self.lead, self.step, self.coeffs[:keep])

    def scaled(self, c: Scalar) -> "PureQSeries":
        """Scalar multiple; a zero scalar yields the zero series."""
        c = _num(c)
        if not c:
            return PureQSeries.zero(self.horizon, self.step)
        return PureQSeries(self.lead, self.step, tuple(c * x for x in self.coeffs))

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
        if self.step == other.step:
            a, b, g = self.coeffs, other.coeffs, self.step
        else:
            g = _frac_gcd(self.step, other.step)
            a = self._on_grid(self.lead, g, int((self.horizon - self.lead) / g))
            b = other._on_grid(other.lead, g, int((other.horizon - other.lead) / g))
        prod = _convolve(a, b, min(len(a), len(b)))
        return PureQSeries.make(self.lead + other.lead, prod, g)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QuadNum)):
            return self.scaled(other)
        return NotImplemented

    def inv(self) -> "PureQSeries":
        """Two-sided inverse to the truncation order."""
        if self.is_zero:
            raise ZeroDivisionError("cannot invert a zero series")
        return PureQSeries(-self.lead, self.step, tuple(_inverse(self.coeffs)))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return PureQSeries.constant(1, max(len(self.coeffs), 1))
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
        if self.is_zero or self.lead != 0 or self.coeffs[0] != 1:
            raise ValueError("binomial power needs a series with leading term exactly 1 at q^0")
        gamma = _num(gamma)
        n = len(self.coeffs)
        w: list = [_ONE] + [_ZERO] * (n - 1)
        for m in range(1, n):
            acc = _ZERO
            for k in range(1, m + 1):
                uk = self.coeffs[k]
                if uk:
                    acc = acc + ((gamma + 1) * k - m) * uk * w[m - k]
            w[m] = acc / m
        return PureQSeries.make(0, w, self.step)

    # -- calculus and substitutions -----------------------------------------

    def theta(self) -> "PureQSeries":
        """The operator q d/dq: the coefficient of q^e picks up a factor e."""
        if self.is_zero:
            return self
        return PureQSeries.make(
            self.lead,
            [(self.lead + i * self.step) * c for i, c in enumerate(self.coeffs)],
            self.step,
        )

    def rescale(self, factor: Scalar) -> "PureQSeries":
        """Substitute q -> q^factor (replace tau by factor*tau)."""
        f = Fraction(factor)
        if f <= 0:
            raise ValueError("rescale factor must be positive")
        if self.is_zero:
            return PureQSeries.zero(self.lead * f, self.step * f)
        return PureQSeries(self.lead * f, self.step * f, self.coeffs)

    def shifted(self, delta: Scalar) -> "PureQSeries":
        """Multiply by q^delta."""
        d = Fraction(delta)
        return PureQSeries(self.lead + d, self.step, self.coeffs)

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
        tail = " + ..." if len(self.coeffs) > terms else ""
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
    dataclass an object keyed by its field names.  Lists and tuples become
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
    if is_dataclass(x):
        return {f.name: to_json(getattr(x, f.name)) for f in fields(x)}
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
