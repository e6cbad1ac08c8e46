"""Two independent constructions of the normalized minimal-weight form.

The closed-form route evaluates the paper's 2F1 at a Hauptmodul of
Gamma0(2) in Pfaff form.  With eps = eta(2 tau)^24 / eta(tau)^24 = q E,
E = prod (1 + q^n)^24, and 1/eps = K - 64, each sequence is
h = E^l * sum_k g_k eps^k for a two-term hypergeometric sequence g.  One
integer table (the powers of eps) and E^l come from J.C.P. Miller's
power recurrence on plain ints; the route reads no named series, only
divisor sums.  The independent route runs a Frobenius recursion on the
weight-zero differential equation, from G, E2 and E4, on its own
plain-``int`` Horner loop.  A fault in a named series thus reaches one
route only, and a fault in the shared series product reaches both by
different paths (the closed route's E^l * sum, the Frobenius G^2).
``minimal_form(..., method="both")`` insists the two agree coefficient
by coefficient; any disagreement is a bug, not data, and raises
``PipelineMismatch``.  Every sequence is a ``PureQSeries`` (lead 0, step
1), and a component is eta^(2 k0) * q^l * h(q), as the paper writes it.
Whatever the field of r, h, F', DF' and the Wronskian are rational series:
a, b and c are rational, and so is g, whose (a)_k (b)_k is a norm.

The minimal form F' and its modular derivative DF' generate everything
of higher weight.  ``combination`` is the one builder of m1*F' + m2*DF'
from monomials G^a E4^b, ``weight_basis`` lists the one-monomial
multiples, and ``decompose`` inverts that construction exactly, by
Cramer's rule with the Wronskian of the two, one rational inverse.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import ConsistencyError, PipelineMismatch
from .forms import (
    eisenstein_E2,
    eisenstein_E4,
    eta_pow,
    form_monomial,
    modular_D,
    monomial_basis,
    monomial_coordinates,
    sigma,
    weight2_G,
)
from .params import InstanceParams
from .qseries import PureQSeries, _iconv, _toeplitz, equal_through
from .quadratic import FieldElement, pochhammer
from .record import Record

_ZERO, _ONE = Fraction(0), Fraction(1)
METHODS = ("both", "closed", "frobenius")


def check_kmax(Kmax: int) -> None:
    """The one rule on a relative order: index 0 is the normalized 1, so Kmax >= 0."""
    if Kmax < 0:
        raise ValueError(f"Kmax must be >= 0, got {Kmax}")


def gauss_2f1(alpha, beta, gamma, n: int) -> FieldElement:
    """The n-th Taylor coefficient (alpha)_n (beta)_n / ((gamma)_n n!)."""
    if n < 0:
        raise ValueError("gauss_2f1 needs n >= 0")
    den = pochhammer(gamma, n)
    if not den:
        raise ZeroDivisionError(f"({gamma})_{n} vanishes")
    return pochhammer(alpha, n) * pochhammer(beta, n) / den / math.factorial(n)


def _matvec(u: PureQSeries, table) -> PureQSeries:
    """sum_s (sum_{k <= s} u_k table[k][s]) q^s below u's horizon, u read on the q^0 grid."""
    den, parts, M = u.integer_form()
    start = int(u.lead)
    cols = [col[start : s + 1] for s, col in zip(range(int(u.horizon)), zip(*table))]
    return PureQSeries.from_integers(_ZERO, _ONE, den, [_iconv(p, cols) for p in parts], M)


def _power_rows(g: list[int], n: int) -> tuple[tuple[int, ...], ...]:
    """Rows k < n of the q^0..q^(n-1) coefficients of (q*g)^k, by integer convolution."""
    cols = _toeplitz(g, n)
    rows = []
    power = [1] + [0] * (n - 1)
    for k in range(n):
        rows.append(tuple([0] * k + power[: n - k]))
        power = _iconv(power, cols[: n - k - 1])
    return tuple(rows)


def _over_last(xs: list[int], ds: list[int]) -> PureQSeries:
    """The rational sum_k (xs[k] / ds[k]) q^k over the last ds, which every ds[k] divides."""
    d = ds[-1]
    xs = [x * (d // dk) for x, dk in zip(xs, ds)]
    return PureQSeries.from_integers(_ZERO, _ONE, d, [xs], None)


def _e_power(beta: Fraction, Kmax: int) -> PureQSeries:
    """E^beta through q^Kmax, for E = prod (1 + q^n)^24 and any rational beta.

    theta E / E = 24 sum_j s_j q^j with s_j = sum_(d | j) (-1)^(j/d + 1) d, so
    P = E^beta obeys J.C.P. Miller's m P_m = 24 beta sum_(j=1..m) s_j P_(m-j).
    With 24 beta = p/q, P_m = X_m / Delta_m with Delta_m = Delta_(m-1) m q, and
    X_m = p sum_(i < m) s_(m-i) X_i prod_(t=i+1..m-1) t q runs by Horner in i.
    """
    p, q = (24 * beta).as_integer_ratio()
    s = [0] + [sigma(j) - (2 * sigma(j // 2) if j % 2 == 0 else 0) for j in range(1, Kmax + 1)]
    xs, ds = [1], [1]
    for m in range(1, Kmax + 1):
        acc = 0
        for i in range(m):
            acc = acc * (i * q) + s[m - i] * xs[i]
        xs.append(p * acc)
        ds.append(ds[-1] * m * q)
    return _over_last(xs, ds)


def tables_DC(Kmax: int) -> tuple[tuple[int, ...], ...]:
    """The integer table T[k][s] = [q^s] eps^k for 0 <= s, k <= Kmax, eps = q E."""
    _, (e,), _ = _e_power(Fraction(1), Kmax).integer_form()
    return _power_rows(e, Kmax + 1)


def _recurrence(steps) -> PureQSeries:
    """sum_k y_k q^k with y_0 = 1 and a_k y_(k+1) = b_k y_k: rational, for integer steps (a, b)."""
    xs, ds = [1], [1]
    for a, b in steps:
        xs.append(xs[-1] * b)
        ds.append(ds[-1] * a)
    return _over_last(xs, ds)


def _g_list(params: InstanceParams, Kmax: int) -> PureQSeries:
    """g(k) = (-64)^k (a)_k (b)_k / ((c)_k k!) with a = l1 + r, b = c - a - 1/2, c = 1 + l1 - l2.

    Pfaff's 2F1(a, a + 1/2; c; z) = (1 - z)^-a 2F1(a, b; c; z / (z - 1)) at
    z = 64/K, where z / (z - 1) = -64 eps, turns the paper's (qK)^-l1 (1 - z)^r
    2F1(a, a + 1/2; c; z) into E^l1 sum_k g_k eps^k.  The steps (k+1)(k+c) g(k+1)
    = -64 (k^2 + (c - 1/2) k + a b) g(k) are scaled by one D to integers; k + c
    never vanishes, as l1 - l2 is not an integer.  b = l1 + r~ exactly when
    r + r~ = 1/2 - l1 - l2; then a b is a norm, and otherwise it is irrational.
    """
    l1, l2, r, half = params.l1, params.l2, params.r, Fraction(1, 2)
    c = 1 + l1 - l2
    ab = (l1 + r) * (c - l1 - r - half)
    if ab.surd:
        raise ConsistencyError(f"r + r~ must be 1/2 - l1 - l2, but a*b = {ab} is irrational")
    polys = [(1, 1 + c, c), (-64, -64 * (c - half), -64 * ab.rat)]  # k^2, k, 1 of each step
    D = math.lcm(*(Fraction(x).denominator for p in polys for x in p))
    polys = [[int(x * D) for x in p] for p in polys]
    return _recurrence([[(u * k + v) * k + w for u, v, w in polys] for k in range(Kmax)])


def seq_f(params: InstanceParams, Kmax: int) -> tuple[PureQSeries, PureQSeries]:
    """The pair of g-sequences: the instance's and its mirror's (the tilde, l1 and l2 swapped)."""
    check_kmax(Kmax)
    return _g_list(params, Kmax), _g_list(params.mirrored(), Kmax)


def h_closed(params: InstanceParams, Kmax: int) -> tuple[PureQSeries, PureQSeries]:
    """The h-sequences in Pfaff form, h = E^l * sum_k g_k eps^k (h(0) = 1 normalized)."""
    check_kmax(Kmax)
    table = tables_DC(Kmax)
    g, g_tilde = seq_f(params, Kmax)
    return (
        _e_power(params.l1, Kmax) * _matvec(g, table),
        _e_power(params.l2, Kmax) * _matvec(g_tilde, table),
    )


def indicial(params: InstanceParams, x: Fraction) -> Fraction:
    """The indicial polynomial at infinity of the weight-zero equation."""
    return x * x + (params.a - Fraction(1, 6)) * x + (params.b + params.c)


def h_frobenius(params: InstanceParams, Kmax: int) -> tuple[PureQSeries, PureQSeries]:
    """The h-sequences by power-series recursion on the weight-zero equation.

    Writing the equation as theta^2 f + P theta f + Q f = 0 with
    P = a*G - E2/6 and Q = b*G^2 + c*E4, the substitution
    f = q^l (1 + sum c_n q^n) forces

        I(l + n) c_n = - sum_{j=1..n} (p_j (l + n - j) + q_j) c_{n-j}

    where I is the indicial polynomial; I(l) = 0 and the other root
    differs by a non-integer, so every step divides by a nonzero value.

    The recursion runs fraction-free.  With lambda = den(l) and
    X_m = lambda (l + m), one integer D writes D (p_j (l + m) + q_j) as
    U_j X_m + V_j, and one integer E makes N_n = E I(l + n) integral.
    Then c_n = C_n / Delta_n with Delta_n = Delta_(n-1) D N_n and

        C_n = -E sum_{j=1..n} (U_j X_(n-j) + V_j) C_(n-j) prod_{i=n-j+1..n-1} D N_i,

    evaluated by Horner in i (acc = acc * D N_i + T * C_i for i = 0..n-1),
    so every product is big by small.  Each c_n is reduced once.  The
    series come in as coefficient lists and h leaves through ``make``:
    no kernel call is shared with the closed route but the one for G^2.
    """
    check_kmax(Kmax)
    count = Kmax + 1
    G = weight2_G(Kmax)
    g, g2 = G.coeffs, (G * G).coeffs
    e2 = eisenstein_E2(Kmax).coeffs
    e4 = eisenstein_E4(Kmax).coeffs
    p = [params.a * g[j] - e2[j] / 6 for j in range(count)]
    q = [params.b * g2[j] + params.c * e4[j] for j in range(count)]

    def run(l: Fraction) -> PureQSeries:
        values = [indicial(params, l + n) for n in range(count)]
        if values[0] != 0:
            raise ConsistencyError(f"{l} is not an indicial root")
        for n, value in enumerate(values[1:], 1):
            if value == 0:
                raise ConsistencyError(f"indicial value vanishes at {l + n}")
        lam = l.denominator
        E = math.lcm(*(v.denominator for v in values))
        pl = [x / lam for x in p]
        D = math.lcm(*(x.denominator for x in pl), *(x.denominator for x in q))
        U = [x.numerator * (D // x.denominator) for x in pl]
        V = [x.numerator * (D // x.denominator) for x in q]
        X = [l.numerator + lam * m for m in range(count)]
        DN = [D * v.numerator * (E // v.denominator) for v in values]
        C = [1]
        out = [_ONE]
        delta = 1
        for n in range(1, count):
            acc = 0
            for i in range(n):
                acc = acc * DN[i] + (U[n - i] * X[i] + V[n - i]) * C[i]
            C.append(-E * acc)
            delta *= DN[n]
            out.append(Fraction(C[n], delta))
        return PureQSeries.make(0, out)

    return run(params.l1), run(params.l2)


class SeqTables(Record):
    """The sequences the reports and scans read: h, the eta tail e and d = e*h.

    Each is the ``coeffs`` tuple of a series: h, eta^(2 k0) or a component.
    """

    Kmax: int
    h: tuple
    h_tilde: tuple
    e: tuple
    d: tuple
    d_tilde: tuple


class MinimalForm(Record):
    """The normalized minimal-weight vector: two pure q-expansions.

    Its modular derivative is computed on first use and then kept, so
    every caller shares one cross-checked pair (see ``deriv_components``).
    """

    params: InstanceParams
    comp1: PureQSeries
    comp2: PureQSeries
    tables: SeqTables
    method: str

    @cached_property
    def derivative(self) -> tuple[PureQSeries, PureQSeries]:
        out = []
        for t, comp, lead in zip(t_lists(self), (self.comp1, self.comp2), self.params.leads):
            built = PureQSeries.make(lead, t)
            if not equal_through(built, modular_D(self.params.k0, comp), lead + len(t) - 1):
                raise PipelineMismatch("derivative coefficient formula disagrees with operator")
            out.append(built)
        return out[0], out[1]


def minimal_form(params: InstanceParams, Kmax: int, method: str = "both") -> MinimalForm:
    """Build the normalized minimal form to relative order Kmax.

    method "closed" uses the sequence formulas, "frobenius" the series
    recursion, and "both" (the default for anything feeding denominator
    analysis) runs the two and requires exact agreement.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    check_kmax(Kmax)
    if method == "frobenius":
        h, ht = h_frobenius(params, Kmax)
    else:
        h, ht = h_closed(params, Kmax)
    if method == "both":
        hf, htf = h_frobenius(params, Kmax)
        # the difference of two routes leads at their first disagreement
        K = min((h - hf).lead, (ht - htf).lead)
        if K <= Kmax:
            raise PipelineMismatch(
                f"closed-form and recursion disagree at K={K}: "
                f"{h.coeff(K)} vs {hf.coeff(K)} / {ht.coeff(K)} vs {htf.coeff(K)}"
            )

    eta = eta_pow(2 * params.k0, Kmax)
    comp1 = eta * h.shifted(params.l1)
    comp2 = eta * ht.shifted(params.l2)
    tables = SeqTables(
        Kmax=Kmax,
        h=h.coeffs,
        h_tilde=ht.coeffs,
        e=eta.coeffs,
        d=comp1.coeffs,
        d_tilde=comp2.coeffs,
    )
    return MinimalForm(params, comp1, comp2, tables, method)


def mlde_residual(params: InstanceParams, u: PureQSeries) -> PureQSeries:
    """Apply the full weight-k0 operator; exact zero certifies a solution."""
    k0 = params.k0
    order = u.length
    e4 = eisenstein_E4(order)
    g = weight2_G(order)
    du = modular_D(k0, u)
    return (
        modular_D(k0 + 2, du)
        + params.a * (g * du)
        + (params.b * (g * g) + params.c * e4) * u
    )


def t_lists(mf: MinimalForm) -> tuple[list, list]:
    """Coefficient lists of the modular derivative of the minimal form.

    t(K) = d(K)(K + l) + 2 k0 sum_{n=1..K} sigma(n) d(K-n), the n = K term
    using d(0) = 1; the leading entry is l itself.
    """
    p = mf.params
    k0 = p.k0

    def build(dlist: tuple, l: Fraction) -> list:
        out: list = [l]
        for K in range(1, len(dlist)):
            val = dlist[K] * (K + l)
            if k0:
                val = val + 2 * k0 * sum(
                    (sigma(n) * dlist[K - n] for n in range(1, K + 1)), Fraction(0)
                )
            out.append(val)
        return out

    return build(mf.tables.d, p.l1), build(mf.tables.d_tilde, p.l2)


def deriv_components(mf: MinimalForm) -> tuple[PureQSeries, PureQSeries]:
    """The modular derivative of both components, cross-checked exactly.

    Built from the coefficient formula of ``t_lists``, then compared
    against applying the derivative operator directly to the series;
    disagreement is a hard failure.  Both run once per minimal form.
    """
    return mf.derivative


class BasisElement(Record):
    """One member of the weight-k basis: a monomial times F' or its derivative."""

    a: int
    b: int
    derivative: bool
    comp1: PureQSeries
    comp2: PureQSeries

    @property
    def label(self) -> str:
        core = "DF'" if self.derivative else "F'"
        return f"G^{self.a}*E4^{self.b}*{core}"


def combination(
    mf: MinimalForm,
    m1_map: dict[tuple[int, int], object],
    m2_map: dict[tuple[int, int], object],
    k: int,
) -> tuple[PureQSeries, PureQSeries]:
    """The vector m1*F' + m2*DF' from monomial coefficient maps of the right weights."""
    p = mf.params
    for coeff_map, want in ((m1_map, k - p.k0), (m2_map, k - p.k0 - 2)):
        for a, b in coeff_map:
            if 2 * a + 4 * b != want:
                raise ConsistencyError(
                    f"monomial G^{a}E4^{b} has weight {2 * a + 4 * b}, need {want}"
                )
    n = mf.comp1.length + 1

    def scalar_form(coeff_map) -> PureQSeries | None:
        total = None
        for (a, b), c in sorted(coeff_map.items()):
            term = form_monomial(a, b, n) * c
            total = term if total is None else total + term
        return total

    m1 = scalar_form(m1_map)
    m2 = scalar_form(m2_map)
    z1 = z2 = None
    if m1 is not None:
        z1, z2 = m1 * mf.comp1, m1 * mf.comp2
    if m2 is not None:
        d1, d2 = deriv_components(mf)
        t1, t2 = m2 * d1, m2 * d2
        z1 = t1 if z1 is None else z1 + t1
        z2 = t2 if z2 is None else z2 + t2
    if z1 is None:
        raise ConsistencyError("empty combination")
    return z1, z2


def weight_basis(mf: MinimalForm, k: int) -> list[BasisElement]:
    """All monomial multiples of F' and DF' landing in weight k."""
    k0 = mf.params.k0
    out = []
    for a, b in monomial_basis(k - k0):
        out.append(BasisElement(a, b, False, *combination(mf, {(a, b): 1}, {}, k)))
    for a, b in monomial_basis(k - k0 - 2):
        out.append(BasisElement(a, b, True, *combination(mf, {}, {(a, b): 1}, k)))
    return out


def decompose(
    mf: MinimalForm,
    Z1: PureQSeries,
    Z2: PureQSeries,
    k: int,
) -> tuple[PureQSeries, PureQSeries]:
    """Write (Z1, Z2) as m1*F' + m2*DF' with scalar forms m1, m2.

    Cramer's rule with the Wronskian W = F1*D2 - F2*D1 of F' = (F1, F2)
    and DF' = (D1, D2): m1 = (Z1*D2 - Z2*D1)/W and m2 = (F1*Z2 - F2*Z1)/W.
    W leads with (l2 - l1) q^(2k0/12 + l1 + l2), and l1 != l2, so W is
    invertible.  The results are known as far as both components of Z and
    the minimal form are.  Both outputs are checked to be genuine forms of
    the right weights via their monomial coordinates.
    """
    p = mf.params
    lead1, lead2 = p.leads
    for z, lead in ((Z1, lead1), (Z2, lead2)):
        if not z.is_zero:
            rel = z.lead - lead
            if rel.denominator != 1 or rel < 0:
                raise ConsistencyError(
                    f"component lead {z.lead} is not on the grid {lead} + Z>=0"
                )
    F1, F2 = mf.comp1, mf.comp2
    D1, D2 = deriv_components(mf)
    w_inv = (F1 * D2 - F2 * D1).inv()
    known = min(int(Z1.horizon - lead1), int(Z2.horizon - lead2), len(mf.tables.d))

    m1 = ((Z1 * D2 - Z2 * D1) * w_inv).truncated_at(known)
    m2 = ((F1 * Z2 - F2 * Z1) * w_inv).truncated_at(known)
    monomial_coordinates(m1, k - p.k0)
    monomial_coordinates(m2, k - p.k0 - 2)
    return m1, m2
