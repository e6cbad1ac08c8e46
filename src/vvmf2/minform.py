"""Two independent constructions of the normalized minimal-weight form.

A component is eta^(2 k0) q^l h(q), as the paper writes it.  Both routes
solve a linear theta-equation (theta = q d/dq) for h on one fraction-free
kernel, ``_solve_theta``.  The closed-form route pulls the paper's 2F1
back along the Hauptmodul z = -64 q E of Gamma0(2), E = prod (1 + q^n)^24;
its coefficients are integer series in z and the divisor sums
psi = theta E / E, and it builds E from psi alone, by theta E = psi E,
reading none of E2, E4 or G.  The other route is the weight-zero
equation's Frobenius recursion, from G, E2 and E4.  A fault in a named
series reaches one route, one in the kernel or the series product both,
through different equations; ``minimal_form(..., method="both")`` raises
``PipelineMismatch`` at the first coefficient where they disagree.
Every h is a rational ``PureQSeries`` (lead 0, step 1), whatever r's field.

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
from operator import mul

from .errors import ConsistencyError, PipelineMismatch
from .forms import (
    _cached,
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
from .qseries import PureQSeries, _conv, equal_through
from .quadratic import FieldElement, pochhammer
from .record import Record

_ZERO, _ONE, _HALF = Fraction(0), Fraction(1), Fraction(1, 2)
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


def _solve_theta(A: list[int], B: list[int], C: list[int], n: int) -> PureQSeries:
    """The y = 1 + O(q) through q^n with sum_j T_j(m - j) y_(m-j) = 0 for 0 < m <= n.

    T_j(x) = A_j x^2 + B_j x + C_j for integer series A, B and C.  This is
    the one indicial check: N_m = T_0(m) must vanish at m = 0 and nowhere
    after.  Fraction-free, y_m = Y_m / Delta_m with Delta_m = Delta_(m-1) N_m
    and Y_m = -sum_(i < m) T_(m-i)(i) Y_i prod_(t=i+1..m-1) N_t, by Horner in
    i, so every product is big by small.  A step reads j only below the
    longest series' length (a two-term recurrence costs O(1) per step), and
    y is reduced once, at the end.  y does not change when A, B and C are
    scaled together, so they are first divided by their content: a common
    factor left in would grow Delta_m by its m-th power.
    """
    L = max(len(A), len(B), len(C))
    g = math.gcd(*A, *B, *C) or 1
    A, B, C = ([*(x // g for x in s), *[0] * (L - len(s))] for s in (A, B, C))
    N = [(A[0] * m + B[0]) * m + C[0] for m in range(n + 1)]
    if N[0]:
        raise ConsistencyError(f"not an indicial root: the indicial value at 0 is {N[0]}")
    if 0 in N[1:]:
        raise ConsistencyError(f"indicial value vanishes at step {N.index(0, 1)}")
    Y, ds = [1], [1]
    for m in range(1, n + 1):
        lo, k = max(0, m - L + 1), min(m, L - 1)
        acc = 0
        terms = zip(range(lo, m), A[k:0:-1], B[k:0:-1], C[k:0:-1], N[lo:m], Y[lo:])
        for i, a, b, c, Ni, Yi in terms:
            acc = acc * Ni + ((a * i + b) * i + c) * Yi
        Y.append(-acc)
        ds.append(ds[-1] * N[m])
    d = abs(ds[-1])  # every ds[m] divides it
    Y = [x * (d // dm) for x, dm in zip(Y, ds)]
    return PureQSeries.from_integers(_ZERO, _ONE, d, [Y], None)


def _divisor_sums(Kmax: int) -> list[int]:
    """s_j = sum_(d | j) (-1)^(j/d + 1) d for j <= Kmax (s_0 = 0): theta E / E = 24 sum s_j q^j."""
    return [0] + [sigma(j) - (2 * sigma(j // 2) if j % 2 == 0 else 0) for j in range(1, Kmax + 1)]


def _e_series(psi: list[int], n: int) -> list[int]:
    """E = prod (1 + q^n)^24 through q^(n-1) (n >= 1) from theta E = psi E, by
    m E_m = sum_(j=1..m) psi_j E_(m-j).

    E is integral, so a remainder can only come from a fault, and is refused.
    """
    e = [1]
    for m in range(1, n):
        e_m, rest = divmod(sum(map(mul, psi[1 : m + 1], reversed(e))), m)
        if rest:
            raise PipelineMismatch(f"E = prod (1 + q^n)^24 came out non-integral at q^{m}")
        e.append(e_m)
    return e


def tables_DC(Kmax: int) -> tuple[list[int], ...]:
    """The closed route's instance-independent integer series through q^Kmax.

    From psi = theta E / E, phi = 1 + psi and z = -64 q E (so theta z = z phi):
    (1 - z) phi, phi^2, z phi^2, (1 - z) theta psi, (1 - z) phi psi,
    (1 - z) phi psi^2, psi phi^2, z psi phi^2 and z phi^3, in that order.
    E comes from psi by ``_e_series``, and six products, phi^2, z phi,
    z phi^2, phi^3, z phi^3 and z theta psi, give the nine: as psi = phi - 1,
    every other table is an integer difference of these and phi.
    Cached per process: a shorter Kmax reads an exact prefix of a longer build.
    """
    def build(n: int) -> tuple[list[int], ...]:
        psi = [24 * s for s in _divisor_sums(n - 1)]
        phi, theta_psi = [1, *psi[1:]], [j * x for j, x in enumerate(psi)]
        z = [0, *(-64 * x for x in _e_series(psi, n)[: n - 1])]
        phi2, z_phi, z_th = _conv(phi, phi, n), _conv(z, phi, n), _conv(z, theta_psi, n)
        phi3, z_phi2 = _conv(phi2, phi, n), _conv(z, phi2, n)
        z_phi3 = _conv(z_phi2, phi, n)
        phi_1z = [x - y for x, y in zip(phi, z_phi)]
        phi2_1z = [x - y for x, y in zip(phi2, z_phi2)]
        return (
            phi_1z, phi2, z_phi2,
            [x - y for x, y in zip(theta_psi, z_th)],
            [x - y for x, y in zip(phi2_1z, phi_1z)],
            [x - y - 2 * u + v for x, y, u, v in zip(phi3, z_phi3, phi2_1z, phi_1z)],
            [x - y for x, y in zip(phi3, phi2)],
            [x - y for x, y in zip(z_phi3, z_phi2)],
            z_phi3,
        )

    return _cached("tables_DC", Kmax + 1, build)


def _hypergeometric(params: InstanceParams) -> tuple[Fraction, Fraction]:
    """(c, a b) for h = E^l1 2F1(a, b; c; z): a = l1 + r, b = c - a - 1/2, c = 1 + l1 - l2.

    This is Pfaff's form of the paper's 2F1(a, a + 1/2; c; 64/K).  a b is a
    norm, as b = l1 + r~, exactly when r + r~ = 1/2 - l1 - l2 (r is
    irrational): then a b = l1 (1/2 - l2) + N(r), in rationals.
    """
    l1, l2, r = params.l1, params.l2, params.r
    if 2 * r.rat != _HALF - l1 - l2:
        ab = (l1 + r) * (_HALF - l2 - r)
        raise ConsistencyError(f"r + r~ must be 1/2 - l1 - l2, but a*b = {ab} is irrational")
    return 1 + l1 - l2, l1 * (_HALF - l2) + r.norm()


def _scaled(rows) -> list[list[int]]:
    """Rational rows times the least common denominator of all their entries."""
    D = math.lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * D) for x in row] for row in rows]


def seq_f(params: InstanceParams, Kmax: int) -> tuple[PureQSeries, PureQSeries]:
    """g(k) = (-64)^k (a)_k (b)_k / ((c)_k k!) for the instance and its mirror (l1, l2 swapped).

    (k+1)(k+c) g(k+1) = -64 (k^2 + (c - 1/2) k + a b) g(k) is a theta-equation
    of two terms; k + c never vanishes, as l1 - l2 is not an integer.
    """
    check_kmax(Kmax)

    def run(p: InstanceParams) -> PureQSeries:
        c, ab = _hypergeometric(p)
        return _solve_theta(*_scaled([(1, 64), (c - 1, 64 * (c - _HALF)), (0, 64 * ab)]), Kmax)

    return run(params), run(params.mirrored())


def h_closed(params: InstanceParams, Kmax: int) -> tuple[PureQSeries, PureQSeries]:
    """The h-sequences from the 2F1 equation pulled back along z (h(0) = 1 normalized).

    As delta = z d/dz = phi^-1 theta, phi^3 times delta(delta + c - 1) F =
    z (delta + a)(delta + b) F reads A theta^2 F + B_F theta F + C_F F = 0 with
    A = (1 - z) phi, B_F = (c - 1) phi^2 - (c - 1/2) z phi^2 - (1 - z) theta psi
    and C_F = -a b z phi^3.  F = E^-l h then gives
    A theta^2 h + (B_F - 2 l psi A) theta h + (A (l^2 psi^2 - l theta psi)
    - l psi B_F + C_F) h = 0, whose theta psi terms add up to -l (1 - z) theta psi
    as phi - psi = 1.  Its indicial values are D m (m + c - 1).
    """
    check_kmax(Kmax)
    (phi_1z, phi2, z_phi2, th_1z, psi_phi_1z, psi2_phi_1z, psi_phi2, z_psi_phi2,
     z_phi3) = tables_DC(Kmax)

    def run(p: InstanceParams) -> PureQSeries:
        c, ab = _hypergeometric(p)
        l = p.l1
        ((D, w_c1, w_c2, w_l, w_l2, w_lc1, w_lc2, w_ab),) = _scaled(
            [(1, c - 1, c - _HALF, l, l * l, l * (c - 1), l * (c - _HALF), ab)]
        )
        B = [
            w_c1 * x - w_c2 * y - D * t - 2 * w_l * u
            for x, y, t, u in zip(phi2, z_phi2, th_1z, psi_phi_1z)
        ]
        C = [
            w_l2 * v - w_l * t - w_lc1 * x + w_lc2 * y - w_ab * w
            for v, t, x, y, w in zip(psi2_phi_1z, th_1z, psi_phi2, z_psi_phi2, z_phi3)
        ]
        return _solve_theta([D * x for x in phi_1z], B, C, Kmax)

    return run(params), run(params.mirrored())


def h_frobenius(params: InstanceParams, Kmax: int) -> tuple[PureQSeries, PureQSeries]:
    """The h-sequences by power-series recursion on the weight-zero equation.

    With the equation as theta^2 f + P theta f + Q f = 0, P = a*G - E2/6 and
    Q = b*G^2 + c*E4, f = q^l h puts l + x for theta on q^(l + x): h solves
    the theta-equation A = 1, B = P + 2l, C = Q + l P + l^2, over one D.  Its
    indicial values D (x^2 + (a - 1/6) x + b + c) at x = l + m vanish at
    m = 0 only, as the other root is l1 + l2 - l.  G, G^2, E2 and E4 enter
    as integer lists, each series' denominator folded into its rational
    weight, so B and C are integer combinations of four lists and no value
    is made per coefficient.  The route shares ``_solve_theta`` with the
    closed route, and the series product only for G^2, which depends on
    Kmax alone and is the cached ``form_monomial(2, 0, Kmax)``.
    """
    check_kmax(Kmax)
    series = (weight2_G(Kmax), form_monomial(2, 0, Kmax), eisenstein_E2(Kmax), eisenstein_E4(Kmax))
    (dg, (g,), _), (dg2, (g2,), _), (de2, (e2,), _), (de4, (e4,), _) = (
        s.integer_form() for s in series
    )
    a, b, c, sixth = params.a, params.b, params.c, Fraction(1, 6 * de2)

    def run(l: Fraction) -> PureQSeries:
        ((D, w_g, w_e2, w_g2, w_e4, w_lg, w_le2, w_l2, w_2l),) = _scaled(
            [(1, a / dg, sixth, b / dg2, c / de4, l * a / dg, l * sixth, l * l, 2 * l)]
        )
        B = [w_g * x - w_e2 * y for x, y in zip(g, e2, strict=True)]
        C = [
            w_g2 * x + w_e4 * y + w_lg * u - w_le2 * v
            for x, y, u, v in zip(g2, e4, g, e2, strict=True)
        ]
        B[0] += w_2l
        C[0] += w_l2
        return _solve_theta([D], B, C, Kmax)

    return run(params.l1), run(params.l2)


class SeqTables(Record):
    """The sequences the reports and scans read: h, the eta tail e and d = e*h.

    Kept as the series h, h~, eta^(2 k0) and the minimal form's components,
    whose integer forms the scans read; each value tuple is derived on first
    read.  With k0 = 0 a component is h shifted, on h's integer form, so d is h's tuple.
    """

    Kmax: int
    h_series: PureQSeries
    h_tilde_series: PureQSeries
    eta: PureQSeries
    comp1: PureQSeries
    comp2: PureQSeries

    h = cached_property(lambda t: t.h_series.coeffs)
    h_tilde = cached_property(lambda t: t.h_tilde_series.coeffs)
    e = cached_property(lambda t: t.eta.coeffs)
    d = cached_property(
        lambda t: t.h if t.comp1.integer_form() == t.h_series.integer_form() else t.comp1.coeffs
    )
    d_tilde = cached_property(
        lambda t: t.h_tilde if t.comp2.integer_form() == t.h_tilde_series.integer_form()
        else t.comp2.coeffs
    )


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
        # canonical forms are equal exactly when the series are; if not, the
        # difference of two routes leads at their first disagreement
        if (h, ht) != (hf, htf):
            K = min((h - hf).lead, (ht - htf).lead)
            if K <= Kmax:
                raise PipelineMismatch(
                    f"closed-form and recursion disagree at K={K}: "
                    f"{h.coeff(K)} vs {hf.coeff(K)} / {ht.coeff(K)} vs {htf.coeff(K)}"
                )

    eta = eta_pow(2 * params.k0, Kmax)
    comp1, comp2 = (  # eta^0 = 1: no product when k0 = 0
        eta * s.shifted(l) if params.k0 else s.shifted(l)
        for s, l in ((h, params.l1), (ht, params.l2))
    )
    return MinimalForm(params, comp1, comp2, SeqTables(Kmax, h, ht, eta, comp1, comp2), method)


def mlde_residual(params: InstanceParams, u: PureQSeries) -> PureQSeries:
    """Apply the full weight-k0 operator; exact zero certifies a solution."""
    k0 = params.k0
    order = u.length
    du = modular_D(k0, u)
    return (
        modular_D(k0 + 2, du)
        + params.a * (weight2_G(order) * du)
        + (params.b * form_monomial(2, 0, order) + params.c * eisenstein_E4(order)) * u
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
    known = min(int(Z1.horizon - lead1), int(Z2.horizon - lead2), F1.length)

    m1 = ((Z1 * D2 - Z2 * D1) * w_inv).truncated_at(known)
    m2 = ((F1 * Z2 - F2 * Z1) * w_inv).truncated_at(known)
    monomial_coordinates(m1, k - p.k0)
    monomial_coordinates(m2, k - p.k0 - 2)
    return m1, m2
