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
through different equations; ``minimal_form`` always runs both and raises
``PipelineMismatch`` at the first coefficient where they disagree.
Every h is a rational ``PureQSeries`` (lead 0, step 1), whatever r's field.

The minimal form F' and its modular derivative DF' generate everything
of higher weight.  ``combination`` is the one builder of m1*F' + m2*DF'
from monomials G^a E4^b, ``weight_basis`` lists the one-monomial
multiples, and ``decomposition`` inverts that construction exactly, by
Cramer's rule with the Wronskian of the two, one rational inverse, and
returns the monomial coordinates it checks them by.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce
from operator import add, mul

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
from .qseries import PureQSeries, _conv, _iweigh, _lincomb, equal_through
from .quadratic import FieldElement, pochhammer
from .record import Record

_ZERO, _ONE, _HALF = Fraction(0), Fraction(1), Fraction(1, 2)


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
    i, so every product is big by small, and with no A-term when A = [A_0].
    A step reads j only below the longest series' length (a two-term
    recurrence costs O(1) per step).  Y_m is then brought to |Delta_n| by
    the running product N_n ... N_(m+1), and y is reduced once.  y does not
    change when A, B and C are scaled together, so they are first divided
    by their content: a common factor left in would grow Delta_m by its
    m-th power.
    """
    L = max(len(A), len(B), len(C))
    g = math.gcd(*A, *B, *C) or 1
    A, B, C = ([*(x // g for x in s), *[0] * (L - len(s))] for s in (A, B, C))
    N = [(A[0] * m + B[0]) * m + C[0] for m in range(n + 1)]
    if N[0]:
        raise ConsistencyError(f"not an indicial root: the indicial value at 0 is {N[0]}")
    if 0 in N[1:]:
        raise ConsistencyError(f"indicial value vanishes at step {N.index(0, 1)}")
    Y, dense = [1], any(A[1:])
    for m in range(1, n + 1):
        lo, k = max(0, m - L + 1), min(m, L - 1)
        acc = 0
        if dense:
            terms = zip(range(lo, m), A[k:0:-1], B[k:0:-1], C[k:0:-1], N[lo:m], Y[lo:])
            for i, a, b, c, Ni, Yi in terms:
                acc = acc * Ni + ((a * i + b) * i + c) * Yi
        else:  # T_j(i) = B_j i + C_j for j >= 1
            for i, b, c, Ni, Yi in zip(range(lo, m), B[k:0:-1], C[k:0:-1], N[lo:m], Y[lo:]):
                acc = acc * Ni + (b * i + c) * Yi
        Y.append(-acc)
    d = -1 if sum(x < 0 for x in N) % 2 else 1  # d ends as |Delta_n| = |prod N_m|
    for m in range(n, 0, -1):
        Y[m] *= d
        d *= N[m]
    Y[0] = d
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
    irrational): then a b = l1 (1/2 - l2) + N(r), in rationals.  Both are
    read off the numerators and denominators of l1 = p1/q1, l2 = p2/q2 and
    r = x/dx + (y/dy) sqrt(M), with no Fraction arithmetic.
    """
    l1, l2, r = params.l1, params.l2, params.r
    p1, q1, p2, q2 = l1.numerator, l1.denominator, l2.numerator, l2.denominator
    x, dx, y, dy = r.rat.numerator, r.rat.denominator, r.surd.numerator, r.surd.denominator
    if 4 * x * q1 * q2 != dx * (q1 * q2 - 2 * (p1 * q2 + p2 * q1)):  # 2 r.rat = 1/2 - l1 - l2
        ab = (l1 + r) * (_HALF - l2 - r)
        raise ConsistencyError(f"r + r~ must be 1/2 - l1 - l2, but a*b = {ab} is irrational")
    e2, n_r = (dx * dy) ** 2, (x * dy) ** 2 - r.M * (y * dx) ** 2  # N(r) = n_r / e2
    return (Fraction(q1 * q2 + p1 * q2 - p2 * q1, q1 * q2),
            Fraction(p1 * (q2 - 2 * p2) * e2 + 2 * q1 * q2 * n_r, 2 * q1 * q2 * e2))


def seq_f(params: InstanceParams, Kmax: int) -> tuple[PureQSeries, PureQSeries]:
    """g(k) = (-64)^k (a)_k (b)_k / ((c)_k k!) for the instance and its mirror (l1, l2 swapped).

    (k+1)(k+c) g(k+1) = -64 (k^2 + (c - 1/2) k + a b) g(k) is a theta-equation
    of two terms; k + c never vanishes, as l1 - l2 is not an integer.  With
    c - 1 = s/d and a b = e/f it is solved times d f, on integers.
    """
    check_kmax(Kmax)

    def run(p: InstanceParams) -> PureQSeries:
        c, ab = _hypergeometric(p)
        d, s, e, f = c.denominator, c.numerator - c.denominator, ab.numerator, ab.denominator
        A, B, C = [d * f, 64 * d * f], [s * f, 32 * (2 * s + d) * f], [0, 64 * d * e]
        return _solve_theta(A, B, C, Kmax)

    return run(params), run(params.mirrored())


def h_closed(params: InstanceParams, Kmax: int) -> tuple[PureQSeries, PureQSeries]:
    """The h-sequences from the 2F1 equation pulled back along z (h(0) = 1 normalized).

    As delta = z d/dz = phi^-1 theta, phi^3 times delta(delta + c - 1) F =
    z (delta + a)(delta + b) F reads A theta^2 F + B_F theta F + C_F F = 0 with
    A = (1 - z) phi, B_F = (c - 1) phi^2 - (c - 1/2) z phi^2 - (1 - z) theta psi
    and C_F = -a b z phi^3.  F = E^-l h then gives
    A theta^2 h + (B_F - 2 l psi A) theta h + (A (l^2 psi^2 - l theta psi)
    - l psi B_F + C_F) h = 0, whose theta psi terms add up to -l (1 - z) theta psi
    as phi - psi = 1.  Its indicial values are D m (m + c - 1).  The weights
    1, c - 1, c - 1/2, l, l^2, l (c - 1), l (c - 1/2) and a b are integers
    over 2 d q^2 f, read off c - 1 = s/d, l = n/q and a b = e/f.
    """
    check_kmax(Kmax)
    (phi_1z, phi2, z_phi2, th_1z, psi_phi_1z, psi2_phi_1z, psi_phi2, z_psi_phi2,
     z_phi3) = tables_DC(Kmax)

    def run(p: InstanceParams) -> PureQSeries:
        c, ab = _hypergeometric(p)
        n, q, d = p.l1.numerator, p.l1.denominator, c.denominator
        s, e, f = c.numerator - d, ab.numerator, ab.denominator
        s2, qf = 2 * s + d, q * f
        D, w_c1, w_c2, w_ab = 2 * d * q * qf, 2 * s * q * qf, s2 * q * qf, 2 * d * q * q * e
        w_l, w_l2, w_lc1, w_lc2 = 2 * n * d * qf, 2 * n * n * d * f, 2 * n * s * qf, n * s2 * qf
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
    the theta-equation A = 1, B = P + 2l, C = Q + l P + l^2.  Its indicial
    values x^2 + (a - 1/6) x + b + c at x = l + m vanish at m = 0 only, as
    the other root is l1 + l2 - l.  G, G^2, E2 and E4 enter as integer
    lists, each series' denominator folded into its weight, so R P and R Q
    are integer lists for one R, made once; l = n/q gives the equation
    times q^2 R, and no Fraction or per-coefficient value is made.  The
    route shares ``_solve_theta`` with the closed route, and the series
    product only for G^2, the cached ``form_monomial(2, 0, Kmax)``.
    """
    check_kmax(Kmax)
    series = (weight2_G(Kmax), form_monomial(2, 0, Kmax), eisenstein_E2(Kmax), eisenstein_E4(Kmax))
    (dg, (g,), _), (dg2, (g2,), _), (de2, (e2,), _), (de4, (e4,), _) = (
        s.integer_form() for s in series
    )
    a, b, c = params.a, params.b, params.c
    da, d6, db, dc = a.denominator * dg, 6 * de2, b.denominator * dg2, c.denominator * de4
    R = math.lcm(da, d6, db, dc)
    w_g, w_e2 = a.numerator * (R // da), R // d6
    w_g2, w_e4 = b.numerator * (R // db), c.numerator * (R // dc)
    P = [w_g * x - w_e2 * y for x, y in zip(g, e2, strict=True)]
    Q = [w_g2 * x + w_e4 * y for x, y in zip(g2, e4, strict=True)]

    def run(l: Fraction) -> PureQSeries:
        n, q = l.numerator, l.denominator
        qq, nq = q * q, n * q
        B = [qq * x for x in P]
        C = [qq * x + nq * y for x, y in zip(Q, P)]
        B[0] += 2 * nq * R
        C[0] += n * n * R
        return _solve_theta([qq * R], B, C, Kmax)

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

    @cached_property
    def derivative(self) -> tuple[PureQSeries, PureQSeries]:
        built = t_lists(self)
        for t, comp in zip(built, (self.comp1, self.comp2)):
            if not equal_through(t, modular_D(self.params.k0, comp), comp.horizon - 1):
                raise PipelineMismatch("derivative coefficient formula disagrees with operator")
        return built


def minimal_form(params: InstanceParams, Kmax: int, method: str = "both") -> MinimalForm:
    """Build the normalized minimal form to relative order Kmax by both routes.

    The closed-form and Frobenius routes must agree exactly.  ``method`` is
    kept for callers that pass "both"; any other value is a ValueError.
    """
    if method != "both":
        raise ValueError(f"unknown method {method!r}")
    check_kmax(Kmax)
    h, ht = h_closed(params, Kmax)
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
    return MinimalForm(params, comp1, comp2, SeqTables(Kmax, h, ht, eta, comp1, comp2))


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


def t_lists(mf: MinimalForm) -> tuple[PureQSeries, PureQSeries]:
    """The modular derivative of the minimal form by its coefficient formula.

    A component q^lead sum d(K) q^K has t(K) = (K + l) d(K) + 2 k0 sum_(n=1..K)
    sigma(n) d(K - n).  On its integer form (den, [x]) and l = n/q this is
    t(K) q den = (q K + n) x(K) + 2 k0 q (sigma * x)(K): one weighting and,
    when k0 != 0, one product with [0, sigma(1), sigma(2), ...].
    """
    k0 = mf.params.k0

    def build(comp: PureQSeries, l: Fraction) -> PureQSeries:
        den, (x,), _ = comp.integer_form()
        t = _iweigh(x, l.numerator, l.denominator)
        if k0:
            sig = [0, *map(sigma, range(1, len(x)))]
            t = _lincomb(t, 1, _conv(x, sig, len(x)), 2 * k0 * l.denominator)
        return PureQSeries.from_integers(comp.lead, comp.step, l.denominator * den, [t], None)

    return build(mf.comp1, mf.params.l1), build(mf.comp2, mf.params.l2)


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
    z = []
    for coeff_map, derivative in ((m1_map, False), (m2_map, True)):
        if coeff_map:
            m = reduce(add, [form_monomial(a, b, n) * c for (a, b), c in sorted(coeff_map.items())])
            vector = deriv_components(mf) if derivative else (mf.comp1, mf.comp2)
            z.append([m * u for u in vector])
    if not z:
        raise ConsistencyError("empty combination")
    z1, z2 = (reduce(add, terms) for terms in zip(*z))
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
    mf: MinimalForm, Z1: PureQSeries, Z2: PureQSeries, k: int
) -> tuple[PureQSeries, PureQSeries]:
    """(m1, m2) of ``decomposition``: (Z1, Z2) = m1*F' + m2*DF' with scalar forms m1, m2."""
    (m1, _), (m2, _) = decomposition(mf, Z1, Z2, k)
    return m1, m2


def decomposition(
    mf: MinimalForm,
    Z1: PureQSeries,
    Z2: PureQSeries,
    k: int,
) -> tuple[tuple[PureQSeries, dict], tuple[PureQSeries, dict]]:
    """((m1, coords1), (m2, coords2)) with (Z1, Z2) = m1*F' + m2*DF' and m1, m2 scalar forms.

    Cramer's rule with the Wronskian W = F1*D2 - F2*D1 of F' = (F1, F2)
    and DF' = (D1, D2): m1 = (Z1*D2 - Z2*D1)/W and m2 = (F1*Z2 - F2*Z1)/W.
    W leads with (l2 - l1) q^(2k0/12 + l1 + l2), and l1 != l2, so W is
    invertible.  The results are known as far as both components of Z and
    the minimal form are.  Their monomial coordinates, solved once, show
    both to be genuine forms of the right weights.
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
    return (m1, monomial_coordinates(m1, k - p.k0)), (m2, monomial_coordinates(m2, k - p.k0 - 2))
