"""Exact q-expansions of the modular objects living on Gamma0(2).

Provides the Eisenstein series E2 and E4, the weight-two form G, the eta
quotients eta(tau)^a eta(2 tau)^b, the normalized Hauptmodul pair (K, J)
with K = 64*J integral, the modular derivative D_k, the Jacobi theta^4
and eta-quotient companions used at the other cusp, and the monomial
basis G^a E4^b of each weight together with exact coordinates in it,
solved by forward substitution in the triangular basis G^(k/2-2b) (E4 - G^2)^b.

Every eta product is built by ``eta_quotient`` and every G^a E4^b, G^2
among them, by ``form_monomial``; the closed route reads E from
``eta_quotient`` and none of E2, E4 or G.  These, the named series and
the closed route's tables are cached in memory for the life of the
process (longest prefix wins), each built and read through its one
accessor (``eisenstein_E2``, ``form_monomial``, ``minform.tables_DC``, ...).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import NotAFormError, TruncationError
from .qseries import PureQSeries, equal_through
from .record import Record


@lru_cache(maxsize=None)
def sigma(n: int, power: int = 1) -> int:
    """Divisor sum sigma_power(n) by direct enumeration."""
    if n < 1:
        raise ValueError("sigma needs n >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**power
            e = n // d
            if e != d:
                total += e**power
        d += 1
    return total


# ---------------------------------------------------------------------------
# generation cache
# ---------------------------------------------------------------------------

_CACHE: dict[str, PureQSeries | tuple[list[int], ...]] = {}


def clear_cache():
    """Empty the process cache: named series, eta quotients, monomials and ``tables_DC``."""
    _CACHE.clear()


def _cached(name: str, count: int, builder):
    """Longest-prefix cache: builder(count) yields a series or tuple of lists of >= count terms."""
    s = _CACHE.get(name)
    if s is None or (len(s[0]) if isinstance(s, tuple) else s.length) < count:
        s = _CACHE[name] = builder(count)
    if isinstance(s, tuple):
        return tuple(x[:count] for x in s)
    return s if s.length == count else s.truncated_at(s.lead + count * s.step)


# ---------------------------------------------------------------------------
# the generators
# ---------------------------------------------------------------------------


def _build_e2(count: int) -> PureQSeries:
    return PureQSeries.make(0, [1] + [-24 * sigma(n) for n in range(1, count)])


def _build_e4(count: int) -> PureQSeries:
    return PureQSeries.make(0, [1] + [240 * sigma(n, 3) for n in range(1, count)])


def _build_g(count: int) -> PureQSeries:
    e2 = eisenstein_E2(count - 1)
    e2_doubled = eisenstein_E2(count // 2).rescale(2)
    return -e2 + 2 * e2_doubled


def eisenstein_E2(N: int) -> PureQSeries:
    """E2 = 1 - 24 sum sigma(n) q^n to order N (quasi-modular of weight 2)."""
    return _cached("E2", N + 1, _build_e2)


def eisenstein_E4(N: int) -> PureQSeries:
    """E4 = 1 + 240 sum sigma_3(n) q^n to order N."""
    return _cached("E4", N + 1, _build_e4)


def weight2_G(N: int) -> PureQSeries:
    """The weight-two form on Gamma0(2): -E2(q) + 2 E2(q^2), to order N."""
    return _cached("G", N + 1, _build_g)


def g_parity_form(N: int) -> PureQSeries:
    """The same form assembled from sigma-parity data: 1 + 24 sum over odd
    arguments plus (24 sigma(2n) - 48 sigma(n)) q^(2n); G must equal it."""
    cs = [1]
    for n in range(1, N + 1):
        if n % 2 == 1:
            cs.append(24 * sigma(n))
        else:
            cs.append(24 * sigma(n) - 48 * sigma(n // 2))
    return PureQSeries.make(0, cs)


def _build_euler(count: int) -> PureQSeries:
    # prod (1 - q^n) by the pentagonal number theorem: (-1)^k at q^(k (3k -+ 1)/2)
    cs, k = [0] * count, 0
    while k * (3 * k - 1) // 2 < count:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < count:
                cs[e] = (-1) ** k
        k += 1
    return PureQSeries.make(0, cs)


def eta_quotient(a: int, b: int, N: int) -> PureQSeries:
    """eta(tau)^a eta(2 tau)^b for integers a and b, to relative order N: q^((a + 2b)/24)
    (prod (1 - q^n)^(a/g) prod (1 - q^2n)^(b/g))^g for g = gcd(a, b), on the Euler series."""

    def build(count: int) -> PureQSeries:
        g, euler = math.gcd(a, b), _cached("euler", count, _build_euler)
        unit = euler ** (a // g) if a else PureQSeries.constant(1, count)
        if b:
            half = _cached("euler", (count + 1) // 2, _build_euler)
            unit = unit * (half ** (b // g)).rescale(2)
        return (unit**g).shifted(Fraction(a + 2 * b, 24))

    return _cached(f"eta^({a},{b})", N + 1, build)


def eta_pow(twok: int, N: int) -> PureQSeries:
    """eta^twok = q^(twok/24) * prod (1-q^n)^twok for even twok, to relative order N."""
    if twok % 2 != 0:
        raise ValueError("eta_pow needs an even power of eta")
    return eta_quotient(twok, 0, N)


def eta_tail_coeffs(twok: int, N: int) -> list[Fraction]:
    """Coefficients e(0)=1, e(1), ..., e(N) of the unit part of eta^twok."""
    s = eta_pow(twok, N)
    return [s.coeff(Fraction(twok, 24) + n) for n in range(N + 1)]


def _build_hauptK(count: int) -> PureQSeries:
    # K = 192 G^2 / (E4 - G^2), a simple pole at infinity with residue 1
    e4 = eisenstein_E4(count + 1)
    g2 = form_monomial(2, 0, count + 1)
    return (192 * g2) * (e4 - g2).inv()


def hauptmodul(N: int) -> tuple[PureQSeries, PureQSeries]:
    """The pair (K, J) with J = K/64, known through exponent N (K = q^-1 + ...)."""
    if N < 2:
        N = 2
    K = _cached("hauptK", N + 2, _build_hauptK)
    return K, K * Fraction(1, 64)


def modular_D(k: int, u: PureQSeries) -> PureQSeries:
    """The weight-k modular derivative: theta(u) - (k/12) E2 u."""
    th = u.theta()
    if k == 0:
        return th
    span = u.length * u.step
    e2 = eisenstein_E2(int(span) + 1)
    return th - Fraction(k, 12) * (e2 * u)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


class IdentityCheck(Record):
    name: str
    passed: bool


class IdentityReport(Record):
    order: int
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _prefix(s: PureQSeries, N: int) -> tuple[int, list[int]]:
    """(den, xs): the coefficients of q^0 .. q^N of a rational series on the integer grid
    are xs[n]/den, with den reduced over the prefix alone, so no later term moves a check."""
    if s.horizon <= N:
        raise TruncationError(f"coefficient of q^{N} is beyond horizon q^{s.horizon}")
    head = s.truncated_at(Fraction(N + 1))
    den, (xs,), _ = head.integer_form()
    lead = int(head.lead)
    return den, ([0] * max(lead, 0) + xs[max(-lead, 0) :])[: N + 1]


def identity_suite(N: int) -> IdentityReport:
    """Verify the exact series identities tying together G, E2, E4, J and K.

    The last three checks reach the other cusp: G = theta^4 + 16 E, the
    four-squares counts in theta^4, and the constant term -1/2 of G|S.
    Every check is an exact coefficient comparison through order N;
    failures are reported, never raised.  theta2-J is checked multiplied
    through by the unit 6J = (3/32) q^-1 + ..., so through q^(N - 1).
    """
    if N < 10:
        raise ValueError("identity_suite needs N >= 10")
    margin = N + 8
    # the Hauptmodul asks for the longest E2, E4 and G; the prefixes below reuse them
    K, J = hauptmodul(margin)
    e2 = eisenstein_E2(margin)
    e4 = eisenstein_E4(margin)
    g = weight2_G(margin)
    one = PureQSeries.constant(1, margin + 2)
    g2 = form_monomial(2, 0, margin)
    thJ = J.theta()

    checks = []

    def record(name: str, ok: bool):
        checks.append(IdentityCheck(name, ok))

    record("theta-J", equal_through(thJ, (one - J) * g, N))
    record("theta-J-weight6", equal_through((e4 - g2) * thJ, e4 * g - 4 * (g2 * g), N))
    record(
        "theta-G",
        equal_through(g.theta(), Fraction(1, 6) * (e2 * g + e4 - 2 * g2), N),
    )
    # D2(G) = theta(G) - E2 G / 6 = (E4 - 2 G^2)/6, forced by the theta-G identity
    record(
        "D2-G",
        equal_through(
            modular_D(2, g),
            Fraction(1, 6) * e4 - Fraction(1, 3) * g2,
            N,
        ),
    )
    # theta^2 J = G^2 (1 - J)(3 - 7J)/(6J) + E2 theta(J)/6, times 6J: its difference leads
    # one power of q lower, so the check through q^(N - 1) is the one through q^N
    record(
        "theta2-J",
        equal_through(J * (6 * thJ.theta() - e2 * thJ), g2 * (one - J) * (3 * one - 7 * J), N - 1),
    )
    record("E4-J-ratio", equal_through(e4 * J, g2 * (J + 3 * one), N))

    # x/den is an integer multiple of 192 exactly when x is one of 192 den
    den, xs = _prefix(g2 - e4, N)
    record("192-divisibility", all(x % (192 * den) == 0 for x in xs))

    # den is reduced, so it is 1 exactly when every coefficient is an integer
    den, xs = _prefix(K.shifted(1), N)
    record("Kq-integral-unit", den == 1 and xs[0] == 1)

    record("G-parity-form", equal_through(g, g_parity_form(margin), N))

    for k in (-2, 0, 1, 6):
        res = modular_D(k, eta_pow(2 * k, margin))
        zero = PureQSeries.zero(res.horizon)
        record(f"eta-kernel-k={k}", equal_through(res, zero, Fraction(k, 12) + N))

    eta2 = eta_pow(2, margin)
    record("theta-eta", equal_through(12 * eta2.theta(), e2 * eta2, Fraction(1, 12) + N))

    th4, curly_e = theta4_and_E(N)
    record("G-theta4-16E", equal_through(g, th4 + 16 * curly_e, N))
    # r4(n) = 8 sigma(n) for odd n and 24 sigma(odd part of n) for even n
    den, xs = _prefix(th4, N)
    record(
        "four-squares-counts",
        all(
            x == den * (8 * sigma(n) if n % 2 else 24 * sigma(n // (n & -n)))
            for n, x in enumerate(xs[1:], 1)
        ),
    )
    record("G-slash-S-constant", g_slash_S(2).coeff(0) == Fraction(-1, 2))

    return IdentityReport(N, tuple(checks))


# ---------------------------------------------------------------------------
# the other cusp: theta^4 and the eta quotient
# ---------------------------------------------------------------------------


def jacobi_theta(N: int) -> PureQSeries:
    """theta = 1 + 2 sum q^(n^2), to order N."""

    def build(count: int) -> PureQSeries:
        cs = [0] * count
        cs[0] = 1
        n = 1
        while n * n < count:
            cs[n * n] = 2
            n += 1
        return PureQSeries.make(0, cs)

    return _cached("theta", N + 1, build)


def theta4_and_E(N: int) -> tuple[PureQSeries, PureQSeries]:
    """(theta^4, E) with E = eta(4 tau)^8 / eta(2 tau)^4, both to order N."""
    E = eta_quotient(-4, 8, N // 2 + 1).rescale(2)
    return jacobi_theta(N) ** 4, E.truncated_at(Fraction(N + 1))


def g_slash_S(N: int) -> PureQSeries:
    """The weight-two slash of G by S as an exact series in powers of q^(1/4).

    Computed from the closed form -(1/4) theta^4(tau/4)
    - (1/4) eta^8(tau/4) eta^-4(tau/2); the constant term is exactly -1/2.
    """
    count = 4 * N + 5
    th4_quarter = jacobi_theta(count).rescale(Fraction(1, 4)) ** 4
    quotient = eta_quotient(8, -4, count).rescale(Fraction(1, 4))
    return Fraction(-1, 4) * th4_quarter + Fraction(-1, 4) * quotient


# ---------------------------------------------------------------------------
# monomial basis of M_k(Gamma0(2)) = C[G, E4]
# ---------------------------------------------------------------------------


def dim_M(k: int) -> int:
    """dim M_k(Gamma0(2)) = k//4 + 1 for even k >= 0, else 0: the number of monomials."""
    return 0 if k < 0 or k % 2 else k // 4 + 1


def monomial_basis(k: int) -> list[tuple[int, int]]:
    """All (a, b) with 2a + 4b = k, a, b >= 0; empty for odd or negative k."""
    return [((k - 4 * b) // 2, b) for b in range(dim_M(k))]


def form_monomial(a: int, b: int, N: int) -> PureQSeries:
    """G^a * E4^b to order N, cached: G^2 is form_monomial(2, 0, N)."""
    if a + b <= 1:
        return weight2_G(N) if a else eisenstein_E4(N) if b else PureQSeries.constant(1, N + 1)
    return _cached(f"G^{a}E4^{b}", N + 1, lambda n: weight2_G(n - 1) ** a * eisenstein_E4(n - 1) ** b)


def monomial_coordinates(f: PureQSeries, k: int) -> dict[tuple[int, int], object]:
    """Coordinates of f in the basis {G^a E4^b : 2a+4b = k}.

    The basis G^(k/2-2b) (E4 - G^2)^b, b < r = dim M_k, is triangular in
    q, since E4 - G^2 = 192q + ...: through q^(r-1), f/G^(k/2) is a
    polynomial sum c_b t^b in t = (E4 - G^2)/G^2 = 192/K.  Each c_b is
    peeled off an r-term prefix as its constant term, which is then
    subtracted and the rest multiplied by K/192.  The binomial expansion
    of (E4 - G^2)^b maps them to the coefficient sum_(b>=j) c_b C(b, j)
    (-1)^(b-j) of G^(k/2-2j) E4^j.  f is then rebuilt from the monomials
    and compared with f through the last known integer exponent; any
    difference means f is not a form of weight k on Gamma0(2).  At least
    r + 1 coefficients must be known, so that the rebuild checks one the
    solve did not use.  A huge k is refused before any basis is built.
    """
    r = dim_M(k)
    if r == 0:
        if f.is_zero:
            return {}
        raise NotAFormError(f"M_{k} is zero but the series is not")
    if f.lead < 0:
        raise NotAFormError("a holomorphic form cannot have a pole at infinity")
    known = int(f.horizon) if f.horizon == int(f.horizon) else int(f.horizon) + 1
    if known <= r:  # the r-term solve plus one coefficient for the rebuild to check
        raise TruncationError(f"need at least {r + 1} coefficients, have {known}")
    basis = monomial_basis(k)
    mons = [form_monomial(a, b, known + 1) for a, b in basis]
    h = f.truncated_at(r) * mons[0].truncated_at(r).inv()  # mons[0] is G^(k/2)
    peel = hauptmodul(r)[0] * Fraction(1, 192)
    cs = [h.coeff(0)]
    for _ in range(r - 1):
        h = (h - PureQSeries.constant(cs[-1], r)) * peel
        cs.append(h.coeff(0))
    sol = [sum((-1) ** (b - j) * math.comb(b, j) * cs[b] for b in range(j, r)) for j in range(r)]
    built = sum((c * mon for c, mon in zip(sol, mons)), PureQSeries.zero(known + 1))
    if not equal_through(built, f, known - 1):
        raise NotAFormError(f"series is not in M_{k}: the solved combination differs from it")
    return {basis[i]: sol[i] for i in range(r) if sol[i]}
