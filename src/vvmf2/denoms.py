"""Prime sets and finite-range verification of the unbounded-denominator laws.

For an instance with field constant M and reduced exponent difference
u/v, the relevant primes are the odd p with (M/p) = -1 lying in the
arithmetic progressions u mod v (set S) and -u mod v (set S~, equal to S
when v = 2).  The prediction under test: writing p_K = u + K*v, p_K
first divides a denominator of the first component at index K once K is
large enough for the proof's side conditions; the tilde component,
scanned as the mirrored instance, behaves the same against S~.  In
Z = m1*F' + m2*DF' that coefficient is (c1 + c2*(K + l1))*d(K) up to
p-integral terms, c1 and c2 the constant terms of m1 and m2.  "Large
enough" is not effective, so primes failing an auditable side condition,
or whose leading factor is not a p-unit, are reported as exempt.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import ConsistencyError
from .minform import MinimalForm, check_kmax, combination
from .params import InstanceParams
from .quadratic import (
    QuadNum,
    denominator_of,
    half_form,
    is_prime,
    legendre,
    norm_trace,
    pochhammer,
    primes_upto,
)
from .record import Record

DEFAULT_FACTOR_BOUND = 10**6


class PrimeSets(Record):
    """The prime sets S and S~ truncated at a search bound."""

    S: tuple[int, ...]
    S_tilde: tuple[int, ...]


def prime_sets(params: InstanceParams, bound: int) -> PrimeSets:
    """Enumerate S and S~ up to the bound by sieve, Legendre test and congruence."""
    return _prime_sets(params, primes_upto(bound))


def _prime_sets(params: InstanceParams, primes: list[int]) -> PrimeSets:
    """S and S~ among sieved primes: p is inert when M^((p-1)/2) = -1 (mod p), Euler's
    criterion read directly, since ``legendre`` would test each prime for primality again."""
    M, u, v = params.M, params.u, params.v
    inert = [p for p in primes if p != 2 and pow(M, (p - 1) // 2, p) == p - 1]
    return PrimeSets(
        tuple(p for p in inert if (p - u) % v == 0), tuple(p for p in inert if (p + u) % v == 0)
    )


def check_factor_bound(bound: int) -> None:
    """The one rule on a trial-division bound: bound >= 1."""
    if bound < 1:
        raise ValueError(f"factor bound must be >= 1, got {bound}")


def factor_trial(n: int, bound: int) -> tuple[dict[int, int], int]:
    """Trial-divide |n| up to the bound; returns (factors, unfactored cofactor)."""
    record = _scan_denominators([n], bound)[0]
    return record.factors, record.cofactor


def _strip(n: int, p: int) -> tuple[int, int]:
    """(n / p^e, e) for e = v_p(n), by a squaring ladder p, p^2, p^4, ...: O(log e) divisions."""
    q, r = divmod(n, p)
    if r:
        return n, 0
    n, e = _strip(q, p * p)  # n/p = p^(2e) n' with v_p(n') = 0 or 1
    return (n, 2 * e + 1) if n % p else (n // p, 2 * e + 2)


class ScanRecord(Record):
    """Denominator data for a single sequence entry."""

    index: int
    denominator: int
    factors: dict[int, int]
    cofactor: int


def denom_scan(seq, factor_bound: int = DEFAULT_FACTOR_BOUND) -> list[ScanRecord]:
    """Denominator and its trial factorization for each sequence entry."""
    return _scan_denominators([denominator_of(z) for z in seq], factor_bound)


def _scan_denominators(dens: list[int], factor_bound: int) -> list[ScanRecord]:
    """factor_trial of each, on one sieve doubled on demand up to the factor bound."""
    check_factor_bound(factor_bound)
    sieved = min(factor_bound, 64)
    primes, records = primes_upto(sieved), []
    for i, den in enumerate(dens):
        n, factors = abs(den), {}
        for p in primes:  # while p^2 <= n, the cofactor left
            if p * p > n:
                break
            if n % p == 0:
                n, factors[p] = _strip(n, p)
            if p == primes[-1] and sieved < factor_bound:  # the loop reads what this appends
                sieved = min(factor_bound, 2 * sieved)
                primes.extend(primes_upto(sieved)[len(primes) :])
        if 1 < n <= factor_bound**2:  # with no factor up to its root, n is prime
            factors[n], n = 1, 1
        records.append(ScanRecord(i, den, factors, n))
    return records


# ---------------------------------------------------------------------------
# the minimal-weight verification
# ---------------------------------------------------------------------------


def side_condition_audit(params: InstanceParams, p: int, K: int | None = None) -> list[str]:
    """Names of the proof's side conditions that p fails (empty = fully audited).

    The conditions are those actually used in the argument: p odd, p
    coprime to 12, to v and to the denominators of the leading exponents,
    p larger than K, p prime to the coordinates of 2A and -r, and p
    dividing no negative member of the progression {u + j*v}.
    """
    failed = []
    if p == 2:
        failed.append("p odd")
    if 12 % p == 0:
        failed.append("p divides 12")
    if K is not None and p <= K:
        failed.append("p <= K")
    if params.v % p == 0:
        failed.append("p divides v")
    failed.extend(name for name, n in _instance_conditions(params) if n % p == 0)
    return failed


@lru_cache(maxsize=16)
def _instance_conditions(params: InstanceParams) -> tuple[tuple[str, int], ...]:
    """(name, n) for each side condition that fails exactly when p divides the integer n."""
    conditions = []
    for label, value in (("2A", 2 * params.A), ("-r", -params.r)):
        hf = half_form(value)
        conditions.append((f"p divides y-part of {label}", hf.y))
        conditions.append((f"p divides denominator of {label}", hf.Z))
    for label, value in (("l1", params.l1), ("l2", params.l2)):
        conditions.append((f"p divides denominator of {label}", value.denominator))
    for member in range(params.u + params.v, 0, params.v):  # u + j*v < 0 for j >= 1
        conditions.append((f"p divides negative progression member {member}", member))
    return tuple(conditions)


class UbdRow(Record):
    """Verdict for one index K of one coefficient sequence.

    ``first`` is the first index >= 1 whose denominator p divides (None
    if there is none, or if p is not in the prime set).  An asserted row
    passes only when ``first`` is K; ``exempt`` names why it is not asserted.

    The verdicts are derived once, when the row is built, and are not
    fields: ``earlier_integral`` (whether p divides no denominator at
    indices 1..K-1, None off the prime set), ``asserted``, ``passed``
    (None when not asserted) and ``verdict``, which is "exempt" (a prime
    of S failing a side condition), "pass", "fail" or "skip".
    """

    K: int
    p: int
    is_prime: bool
    in_S: bool
    exempt: tuple[str, ...]
    divides: bool | None
    first: int | None

    def __post_init__(self):
        earlier = None if not self.in_S else self.first is None or self.first >= self.K
        asserted = self.is_prime and self.in_S and not self.exempt
        passed = bool(self.divides and earlier) if asserted else None
        if self.in_S and self.exempt:
            verdict = "exempt"
        else:
            verdict = "skip" if passed is None else "pass" if passed else "fail"
        _set = object.__setattr__
        _set(self, "earlier_integral", earlier)
        _set(self, "asserted", asserted)
        _set(self, "passed", passed)
        _set(self, "verdict", verdict)


class PrimeSummary(Record):
    """Per-prime digest: where the prime first divides a denominator."""

    p: int
    first_division_K: int | None
    expected_K: int | None
    verdict: str  # "pass", "fail" or "exempt"


class DenomReport(Record):
    """Finite-range unbounded-denominator report; ``scan_d`` factors ``dens_d`` on first read."""

    Kmax: int
    factor_bound: int
    rows_d: tuple[UbdRow, ...]
    rows_h: tuple[UbdRow, ...]
    rows_d_tilde: tuple[UbdRow, ...]
    dens_d: tuple[int, ...]
    summary_d: tuple[PrimeSummary, ...]
    summary_d_tilde: tuple[PrimeSummary, ...]
    threshold: int | None
    exceptional: tuple[int, ...]

    @cached_property
    def scan_d(self) -> tuple[ScanRecord, ...]:
        return tuple(_scan_denominators(self.dens_d, self.factor_bound))

    @property
    def all_asserted_pass(self) -> bool:
        rows = self.rows_d + self.rows_h + self.rows_d_tilde
        return all(r.passed for r in rows if r.asserted)


def _scan_rows(
    dens: list[int], params: InstanceParams, Kmax: int, S, primes: set[int], c=(1, 0), map_den=1
) -> list[UbdRow]:
    """Rows K = 1..Kmax against p_K = u + K*v of the given instance.

    dens are the denominators of one component of m1*F' + m2*DF' (of F'
    by default), with c = (c1, c2) the constant terms of m1 and m2 and
    map_den the common denominator of their coefficients.  The K-th
    coefficient is (c1 + c2*(K + l1))*d(K) up to p-integral terms, so a
    row is exempt when p divides map_den or that leading factor is not a
    p-unit (read off its norm, as p is inert).  primes is a sieve past every p_K.
    """
    c1, c2 = c
    factor = c1 + c2 * (1 + params.l1)  # the leading factor, the same at every K if c2 = 0
    norm = norm_trace(factor)[0]
    p_K = {K: params.u + K * params.v for K in range(1, Kmax + 1)}
    asserted = set(S).intersection(p_K.values())
    first, product = {}, math.prod(asserted)
    for i in range(1, len(dens)):
        if product > 1 and (g := math.gcd(dens[i], product)) > 1:
            product //= g
            first.update((p, i) for p in asserted if g % p == 0)
    rows = []
    for K, p in p_K.items():
        if p not in asserted:
            rows.append(UbdRow(K, p, p in primes, False, (), None, None))
            continue
        exempt = side_condition_audit(params, p, K)
        if map_den % p == 0:
            exempt.append("p divides denominator of a map coefficient")
        if c2:
            factor = c1 + c2 * (K + params.l1)
            norm = norm_trace(factor)[0]
        if norm.numerator % p == 0 or norm.denominator % p == 0:
            exempt.append(f"leading factor {factor}")
        rows.append(UbdRow(K, p, True, True, tuple(exempt), dens[K] % p == 0, first.get(p)))
    return rows


def verify_ubd(
    mf: MinimalForm,
    Kmax: int | None = None,
    factor_bound: int = DEFAULT_FACTOR_BOUND,
) -> DenomReport:
    """Check the prime-by-prime denominator prediction over a finite range.

    Scans the d-sequence and the h-sequence against p_K = u + K*v and the
    tilde sequence against the mirrored instance (-u + K*v, audited with
    2B).  Rows failing an audited side condition are informational; any
    other failure is a real failure.  Denominators are read off the integer
    forms; ``scan_d`` is built when read, but its factor bound checked here.
    """
    p = mf.params
    t = mf.tables
    if Kmax is None:
        Kmax = t.Kmax
    check_kmax(Kmax)
    check_factor_bound(factor_bound)
    if Kmax > t.Kmax:
        raise ConsistencyError(f"minimal form only computed through K={t.Kmax}")
    dens_h, dens_d, dens_dt = (
        s.denominators()[: Kmax + 1] for s in (t.h_series, t.comp1, t.comp2)
    )
    primes = primes_upto(abs(p.u) + Kmax * p.v)  # every p_K of either component
    sets, primes = _prime_sets(p, primes), set(primes)
    rows_d = _scan_rows(dens_d, p, Kmax, sets.S, primes)
    # at k0 = 0 d is h shifted: the same denominators give the same rows
    rows_h = rows_d if dens_h == dens_d else _scan_rows(dens_h, p, Kmax, sets.S, primes)
    rows_dt = _scan_rows(dens_dt, p.mirrored(), Kmax, sets.S_tilde, primes)

    asserted = [r for r in rows_d + rows_h + rows_dt if r.asserted]
    failed = sorted({r.p for r in asserted if not r.passed})
    # the least asserted prime above every failing one
    threshold = min((r.p for r in asserted if r.p > max(failed, default=0)), default=None)

    def summarize(rows: list[UbdRow]) -> tuple[PrimeSummary, ...]:
        return tuple(PrimeSummary(r.p, r.first, r.K, r.verdict) for r in rows if r.in_S)

    return DenomReport(
        Kmax=Kmax,
        factor_bound=factor_bound,
        rows_d=tuple(rows_d),
        rows_h=tuple(rows_h),
        rows_d_tilde=tuple(rows_dt),
        dens_d=tuple(dens_d),
        summary_d=summarize(rows_d),
        summary_d_tilde=summarize(rows_dt),
        threshold=threshold,
        exceptional=tuple(failed),
    )


# ---------------------------------------------------------------------------
# the quadratic-field divisibility probe
# ---------------------------------------------------------------------------


class ProbeVerdict(Record):
    """Outcome of probing Pochhammer numerators against an inert prime."""

    status: str  # "pass", "fail" or "inconclusive"
    p: int
    tmax: int
    Z: int
    x: int
    y: int
    bad_shifts: tuple[int, ...]
    bad_indices: tuple[int, ...]


def pochhammer_numerator_probe(X: QuadNum, R: Fraction, p: int, tmax: int) -> ProbeVerdict:
    """Probe that p never divides the numerator of (X+R)_t for t <= tmax.

    Requires p odd with (M/p) = -1 and X irrational.  With Y = Z*X =
    (x + y sqrt M)/2 the norm of Y + (R+j)Z reduces mod p to
    ((x + 2(R+j)Z)^2 - M y^2)/4, which is nonzero whenever p does not
    divide y; the probe evaluates those norms for j < tmax and also
    checks the Pochhammer numerators directly.  If p divides y the
    hypothesis fails and the result is inconclusive.
    """
    if tmax < 1:
        raise ValueError("tmax >= 1")
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if not isinstance(X, QuadNum) or X.surd == 0:
        raise ValueError("X must be a quadratic irrational")
    if legendre(X.M, p) != -1:
        raise ValueError(f"M={X.M} must be a non-residue mod p={p}")
    R = Fraction(R)
    if R.denominator % p == 0:
        raise ValueError("p divides the denominator of R")
    hf = half_form(X)
    if hf.y % p == 0:
        return ProbeVerdict("inconclusive", p, tmax, hf.Z, hf.x, hf.y, (), ())

    bad_shifts = []
    for j in range(tmax):
        four_norm = (hf.x + 2 * (R + j) * hf.Z) ** 2 - X.M * hf.y**2
        if four_norm.numerator % p == 0:
            bad_shifts.append(j)

    bad_indices = []
    value = X + R
    poch = pochhammer(value, 0)
    for t in range(1, tmax + 1):
        poch = poch * (value + (t - 1))
        numerator = denominator_of(poch) * poch
        norm = numerator.norm() if isinstance(numerator, QuadNum) else numerator * numerator
        if norm.numerator % p == 0:
            bad_indices.append(t)

    status = "pass" if not bad_shifts and not bad_indices else "fail"
    return ProbeVerdict(
        status, p, tmax, hf.Z, hf.x, hf.y, tuple(bad_shifts), tuple(bad_indices)
    )


# ---------------------------------------------------------------------------
# general weight
# ---------------------------------------------------------------------------


class GeneralWeightRow(Record):
    """One prime's rows in the two components of a combination.

    row_1 scans the instance against S, row_2 the mirrored instance against
    S~; either is None when its set lacks p or its K is outside 1..scanned_to
    (out of range).  The prime is asserted in each component whose row is,
    and passes when every asserted row does; exempt joins their reasons.
    """

    p: int
    row_1: UbdRow | None
    row_2: UbdRow | None

    @property
    def rows(self) -> tuple[UbdRow, ...]:
        return tuple(r for r in (self.row_1, self.row_2) if r is not None)

    @property
    def exempt(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(reason for r in self.rows for reason in r.exempt))

    @property
    def first_hit_1(self) -> int | None:
        return self.row_1.first if self.row_1 else None

    @property
    def first_hit_2(self) -> int | None:
        return self.row_2.first if self.row_2 else None

    @property
    def asserted(self) -> bool:
        return any(r.asserted for r in self.rows)

    @property
    def passed(self) -> bool | None:
        if not self.asserted:
            return None
        return all(r.passed for r in self.rows if r.asserted)


class GeneralWeightReport(Record):
    scanned_to: int
    rows: tuple[GeneralWeightRow, ...]

    @property
    def all_asserted_pass(self) -> bool:
        return all(r.passed for r in self.rows if r.asserted)


def ubd_general(
    mf: MinimalForm,
    m1_map: dict[tuple[int, int], object],
    m2_map: dict[tuple[int, int], object],
    k: int,
    Kmax: int,
    prime_bound: int,
) -> GeneralWeightReport:
    """verify_ubd's scan on each component of Z = m1*F' + m2*DF', prime by prime.

    K runs over 1..scanned_to (Kmax, or less where a component's known
    coefficients end).  Each monomial G^a E4^b has constant term 1, so the
    constant terms c1 and c2 of m1 and m2 are the sums of the maps' values.
    """
    check_kmax(Kmax)
    p = mf.params
    z1, z2 = combination(mf, m1_map, m2_map, k)
    series = tuple(zip((z1, z2), p.leads))
    # coefficients lead + n are known for n < horizon - lead
    scanned_to = min(Kmax, *(math.ceil(z.horizon - lead) - 1 for z, lead in series))
    sets, primes = prime_sets(p, prime_bound), set(primes_upto(abs(p.u) + scanned_to * p.v))
    # one denominator per scanned coefficient (z is zero below z.lead) and per map coefficient
    dens1, dens2 = (
        ([1] * int(z.lead - lead) + z.denominators())[: scanned_to + 1] for z, lead in series
    )
    c = (sum(m1_map.values()), sum(m2_map.values()))
    map_den = math.lcm(*map(denominator_of, (*m1_map.values(), *m2_map.values())))
    rows_1, rows_2 = (
        {r.p: r for r in _scan_rows(dens, inst, scanned_to, S, primes, c, map_den) if r.in_S}
        for inst, S, dens in ((p, sets.S, dens1), (p.mirrored(), sets.S_tilde, dens2))
    )
    audited = sorted(set(sets.S) | set(sets.S_tilde))
    return GeneralWeightReport(
        scanned_to, tuple(GeneralWeightRow(q, rows_1.get(q), rows_2.get(q)) for q in audited)
    )
