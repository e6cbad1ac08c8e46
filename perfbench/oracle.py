"""Arithmetic the correctness checks use, written apart from the program.

Nothing here imports vvmf2: primality, the Euler criterion, the
p-integrality test, four-square counts and the integer q-expansions of G
and E4 are recomputed from first principles, so a fault in the program
cannot hide by also being in its own checker.
"""

from __future__ import annotations

import math
from fractions import Fraction


def is_prime(n: int) -> bool:
    """Trial division; the checks only ask about primes below a few hundred."""
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def is_inert(M: int, p: int) -> bool:
    """Euler's criterion: an odd prime p not dividing M with M a non-residue."""
    return p % 2 == 1 and M % p != 0 and is_prime(p) and pow(M % p, (p - 1) // 2, p) == p - 1


def progression_primes(M: int, u: int, v: int, bound: int) -> list[int]:
    """Inert primes p <= bound with p = u (mod v)."""
    return [p for p in range(3, bound + 1) if (p - u) % v == 0 and is_inert(M, p)]


def parse_value(obj) -> tuple[Fraction, Fraction]:
    """A reported value as (a, b) meaning a + b*sqrt(M): "p/q" or {rat, surd, M}."""
    if isinstance(obj, dict):
        return Fraction(obj["rat"]), Fraction(obj["surd"])
    return Fraction(obj), Fraction(0)


def coordinate_denominator(value: tuple[Fraction, Fraction]) -> int:
    """lcm of the coordinate denominators: the denominator when Z[sqrt M] is the full ring."""
    return math.lcm(value[0].denominator, value[1].denominator)


def p_integral(value: tuple[Fraction, Fraction], p: int) -> bool:
    """For odd p not dividing M: p divides neither coordinate denominator."""
    return value[0].denominator % p != 0 and value[1].denominator % p != 0


def four_square_count(n: int) -> int:
    """Number of (a, b, c, d) in Z^4 with a^2 + b^2 + c^2 + d^2 = n, by enumeration."""
    r = math.isqrt(n)
    count = 0
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            rest_ab = n - a * a - b * b
            if rest_ab < 0:
                continue
            for c in range(-r, r + 1):
                rest = rest_ab - c * c
                if rest < 0:
                    continue
                d = math.isqrt(rest)
                if d * d == rest:
                    count += 1 if d == 0 else 2
    return count


def _sigma(n: int, k: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def e4_coeffs(count: int) -> list[int]:
    return [1] + [240 * _sigma(n, 3) for n in range(1, count)]


def g_coeffs(count: int) -> list[int]:
    """G = -E2(q) + 2 E2(q^2) with E2 = 1 - 24 sum sigma(n) q^n."""
    e2 = [1] + [-24 * _sigma(n, 1) for n in range(1, count)]
    return [-e2[n] + (2 * e2[n // 2] if n % 2 == 0 else 0) for n in range(count)]


def _mul(a: list[int], b: list[int], count: int) -> list[int]:
    out = [0] * count
    for i, x in enumerate(a[:count]):
        if x:
            for j in range(count - i):
                out[i + j] += x * b[j]
    return out


def monomial_combination(coeffs: dict[tuple[int, int], int], count: int) -> list[int]:
    """q-expansion of sum c * G^a * E4^b through q^(count-1), in integers."""
    g, e4 = g_coeffs(count), e4_coeffs(count)
    total = [0] * count
    for (a, b), c in coeffs.items():
        term = [1] + [0] * (count - 1)
        for _ in range(a):
            term = _mul(term, g, count)
        for _ in range(b):
            term = _mul(term, e4, count)
        total = [t + c * x for t, x in zip(total, term)]
    return total
