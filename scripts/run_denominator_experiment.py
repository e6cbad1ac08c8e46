#!/usr/bin/env python3
"""Denominator growth experiment for a built-in instance.

Builds the minimal form by both pipelines, factors every coefficient
denominator, and prints the prime-by-prime verdict table: for each K
with p_K = u + K*v prime and inert, does p_K divide the denominator of
d(K) while all earlier coefficients stay p_K-integral?  Exits 1 if an
asserted row fails, 2 on a bad argument.
"""

import argparse

from vvmf2.cli import checked_int
from vvmf2.denoms import DEFAULT_FACTOR_BOUND, check_factor_bound, verify_ubd
from vvmf2.minform import check_kmax, minimal_form
from vvmf2.params import SEED_FIELDS, params_from_exponents, seed_exponents


def fmt_factors(factors, cofactor):
    parts = [f"{p}^{e}" if e > 1 else f"{p}" for p, e in sorted(factors.items())]
    if cofactor > 1:
        parts.append(f"[{cofactor}]")
    return " * ".join(parts) if parts else "1"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instance", choices=tuple(SEED_FIELDS), default="m2")
    ap.add_argument("--kmax", type=checked_int(check_kmax), default=40)
    ap.add_argument(
        "--factor-bound", type=checked_int(check_factor_bound), default=DEFAULT_FACTOR_BOUND
    )
    args = ap.parse_args()

    params = params_from_exponents(seed_exponents(args.instance))
    print(f"instance {args.instance}: M={params.M}, u={params.u}, v={params.v}, "
          f"a={params.a}, b={params.b}, c={params.c}")
    mf = minimal_form(params, args.kmax)
    print(f"both pipelines agree through K={args.kmax}")

    print(f"\n{'K':>4} {'den(d(K))':<40} {'p_K':>5}  verdict")
    report = verify_ubd(mf, args.kmax, args.factor_bound)
    for r in report.rows_d:
        scan = report.scan_d[r.K]
        verdict = r.verdict + (f" ({'; '.join(r.exempt)})" if r.exempt else "")
        print(f"{r.K:>4} {fmt_factors(scan.factors, scan.cofactor):<40} {r.p:>5}  {verdict}")

    print(f"\nempirical threshold: every audited inert prime from {report.threshold} on passes")
    if report.exceptional:
        print(f"non-exempt failures at primes: {list(report.exceptional)}")
        raise SystemExit(1)
    print("no non-exempt failures in range")


if __name__ == "__main__":
    main()
