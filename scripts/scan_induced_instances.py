#!/usr/bin/env python3
"""Sweep induced instances beyond the built-in seeds and verify denominators.

For each pair (xi1, M) the induced representation determines the
exponent classes only mod Z; this script searches small integer shifts
for a combination satisfying the exact consistency constraint, builds
the instance, runs both pipelines, and checks the denominator law over
a finite range.  Instances whose exponent data never satisfies the
constraint within the shift window are reported and skipped.  Exits 1
if a realized instance has a non-exempt failure, 2 on a bad argument.
"""

import argparse
import itertools
from fractions import Fraction

from vvmf2.cli import checked_int
from vvmf2.denoms import verify_ubd
from vvmf2.errors import ConsistencyError
from vvmf2.minform import check_kmax, minimal_form
from vvmf2.params import induced_exponent_classes, params_from_exponents
from vvmf2.quadratic import QuadNum

XI1_CHOICES = [Fraction(0), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(2, 5)]
M_CHOICES = [2, 3, 5, 7]


def realize(classes, window=2):
    """First shift vector inside the window that satisfies the sum constraint."""
    for shifts in itertools.product(range(-window, window + 1), repeat=4):
        try:
            exponents = classes.exponents(shifts)
            return params_from_exponents(exponents)
        except ConsistencyError:
            continue
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=checked_int(check_kmax), default=20)
    ap.add_argument("--k0", type=int, default=0)
    ap.add_argument("--shift-sign", choices=("plus", "minus"), default="minus")
    args = ap.parse_args()

    print(f"{'xi1':>6} {'M':>3} {'u/v':>7} {'threshold':>10}  result")
    realized = failed = 0
    for xi1 in XI1_CHOICES:
        for M in M_CHOICES:
            # the rational part of xi2 must be xi1/2 mod 1/2, else the two
            # cusp-zero roots are not field conjugates and c leaves Q
            xi2 = QuadNum(xi1 / 2, Fraction(-1), M)
            classes = induced_exponent_classes(xi1, xi2, args.k0, args.shift_sign)
            params = realize(classes)
            if params is None:
                print(f"{str(xi1):>6} {M:>3} {'-':>7} {'-':>10}  no consistent shifts in window")
                continue
            mf = minimal_form(params, args.kmax, "both")
            report = verify_ubd(mf, args.kmax)
            realized += 1
            failed += not report.all_asserted_pass
            status = "ok" if report.all_asserted_pass else f"FAILURES {list(report.exceptional)}"
            print(
                f"{str(xi1):>6} {M:>3} {f'{params.u}/{params.v}':>7} "
                f"{str(report.threshold):>10}  {status}"
            )
    print(f"\n{realized} instances realized, {failed} with non-exempt failures")
    if failed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
