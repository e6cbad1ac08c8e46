#!/usr/bin/env python3
"""Timing and agreement of the two routes to the minimal-form coefficients.

Route A: the closed form, the 2F1 equation pulled back along the
Hauptmodul z = -64 eta(2 tau)^24 / eta(tau)^24.
Route B: the Frobenius recursion on the weight-zero differential equation.
Both must agree exactly on h and on h~, the second component's sequence.
(The plain-series routes w^l * sum f_k K^(-k) and E^l * sum g_k eps^k are
checked against both in the tests, tests/plain_series.py.)
"""

import argparse
import time

from vvmf2.cli import checked_int
from vvmf2.minform import check_kmax, h_closed, h_frobenius
from vvmf2.params import SEED_FIELDS, params_from_exponents, seed_exponents


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instance", choices=tuple(SEED_FIELDS), default="m2")
    ap.add_argument("--kmax", type=checked_int(check_kmax), nargs="+", default=[10, 20, 40])
    args = ap.parse_args()

    params = params_from_exponents(seed_exponents(args.instance))
    print(f"{'Kmax':>6} {'closed':>10} {'frobenius':>10}  agreement")
    for kmax in args.kmax:
        t0 = time.monotonic()
        closed = h_closed(params, kmax)
        ta = time.monotonic() - t0
        t0 = time.monotonic()
        frobenius = h_frobenius(params, kmax)
        tb = time.monotonic() - t0
        ok = closed == frobenius  # (h, h~) from each route
        print(f"{kmax:>6} {ta:>9.3f}s {tb:>9.3f}s  {'exact' if ok else 'MISMATCH'}")
        if not ok:
            raise SystemExit(1)
    print(f"h and h~ agree exactly through Kmax {max(args.kmax)}")


if __name__ == "__main__":
    main()
