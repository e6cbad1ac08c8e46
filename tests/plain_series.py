"""The plain-series route to the h-sequences, shared by the minimal-form tests.

No tables and no recursion: a component with leading exponent l is
w^l * sum_k f_k w^k, with w = 1/K the inverse Hauptmodul and f the
coefficients of (1 - 64x)^r 2F1(A, A + 1/2; 1 + A - B; 64x), taken from
their definition.  It is built by truncated series algebra alone (w^l as
(1 + x)^l q^l through ``pow_binomial``), and shares neither K nor f with
the engine's closed route, which works in Pfaff form over eps.
"""

from fractions import Fraction

from vvmf2.forms import hauptmodul
from vvmf2.minform import gauss_2f1
from vvmf2.qseries import PureQSeries
from vvmf2.quadratic import gen_binomial


def f_by_definition(params, Kmax: int) -> list:
    """f as defined: 64^m 2F1(A, A+1/2; 1+A-B)_m convolved with (-64)^n C(r, n)."""
    A, B = params.A, params.B
    a = [64**m * gauss_2f1(A, A + Fraction(1, 2), 1 + A - B, m) for m in range(Kmax + 1)]
    b = [(-64) ** n * gen_binomial(params.r, n) for n in range(Kmax + 1)]
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(Kmax + 1)]


def plain_series_h(params, Kmax: int, component: int) -> list:
    """h (component 0) or h~ (component 1) through index Kmax."""
    kinv = hauptmodul(Kmax + 2)[0].inv()
    f = f_by_definition(params.mirrored() if component else params, Kmax)
    total = PureQSeries.constant(1, len(kinv.coeffs))
    power = PureQSeries.constant(1, len(kinv.coeffs))
    for k in range(1, Kmax + 1):
        power = power * kinv
        total = total + power * f[k]
    l = (params.l1, params.l2)[component]
    series = kinv.shifted(-1).pow_binomial(l).shifted(l) * total
    assert series.lead == l
    return [series.coeff(l + n) for n in range(Kmax + 1)]
