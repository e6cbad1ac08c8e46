"""Plain-series routes to the h-sequences, shared by the minimal-form tests.

Truncated series algebra only.  ``plain_series_h`` writes a component with
leading exponent l as w^l * sum_k f_k w^k, with w = 1/K and f the coefficients
of (1 - 64x)^r 2F1(A, A + 1/2; 1 + A - B; 64x) by their definition (w^l as
(1 + x)^l q^l through ``pow_binomial``).  ``pfaff_series_h`` writes it in Pfaff
form, E^l * sum_k g_k eps^k with eps = eta(2 tau)^24 / eta(tau)^24 = q E and g
from ``seq_f``.  Neither shares a series with the closed route, which solves
the 2F1 equation pulled back along z = -64 eps.
"""

from fractions import Fraction

from vvmf2.forms import eta_pow, hauptmodul
from vvmf2.minform import gauss_2f1, seq_f
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


def pfaff_series_h(params, Kmax: int, component: int) -> list:
    """h (component 0) or h~ (component 1) through index Kmax, as E^l * sum_k g_k eps^k."""
    eps = eta_pow(24, Kmax + 1).rescale(2) * eta_pow(-24, Kmax + 1)
    total = PureQSeries.zero(Kmax + 1)
    for g in reversed(seq_f(params, Kmax)[component].coeffs):  # Horner's rule in eps
        total = total * eps + PureQSeries.constant(g, Kmax + 1)
    l = (params.l1, params.l2)[component]
    series = eps.shifted(-1).pow_binomial(l) * total
    return [series.coeff(n) for n in range(Kmax + 1)]
