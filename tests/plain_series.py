"""The plain-series route to the h-sequences, shared by the minimal-form tests.

No tables and no recursion: a component with leading exponent l is
w^l * sum_k f_k w^k, with w = 1/K the inverse Hauptmodul and f the
hypergeometric sequence of ``seq_f``, built by truncated series algebra
alone (w^l as (1 + x)^l q^l through ``pow_binomial``).
"""

from vvmf2.forms import hauptmodul
from vvmf2.minform import seq_f
from vvmf2.qseries import PureQSeries


def plain_series_h(params, Kmax: int, component: int) -> list:
    """h (component 0) or h~ (component 1) through index Kmax."""
    kinv = hauptmodul(Kmax + 2)[0].inv()
    f = seq_f(params, Kmax)[component].coeffs
    total = PureQSeries.constant(1, len(kinv.coeffs))
    power = PureQSeries.constant(1, len(kinv.coeffs))
    for k in range(1, Kmax + 1):
        power = power * kinv
        total = total + power * f[k]
    l = (params.l1, params.l2)[component]
    series = kinv.shifted(-1).pow_binomial(l).shifted(l) * total
    assert series.lead == l
    return [series.coeff(l + n) for n in range(Kmax + 1)]
