"""Generated instances of the paper's class, shared by the engine tests."""

import math
from fractions import Fraction

from hypothesis import strategies as st

from vvmf2.params import ExponentData, params_from_exponents
from vvmf2.quadratic import QuadNum


@st.composite
def instances(draw):
    """Valid instances with v = 2..6, so S != S~ and lattices past 24 occur."""
    k0 = draw(st.sampled_from([0, 2, 4, 6]))
    v = draw(st.integers(2, 6))
    u = draw(st.sampled_from([x for x in range(1 - v, v) if math.gcd(x, v) == 1]))
    l1 = draw(st.sampled_from([Fraction(x) for x in (0, "1/4", "-1/3", "1/9", "2/5")]))
    l2 = l1 - Fraction(u, v)
    M = draw(st.sampled_from([2, 3, 5, 7, 11]))
    s = draw(st.sampled_from([Fraction(x) for x in (1, -1, "1/2", "-1/2", 2, -2, "3/7", "-1/3")]))
    r = QuadNum((Fraction(1, 2) - l1 - l2) / 2, s, M)
    return params_from_exponents(ExponentData(k0, l1, l2, r, r.conjugate()))
