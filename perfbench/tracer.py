"""Spans around the public calls of each vvmf2 module, recorded from outside.

``Tracer.install`` replaces each listed function (and each listed
``PureQSeries`` method) with a wrapper that appends a span
``[name, start, end, parent]`` to an in-memory list; every module
namespace that imported the function gets the wrapper too, so calls
between modules are seen.  ``uninstall`` puts the originals back.
Nothing under ``src/`` is modified on disk.

Hot scalar arithmetic (``QuadNum``, ``Fraction``, ``PureQSeries.coeff``)
is not wrapped: its call counts run into the millions and a wrapper there
would measure itself.  Its time shows up as self time of the caller.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> public functions whose calls are recorded
FUNCTIONS = {
    "quadratic": (
        "denominator_of", "is_p_integral", "is_prime", "legendre", "gen_binomial",
        "pochhammer", "half_form", "norm_trace", "primes_upto",
    ),
    "qseries": ("equal_through",),
    "forms": (
        "eisenstein_E2", "eisenstein_E4", "weight2_G", "hauptmodul", "eta_pow",
        "eta_tail_coeffs", "identity_suite", "theta4_and_E", "g_slash_S", "jacobi_theta",
        "g_parity_form", "modular_D", "monomial_basis", "monomial_coordinates",
        "form_monomial",
    ),
    "params": (
        "params_from_exponents", "check_assumptions", "seed_exponents",
        "induced_exponent_classes", "roots_from_abc",
    ),
    "minform": (
        "tables_DC", "seq_f", "h_closed", "h_frobenius", "minimal_form", "mlde_residual",
        "deriv_components", "t_lists", "weight_basis", "decompose", "gauss_2f1",
    ),
    "denoms": (
        "verify_ubd", "ubd_general", "combination", "prime_sets", "denom_scan",
        "side_condition_audit", "pochhammer_numerator_probe",
    ),
    "cli": ("main",),
}
SERIES_METHODS = (
    "__mul__", "__add__", "__sub__", "__pow__", "inv", "pow_binomial", "theta",
)


class Tracer:
    """In-memory span recorder; spans are written out by the caller at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name (used for the operation itself)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "vvmf2" or n.startswith("vvmf2.")]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"vvmf2.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
        series = sys.modules["vvmf2.qseries"].PureQSeries
        for meth in SERIES_METHODS:
            original = series.__dict__[meth]
            self._restore.append((series, meth, original))
            setattr(series, meth, self._wrap(f"qseries.PureQSeries.{meth}", original))

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()


def _durations(spans):
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return dur, child


def _outermost(spans, i: int) -> bool:
    """True unless an ancestor span carries the same name (recursion)."""
    name, parent = spans[i][0], spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def inclusive(spans, name: str) -> float:
    """Total time inside calls of one function, counting recursive calls once."""
    dur, _ = _durations(spans)
    return sum((dur[i] for i, s in enumerate(spans) if s[0] == name and _outermost(spans, i)), 0.0)


def self_time(spans, prefix: str) -> float:
    """Time spent in spans whose name starts with prefix, minus their child spans."""
    dur, child = _durations(spans)
    return sum((dur[i] - child[i] for i, s in enumerate(spans) if s[0].startswith(prefix)), 0.0)


def self_excluding(spans, name: str, excluded: tuple[str, ...]) -> float:
    """Duration of calls of name minus their direct children with the excluded names."""
    dur, _ = _durations(spans)
    own = {i: dur[i] for i, s in enumerate(spans) if s[0] == name}
    for i, s in enumerate(spans):
        if s[3] in own and s[0] in excluded:
            own[s[3]] -= dur[i]
    return sum(own.values(), 0.0)
