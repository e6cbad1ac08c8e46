"""One operation of one workload, run in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD MODE INPUTS_JSON [SPANS_FILE]

MODE is ``setup`` (import vvmf2, build the inputs, stop), ``op`` (also
run the operation once) or ``trace`` (run it with spans recorded, plus
the per-layer measurements).  The last line of standard output is one
JSON object: the monotonic time at which set-up finished, the timed
operation's wall time, peak resident memory, the report text, the
program's own pass/fail verdict per operation, the data the correctness
checks need, and the host-speed gauge.  Everything but the operation is
outside its timing.  vvmf2 is imported from PYTHONPATH; run.py points
it at the checkout's ``src``.
"""

import contextlib
import io
import itertools
import json
import resource
import sys
import time
from fractions import Fraction

import tracer
import vvmf2
from vvmf2 import cli, denoms, forms, minform, params, qseries, quadratic


def dump(x):
    """A coefficient for the checks, in this file's own format."""
    if hasattr(x, "surd"):
        return {"rat": str(x.rat), "surd": str(x.surd)}
    return str(x)


def gauge() -> float:
    """Wall time of a fixed computation that does not touch vvmf2: the host's current speed.

    Schoolbook products of a series with growing rational coefficients,
    the same kind of work as the program's, so it slows down with the
    host as the program does (a small loop does not; see README.md).
    """
    a = [Fraction(1, i * i + 1) for i in range(1, 41)]
    start = time.perf_counter()
    for rnd in range(24):
        if rnd % 4 == 0:
            p = list(a)
        else:
            p = [sum((p[j] * a[i - j] for j in range(i + 1)), Fraction(0)) for i in range(40)]
    return time.perf_counter() - start


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class MinimalFormOperation:
    """An operation that builds minimal forms (kept in forms_built for the traced run)."""

    kmax: int
    forms_built: list

    def untraced_layers(self) -> dict:
        return {
            "qseries.power_chain_s": power_chain(self.kmax),
            "quadratic.denominator_of_s": denominator_pass(self.forms_built),
        }


# ---------------------------------------------------------------------------
# denoms-m2-k80: one `vvmf2 denoms` invocation
# ---------------------------------------------------------------------------


class DenomsReport(MinimalFormOperation):
    def __init__(self, inputs):
        self.kmax = inputs["kmax"]
        self.argv = ["denoms", "--seed-instance", inputs["seed_instance"], "--kmax", str(self.kmax)]
        self.forms_built = []

        def keep_minimal_form(*args, **kwargs):
            # looked up at call time, so a traced run sees the traced function
            mf = minform.minimal_form(*args, **kwargs)
            self.forms_built.append(mf)
            return mf

        cli.minimal_form = keep_minimal_form

    def op(self):
        rc, report = run_cli(self.argv)
        self.rc = rc
        return report, [rc == 0]

    def extra(self):
        (mf,) = self.forms_built
        return {
            "rc": self.rc,
            "d": [dump(x) for x in mf.tables.d],
            "d_tilde": [dump(x) for x in mf.tables.d_tilde],
        }


# ---------------------------------------------------------------------------
# identities-o200: one `vvmf2 verify-identities` invocation
# ---------------------------------------------------------------------------


class IdentityReport:
    def __init__(self, inputs):
        self.order = inputs["order"]
        self.theta4_n = inputs["theta4_n"]
        self.argv = ["verify-identities", "--order", str(self.order)]

    def op(self):
        self.rc, report = run_cli(self.argv)
        return report, [self.rc == 0]

    def untraced_layers(self) -> dict:
        start = time.perf_counter()
        forms.identity_suite(self.order)  # the operation left the named series warm
        return {"forms.identity_suite_s": time.perf_counter() - start}

    def extra(self):
        K = forms.hauptmodul(3)[0]
        th4 = forms.theta4_and_E(max(self.theta4_n))[0]
        return {
            "rc": self.rc,
            "K": {"lead": str(K.lead), "coefficients": [dump(c) for c in K.coeffs[:3]]},
            "theta4": {str(n): dump(th4.coeff(n)) for n in self.theta4_n},
        }


# ---------------------------------------------------------------------------
# induced-sweep-k20: every induced instance in one interpreter
# ---------------------------------------------------------------------------


def realize(classes, window: int):
    """First shift vector in the window satisfying the sum constraint (as the sweep script)."""
    for shifts in itertools.product(range(-window, window + 1), repeat=4):
        exponents = classes.exponents(shifts)
        try:
            return exponents, params.params_from_exponents(exponents)
        except vvmf2.ConsistencyError:
            continue
    return None, None


class InducedSweep(MinimalFormOperation):
    def __init__(self, inputs):
        self.kmax = inputs["kmax"]
        self.instances = []
        for xi1_text, M in inputs["instances"]:
            xi1 = Fraction(xi1_text)
            # the rational part of xi2 must be xi1/2 mod 1/2 (as in the sweep script)
            xi2 = quadratic.QuadNum(xi1 / 2, Fraction(-1), M)
            classes = params.induced_exponent_classes(xi1, xi2, inputs["k0"], "minus")
            exponents, p = realize(classes, inputs["window"])
            if p is not None and not params.check_assumptions(p).all_pass:
                p = None
            self.instances.append((xi1_text, M, exponents, p))

    def op(self):
        value = cli.value_to_json
        entries = []
        ok = True
        self.forms_built = []
        for xi1_text, M, e, p in self.instances:
            entry = {"xi1": xi1_text, "M": M, "realized": p is not None}
            if p is not None:
                mf = minform.minimal_form(p, self.kmax, "both")
                rep = denoms.verify_ubd(mf, self.kmax)
                self.forms_built.append(mf)
                ok = ok and rep.all_asserted_pass
                scans = (("d", rep.rows_d), ("h", rep.rows_h), ("d_tilde", rep.rows_d_tilde))
                asserted = [
                    [seq, r.K, r.p, "pass" if r.passed else "fail"]
                    for seq, rows in scans
                    for r in rows
                    if r.asserted
                ]
                entry.update(
                    exponents={k: value(getattr(e, k)) for k in ("l1", "l2", "r1", "r2")},
                    u=p.u,
                    v=p.v,
                    threshold=rep.threshold,
                    exceptional=list(rep.exceptional),
                    all_asserted_pass=rep.all_asserted_pass,
                    asserted=asserted,
                    d=[value(x) for x in mf.tables.d],
                    h=[value(x) for x in mf.tables.h],
                    d_tilde=[value(x) for x in mf.tables.d_tilde],
                )
            else:
                ok = False
            entries.append(entry)
        entries.sort(key=lambda x: (Fraction(x["xi1"]), x["M"]))
        report = json.dumps({"kmax": self.kmax, "instances": entries}, indent=1, sort_keys=True)
        return report, [ok]

    def extra(self):
        return {}


# ---------------------------------------------------------------------------
# general-v3-k40: the v = 3 instance through every layer
# ---------------------------------------------------------------------------


def monomial_map(rows) -> dict:
    return {(a, b): c for a, b, c in rows}


class GeneralWeight(MinimalFormOperation):
    def __init__(self, inputs):
        self.kmax = inputs["kmax"]
        self.k = inputs["weight"]
        self.bound = inputs["prime_bound"]
        r = inputs["r"]
        r1 = quadratic.QuadNum(Fraction(r["rat"]), Fraction(r["surd"]), r["M"])
        self.params = params.params_from_exponents(
            params.ExponentData(
                inputs["k0"], Fraction(inputs["l1"]), Fraction(inputs["l2"]), r1, r1.conjugate()
            )
        )
        self.m1 = monomial_map(inputs["m1"])
        self.m2 = monomial_map(inputs["m2"])
        self.ubd_m1 = monomial_map(inputs["ubd_m1"])
        self.ubd_m2 = monomial_map(inputs["ubd_m2"])

    def op(self):
        p, kmax, k = self.params, self.kmax, self.k
        mf = minform.minimal_form(p, kmax, "both")
        res1 = minform.mlde_residual(p, mf.comp1)
        res2 = minform.mlde_residual(p, mf.comp2)
        d1, d2 = minform.deriv_components(mf)
        basis = minform.weight_basis(mf, k)
        z1, z2 = denoms.combination(mf, self.m1, self.m2, k)
        n1, n2 = minform.decompose(mf, z1, z2, k)
        ubd = denoms.verify_ubd(mf, kmax)
        general = denoms.ubd_general(mf, self.ubd_m1, self.ubd_m2, k, kmax, self.bound)
        self.forms_built = [mf]
        chain_ok = res1.is_zero and res2.is_zero and ubd.all_asserted_pass
        series = cli.series_to_json
        report = json.dumps(
            {
                "params": cli.params_to_json(p),
                "kmax": kmax,
                "weight": k,
                "residual_zero": [res1.is_zero, res2.is_zero],
                "derivative": {"first": series(d1), "second": series(d2)},
                "basis": [b.label for b in basis],
                "decompose": {"m1": series(n1), "m2": series(n2)},
                "verify_ubd": {
                    "threshold": ubd.threshold,
                    "exceptional": list(ubd.exceptional),
                    "all_asserted_pass": ubd.all_asserted_pass,
                },
                "ubd_general": {
                    "prime_bound": self.bound,
                    "rows": [
                        {
                            "p": r.p,
                            "exempt": list(r.exempt),
                            "first_hit_1": r.first_hit_1,
                            "first_hit_2": r.first_hit_2,
                            "passed": r.passed,
                        }
                        for r in general.rows
                    ],
                    "all_asserted_pass": general.all_asserted_pass,
                },
            },
            indent=1,
            sort_keys=True,
        )
        return report, [chain_ok, general.all_asserted_pass]

    def extra(self):
        sets = denoms.prime_sets(self.params, self.bound)
        return {"prime_sets": {"S": list(sets.S), "S_tilde": list(sets.S_tilde)}}


SETUP = {
    "denoms-m2-k80": DenomsReport,
    "identities-o200": IdentityReport,
    "induced-sweep-k20": InducedSweep,
    "general-v3-k40": GeneralWeight,
}


# ---------------------------------------------------------------------------
# per-layer measurements of a traced run
# ---------------------------------------------------------------------------


def named_series(order: int, eta_powers) -> None:
    forms.eisenstein_E2(order)
    forms.eisenstein_E4(order)
    forms.weight2_G(order)
    forms.hauptmodul(order)
    for twok in eta_powers:
        forms.eta_pow(twok, order)


def power_chain(kmax: int) -> float:
    """Time of the Kmax successive products of K^-1 that tables_DC runs."""
    kinv = forms.hauptmodul(kmax + 2)[0].inv()
    power = qseries.PureQSeries.constant(1, len(kinv.coeffs))
    start = time.perf_counter()
    for _ in range(kmax):
        power = power * kinv
    return time.perf_counter() - start


def denominator_pass(forms_built) -> float:
    """Time of denominator_of over every d and d~ coefficient of the operation."""
    values = [x for mf in forms_built for x in mf.tables.d + mf.tables.d_tilde]
    memo = getattr(quadratic, "_sorted_divisors", None)
    if memo is not None and hasattr(memo, "cache_clear"):
        memo.cache_clear()  # the operation warmed it on the same values
    start = time.perf_counter()
    for x in values:
        quadratic.denominator_of(x)
    return time.perf_counter() - start


def layer_metrics(spans) -> dict:
    inc = lambda name: tracer.inclusive(spans, name)  # noqa: E731
    out = {f"{layer}.self_s": tracer.self_time(spans, f"{layer}.") for layer in
           ("quadratic", "qseries", "forms", "minform", "denoms")}
    out.update({
        "qseries.inv_s": inc("qseries.PureQSeries.inv"),
        "minform.tables_DC_s": inc("minform.tables_DC"),
        "minform.seq_f_s": inc("minform.seq_f"),
        "minform.h_closed_s": inc("minform.h_closed"),
        "minform.h_frobenius_s": inc("minform.h_frobenius"),
        "minform.minimal_form_self_s": tracer.self_excluding(
            spans,
            "minform.minimal_form",
            ("minform.tables_DC", "minform.seq_f", "minform.h_closed", "minform.h_frobenius"),
        ),
        "minform.mlde_residual_s": inc("minform.mlde_residual"),
        "minform.deriv_components_s": inc("minform.deriv_components"),
        "minform.weight_basis_s": inc("minform.weight_basis"),
        "minform.decompose_s": inc("minform.decompose"),
        "denoms.verify_ubd_s": inc("denoms.verify_ubd"),
        "denoms.ubd_general_s": inc("denoms.ubd_general"),
        "cli.self_s": tracer.self_time(spans, "cli."),
    })
    return out


def run(workload: str, mode: str, inputs: dict, spans_file: str | None = None) -> dict:
    """Set up, then (unless mode is "setup") run and measure one operation."""
    state = SETUP[workload](inputs)
    out = {"t_ready": time.perf_counter()}
    gauge()  # the first run in a fresh process reads slow and noisy: allocator and caches are cold
    before = gauge()
    if mode == "setup":
        out["gauge_s"] = before
        return out

    trace = None
    if mode == "trace":
        trace = tracer.Tracer()
        start = time.perf_counter()
        named_series(inputs["series_order"], inputs["eta_powers"])
        named_s = time.perf_counter() - start
        forms.clear_cache()  # the operation itself starts cold, as untraced
        trace.install()
        start = time.perf_counter()
        report, outcomes = trace.span("bench.op", state.op)
        out["report_s"] = time.perf_counter() - start
        trace.uninstall()
    else:
        start = time.perf_counter()
        report, outcomes = state.op()
        out["report_s"] = time.perf_counter() - start

    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["gauge_s"] = (before + gauge()) / 2
    out.update(report=report, outcomes=outcomes, extra=state.extra())

    if trace is not None:
        # a layer the operation never calls reads 0
        layers = dict.fromkeys(
            ("forms.identity_suite_s", "qseries.power_chain_s", "quadratic.denominator_of_s"), 0.0
        )
        layers.update(layer_metrics(trace.spans), **state.untraced_layers())
        layers["forms.named_series_s"] = named_s
        out["layers"] = layers
        if spans_file:
            with open(spans_file, "w") as fh:
                json.dump({"columns": ["name", "start", "end", "parent"], "spans": trace.spans}, fh)
    return out


if __name__ == "__main__":
    argv = sys.argv[1:]
    print(json.dumps(run(argv[0], argv[1], json.loads(argv[2]), argv[3] if len(argv) > 3 else None)))
