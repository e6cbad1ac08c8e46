"""Command-line front end: config parsing, subcommand dispatch, report emission.

Exit codes are stable and documented:

    0  success (all requested checks passed)
    1  a verification check failed
    2  unusable input: unknown command, malformed JSON, bad flags
    3  config validation failed (the violated relation is named on stderr)
    4  internal pipeline disagreement (a bug, not a data problem)

All machine output is JSON with rationals rendered as "p/q" strings and
quadratic values as {"rat", "surd", "M"} objects, emitted with sorted
keys so identical configs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from . import denoms as denoms_mod
from . import forms
from .errors import (
    ConfigError,
    ConsistencyError,
    NotAFormError,
    PipelineMismatch,
    TruncationError,
)
from .minform import (
    MinimalForm,
    decompose,
    deriv_components,
    minimal_form,
    mlde_residual,
    t_lists,
)
from .params import (
    ExponentData,
    InstanceParams,
    params_from_exponents,
    roots_from_abc,
    seed_exponents,
)
from .qseries import PureQSeries
from .quadratic import QuadNum

DEFAULT_KMAX = 40

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_PIPELINE = 4


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _frac(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}: {exc}") from None


def _int(value, key: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def value_to_json(x):
    if isinstance(x, QuadNum):
        if x.surd == 0:
            return str(x.rat)
        return {"rat": str(x.rat), "surd": str(x.surd), "M": x.M}
    if isinstance(x, Fraction):
        return str(x)
    return x


def value_from_json(obj):
    if isinstance(obj, dict):
        try:
            return QuadNum(_frac(obj["rat"]), _frac(obj["surd"]), _int(obj["M"], "M"))
        except KeyError as exc:
            raise ConfigError(f"quadratic value needs key {exc}") from None
    return _frac(obj)


def series_to_json(s: PureQSeries) -> dict:
    return {
        "lead": str(s.lead),
        "step": str(s.step),
        "lattice": s.lattice,
        "coefficients": [value_to_json(c) for c in s.coeffs],
    }


def params_to_json(p: InstanceParams) -> dict:
    return {
        "k0": p.k0,
        "a": str(p.a),
        "b": str(p.b),
        "c": str(p.c),
        "l1": str(p.l1),
        "l2": str(p.l2),
        "r": value_to_json(p.r),
        "A": value_to_json(p.A),
        "B": value_to_json(p.B),
        "M": p.M,
        "u": p.u,
        "v": p.v,
    }


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """A validated run request: one instance plus computation knobs."""

    exponents: ExponentData
    kmax: int
    method: str
    factor_bound: int
    out: str | None
    fmt: str


def _exponents_from_spec(spec: dict) -> ExponentData:
    exponent_keys = {"l1", "l2", "r"}
    abc_keys = {"a", "b", "c", "M"}
    has_exponent = exponent_keys <= set(spec)
    has_abc = abc_keys <= set(spec)
    if has_exponent == has_abc:
        raise ConfigError(
            "instance must carry exactly one of {l1, l2, r} or {a, b, c, M}"
        )
    k0 = _int(spec.get("k0", 0), "k0")
    if has_abc:
        return roots_from_abc(
            _frac(spec["a"]), _frac(spec["b"]), _frac(spec["c"]), _int(spec["M"], "M"), k0
        )
    r_spec = spec["r"]
    if not isinstance(r_spec, dict):
        raise ConfigError("instance key 'r' must be an object {rat, surd, M}")
    r1 = value_from_json(r_spec)
    if isinstance(r1, QuadNum) and r1.surd != 0:
        if not r_spec.get("conjugate_pair", True):
            raise ConsistencyError("irrational r requires conjugate_pair: true")
        r2 = r1.conjugate()
    else:
        r1 = r1.rat if isinstance(r1, QuadNum) else r1
        r2 = Fraction(1, 2) - _frac(spec["l1"]) - _frac(spec["l2"]) - r1
    return ExponentData(
        k0=k0, l1=_frac(spec["l1"]), l2=_frac(spec["l2"]), r1=r1, r2=r2
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    instance = data.get("instance")
    if not isinstance(instance, dict):
        raise ConfigError("config needs an 'instance' object")
    exponents = _exponents_from_spec(instance)
    kmax = _int(data.get("kmax", DEFAULT_KMAX), "kmax")
    if kmax < 1:
        raise ConsistencyError("kmax >= 1")
    method = data.get("method", "both")
    if method not in ("both", "closed", "frobenius"):
        raise ConfigError(f"unknown method {method!r}")
    fmt = data.get("format", "json")
    if fmt not in ("json", "text"):
        raise ConfigError(f"unknown format {fmt!r}")
    return RunConfig(
        exponents=exponents,
        kmax=kmax,
        method=method,
        factor_bound=_int(
            data.get("factor_bound", denoms_mod.DEFAULT_FACTOR_BOUND), "factor_bound"
        ),
        out=data.get("out"),
        fmt=fmt,
    )


def _load_config(args) -> RunConfig:
    if getattr(args, "seed_instance", None):
        cfg = RunConfig(
            exponents=seed_exponents(args.seed_instance),
            kmax=DEFAULT_KMAX,
            method="both",
            factor_bound=denoms_mod.DEFAULT_FACTOR_BOUND,
            out=None,
            fmt="json",
        )
    elif getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        cfg = parse_config(text)
    else:
        raise ConfigError("need --config FILE or --seed-instance NAME")
    updates = {}
    if getattr(args, "kmax", None) is not None:
        if args.kmax < 1:
            raise ConsistencyError("kmax >= 1")
        updates["kmax"] = args.kmax
    if getattr(args, "method", None):
        updates["method"] = args.method
    if getattr(args, "factor_bound", None) is not None:
        updates["factor_bound"] = args.factor_bound
    if getattr(args, "out", None):
        updates["out"] = args.out
    if getattr(args, "format", None):
        updates["fmt"] = args.format
    if updates:
        cfg = replace(cfg, **updates)
    return cfg


def _emit(payload, out: str | None):
    text = payload if isinstance(payload, str) else json.dumps(
        payload, indent=2, sort_keys=True
    )
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify_identities(args) -> int:
    report = forms.identity_suite(args.order)
    checks = list(report.checks)

    th4, curly_e = forms.theta4_and_E(args.order)
    g = forms.weight2_G(args.order).series
    from .qseries import equal_through

    checks.append(
        forms.IdentityCheck(
            "G-theta4-16E", equal_through(g, th4 + 16 * curly_e, args.order)
        )
    )
    r4_ok = True
    for n in range(1, args.order + 1):
        expect = 8 * forms.sigma(n) if n % 2 else 24 * forms.sigma(_odd_part(n))
        if th4.coeff(n) != expect:
            r4_ok = False
            break
    checks.append(forms.IdentityCheck("four-squares-counts", r4_ok))
    gs = forms.g_slash_S(2)
    checks.append(
        forms.IdentityCheck("G-slash-S-constant", gs.coeff(0) == Fraction(-1, 2))
    )

    payload = {
        "order": args.order,
        "checks": {c.name: ("pass" if c.passed else "fail") for c in checks},
        "all_passed": all(c.passed for c in checks),
    }
    if args.format == "text":
        lines = [f"{c.name:<28} {'PASS' if c.passed else 'FAIL'}" for c in checks]
        _emit("\n".join(lines), args.out)
    else:
        _emit(payload, args.out)
    return EXIT_OK if payload["all_passed"] else EXIT_CHECK_FAILED


def _odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


_EXPANDABLE = ("E2", "E4", "G", "K", "J", "theta4", "E", "GslashS")


def _named_series(name: str, order: int) -> PureQSeries:
    if name == "E2":
        return forms.eisenstein_E2(order).series
    if name == "E4":
        return forms.eisenstein_E4(order).series
    if name == "G":
        return forms.weight2_G(order).series
    if name == "K":
        return forms.hauptmodul(order)[0]
    if name == "J":
        return forms.hauptmodul(order)[1]
    if name == "theta4":
        return forms.theta4_and_E(order)[0]
    if name == "E":
        return forms.theta4_and_E(order)[1]
    if name == "GslashS":
        return forms.g_slash_S(order)
    if name.startswith("eta^"):
        return forms.eta_pow(_int(name[4:], "eta power"), order).series
    raise ConfigError(f"unknown series {name!r}; choose from {_EXPANDABLE} or eta^<even>")


def cmd_expand(args) -> int:
    s = _named_series(args.name, args.order)
    if args.format == "text":
        lines = [f"# {args.name}, known below q^{s.horizon}"]
        for i, c in enumerate(s.coeffs):
            lines.append(f"q^{str(s.lead + i * s.step):>8}  {c}")
        _emit("\n".join(lines), args.out)
    else:
        _emit({"name": args.name, "series": series_to_json(s)}, args.out)
    return EXIT_OK


def _build_minform(cfg: RunConfig) -> tuple[InstanceParams, MinimalForm]:
    params = params_from_exponents(cfg.exponents)
    return params, minimal_form(params, cfg.kmax, cfg.method)


def cmd_minform(args) -> int:
    cfg = _load_config(args)
    params, mf = _build_minform(cfg)
    res1 = mlde_residual(params, mf.comp1)
    res2 = mlde_residual(params, mf.comp2)
    d1, d2 = deriv_components(mf)
    t1, t2 = t_lists(mf)
    payload = {
        "kmax": cfg.kmax,
        "method": cfg.method,
        "params": params_to_json(params),
        "components": {
            "first": series_to_json(mf.comp1),
            "second": series_to_json(mf.comp2),
        },
        "sequences": {
            "h": [value_to_json(x) for x in mf.tables.h],
            "h_tilde": [value_to_json(x) for x in mf.tables.h_tilde],
            "d": [value_to_json(x) for x in mf.tables.d],
            "d_tilde": [value_to_json(x) for x in mf.tables.d_tilde],
            "e": [value_to_json(x) for x in mf.tables.e],
            "t1": [value_to_json(x) for x in t1],
            "t2": [value_to_json(x) for x in t2],
        },
        "checks": {
            "pipelines_agree": True if cfg.method == "both" else None,
            "mlde_residual_zero": [res1.is_zero, res2.is_zero],
            "derivative_formula_matches": True,
        },
    }
    _emit(payload, cfg.out)
    ok = res1.is_zero and res2.is_zero
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _ubd_row_json(r: denoms_mod.UbdRow) -> dict:
    return {
        "K": r.K,
        "p": r.p,
        "prime": r.is_prime,
        "in_S": r.in_S,
        "exempt": list(r.exempt),
        "divides": r.divides,
        "earlier_integral": r.earlier_integral,
        "verdict": "exempt" if (r.in_S and r.exempt) else (
            "pass" if r.passed else ("fail" if r.passed is False else "skip")
        ),
    }


def cmd_denoms(args) -> int:
    cfg = _load_config(args)
    params, mf = _build_minform(cfg)
    report = denoms_mod.verify_ubd(mf, cfg.kmax, cfg.factor_bound)
    payload = {
        "kmax": report.Kmax,
        "factor_bound": report.factor_bound,
        "params": params_to_json(params),
        "threshold": report.threshold,
        "exceptional": list(report.exceptional),
        "rows_d": [_ubd_row_json(r) for r in report.rows_d],
        "rows_h": [_ubd_row_json(r) for r in report.rows_h],
        "rows_d_tilde": [_ubd_row_json(r) for r in report.rows_d_tilde],
        "denominators_d": [
            {
                "K": s.index,
                "denominator": s.denominator,
                "factors": {str(p): e for p, e in sorted(s.factors.items())},
                "cofactor": s.cofactor,
            }
            for s in report.scan_d
        ],
        "prime_summary_d": [
            {
                "p": s.p,
                "first_division_K": s.first_division_K,
                "expected_K": s.expected_K,
                "verdict": s.verdict,
            }
            for s in report.summary_d
        ],
        "prime_summary_d_tilde": [
            {
                "p": s.p,
                "first_division_K": s.first_division_K,
                "expected_K": s.expected_K,
                "verdict": s.verdict,
            }
            for s in report.summary_d_tilde
        ],
        "all_asserted_pass": report.all_asserted_pass,
    }
    if cfg.fmt == "text":
        lines = [f"{'K':>4} {'p_K':>6} {'in S':>5} {'divides':>8} {'prior':>6}  verdict"]
        for r in report.rows_d:
            row = _ubd_row_json(r)
            lines.append(
                f"{r.K:>4} {r.p:>6} {str(r.in_S):>5} {str(r.divides):>8} "
                f"{str(r.earlier_integral):>6}  {row['verdict']}"
                + (f" ({'; '.join(r.exempt)})" if r.exempt else "")
            )
        lines.append(f"threshold: {report.threshold}  exceptional: {list(report.exceptional)}")
        _emit("\n".join(lines), cfg.out)
    else:
        _emit(payload, cfg.out)
    return EXIT_OK if report.all_asserted_pass else EXIT_CHECK_FAILED


def cmd_decompose(args) -> int:
    cfg = _load_config(args)
    params, mf = _build_minform(cfg)
    try:
        with open(args.components) as fh:
            comp = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read components: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed components JSON: {exc}") from None
    try:
        k = _int(comp["k"], "k")
        lead1 = Fraction(params.k0, 12) + params.l1
        lead2 = Fraction(params.k0, 12) + params.l2
        lattice = mf.comp1.lattice
        z1 = PureQSeries.make(
            lead1, [value_from_json(c) for c in comp["z1"]], 1, lattice
        )
        z2 = PureQSeries.make(
            lead2, [value_from_json(c) for c in comp["z2"]], 1, lattice
        )
    except KeyError as exc:
        raise ConfigError(f"components file needs key {exc}") from None
    m1, m2 = decompose(mf, z1, z2, k)
    coords1 = forms.monomial_coordinates(m1, k - params.k0)
    coords2 = forms.monomial_coordinates(m2, k - params.k0 - 2)
    payload = {
        "k": k,
        "m1": series_to_json(m1),
        "m2": series_to_json(m2),
        "m1_monomials": {f"G^{a}*E4^{b}": value_to_json(c) for (a, b), c in coords1.items()},
        "m2_monomials": {f"G^{a}*E4^{b}": value_to_json(c) for (a, b), c in coords2.items()},
    }
    _emit(payload, cfg.out)
    return EXIT_OK


def cmd_probe(args) -> int:
    x = QuadNum(_frac(args.rat), _frac(args.surd), args.M)
    verdict = denoms_mod.pochhammer_numerator_probe(x, _frac(args.shift), args.p, args.tmax)
    payload = {
        "status": verdict.status,
        "p": verdict.p,
        "tmax": verdict.tmax,
        "half_form": {"Z": verdict.Z, "x": verdict.x, "y": verdict.y},
        "bad_shifts": list(verdict.bad_shifts),
        "bad_indices": list(verdict.bad_indices),
    }
    _emit(payload, args.out)
    return EXIT_OK if verdict.status != "fail" else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _add_instance_flags(sub):
    sub.add_argument("--config", help="JSON run configuration file")
    sub.add_argument(
        "--seed-instance",
        choices=("m2", "m5"),
        help="use a built-in worked instance instead of a config file",
    )
    sub.add_argument("--kmax", type=int, default=None)
    sub.add_argument("--method", choices=("both", "closed", "frobenius"), default=None)
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "text"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vvmf2",
        description="Exact minimal-weight vector-valued forms on Gamma0(2) "
        "and their coefficient denominators.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("verify-identities", help="run the exact series identity suite")
    s.add_argument("--order", type=int, default=200)
    s.add_argument("--out", default=None)
    s.add_argument("--format", choices=("json", "text"), default="json")
    s.set_defaults(handler=cmd_verify_identities)

    s = subs.add_parser("expand", help="print a named q-expansion")
    s.add_argument("--name", required=True)
    s.add_argument("--order", type=int, default=20)
    s.add_argument("--out", default=None)
    s.add_argument("--format", choices=("json", "text"), default="json")
    s.set_defaults(handler=cmd_expand)

    s = subs.add_parser("minform", help="compute the minimal form by both pipelines")
    _add_instance_flags(s)
    s.set_defaults(handler=cmd_minform)

    s = subs.add_parser("denoms", help="finite-range unbounded-denominator report")
    _add_instance_flags(s)
    s.add_argument("--factor-bound", type=int, default=None)
    s.set_defaults(handler=cmd_denoms)

    s = subs.add_parser("decompose", help="express a vector in the F', DF' basis")
    _add_instance_flags(s)
    s.add_argument("--components", required=True, help="JSON file with k, z1, z2")
    s.set_defaults(handler=cmd_decompose)

    s = subs.add_parser("probe", help="test Pochhammer numerators against an inert prime")
    s.add_argument("--M", type=int, required=True)
    s.add_argument("--rat", required=True)
    s.add_argument("--surd", required=True)
    s.add_argument("--shift", default="0")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--tmax", type=int, default=20)
    s.add_argument("--out", default=None)
    s.set_defaults(handler=cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConsistencyError, NotAFormError, TruncationError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PipelineMismatch as exc:
        print(f"pipeline disagreement: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
