"""Command-line front end: flag parsing, dispatch to the library, report emission.

``COMMANDS`` is the one description of the command line: each command's
help text, handler and flags, and each flag's kind, check, default,
choices, help and whether it is required.  ``parse_args`` reads argv
against it (``vvmf2 COMMAND --flag VALUE`` or ``--flag=VALUE``, no
abbreviations, a repeated flag keeping its last value) and writes the
usage line and the ``-h``/``--help`` text from it, so running a command
loads no argument-parsing module.  A bad flag, a value that fails its
check (``--kmax -1``, ``--factor-bound 0``) or a missing required flag is
a usage error, reported before anything is built.

Exit codes are stable and documented:

    0  success (all requested checks passed)
    1  a verification check failed
    2  unusable input: unknown command, malformed JSON, bad flags
    3  config validation failed (the violated relation is named on stderr)
    4  internal pipeline disagreement (a bug, not a data problem)

All machine output is JSON written by the package's one encoder,
``qseries.to_json``: rationals as "p/q" strings, quadratic values as
{"rat", "surd", "M"} objects, written with sorted keys and an indent of
two, the bytes of ``json.dumps(..., indent=2, sort_keys=True)``, so
identical configs produce byte-identical reports.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

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
    check_kmax,
    decomposition,
    deriv_components,
    minimal_form,
    mlde_residual,
)
from .params import (
    SEED_FIELDS,
    ExponentData,
    InstanceParams,
    params_from_exponents,
    roots_from_abc,
    seed_exponents,
)
from .qseries import (
    PureQSeries,
    fraction_from_json,
    int_from_json,
    to_json,
    value_from_json,
)
from .quadratic import QuadNum
from .record import Record, replace

DEFAULT_KMAX = 40

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_PIPELINE = 4

# one encoder for every report; these names are kept for callers that import them from here
value_to_json = series_to_json = params_to_json = to_json


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class RunConfig(Record):
    """A validated run request: one instance plus computation knobs, checked before any build."""

    exponents: ExponentData
    kmax: int = DEFAULT_KMAX
    factor_bound: int = denoms_mod.DEFAULT_FACTOR_BOUND

    def __post_init__(self):
        check_kmax(self.kmax)
        denoms_mod.check_factor_bound(self.factor_bound)


def _check_keys(spec: dict, allowed: set, where: str):
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} key {unknown[0]!r}; allowed: {sorted(allowed)}")


def _exponents_from_spec(spec: dict) -> ExponentData:
    exponent_keys = {"l1", "l2", "r"}
    abc_keys = {"a", "b", "c", "M"}
    has_exponent = exponent_keys <= set(spec)
    has_abc = abc_keys <= set(spec)
    if has_exponent == has_abc:
        raise ConfigError(
            "instance must carry exactly one of {l1, l2, r} or {a, b, c, M}"
        )
    _check_keys(spec, {"k0"} | (abc_keys if has_abc else exponent_keys), "instance")
    k0 = int_from_json(spec.get("k0", 0), "k0")
    if has_abc:
        a, b, c = (fraction_from_json(spec[key]) for key in "abc")
        return roots_from_abc(a, b, c, int_from_json(spec["M"], "M"), k0)
    r_spec = spec["r"]
    if not isinstance(r_spec, dict):
        raise ConfigError("instance key 'r' must be an object {rat, surd, M}")
    _check_keys(r_spec, {"rat", "surd", "M", "conjugate_pair"}, "'r'")
    if not r_spec.get("conjugate_pair", True):
        raise ConsistencyError("r requires conjugate_pair: true (r2 is the conjugate of r1)")
    r1 = value_from_json(r_spec)  # a QuadNum: r_spec is an object
    l1, l2 = fraction_from_json(spec["l1"]), fraction_from_json(spec["l2"])
    return ExponentData(k0=k0, l1=l1, l2=l2, r1=r1, r2=r1.conjugate())


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    _check_keys(data, {"instance", "kmax", "factor_bound"}, "config")
    instance = data.get("instance")
    if not isinstance(instance, dict):
        raise ConfigError("config needs an 'instance' object")
    return RunConfig(
        exponents=_exponents_from_spec(instance),
        kmax=int_from_json(data.get("kmax", DEFAULT_KMAX), "kmax"),
        factor_bound=int_from_json(
            data.get("factor_bound", denoms_mod.DEFAULT_FACTOR_BOUND), "factor_bound"
        ),
    )


def _load_config(args) -> RunConfig:
    """The run request: exactly one of a seed instance and a config file, then the flags."""
    if bool(args.seed_instance) == bool(args.config):
        raise ConfigError("need exactly one of --config FILE and --seed-instance NAME")
    if args.seed_instance:
        cfg = RunConfig(seed_exponents(args.seed_instance))
    else:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        cfg = parse_config(text)
    # a flag given on the command line overrides the config; replace re-runs the check
    updates = {
        f: v for f, v in vars(args).items() if f in ("kmax", "factor_bound") and v is not None
    }
    return replace(cfg, **updates)


_SCALAR_TEXT = {
    str: _quote,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_text(tree) -> str:
    """``json.dumps(to_json(tree), indent=2, sort_keys=True)``, in one recursion over tree.

    str, int, bool, None, lists and dicts with str keys are written as met,
    any other object as its ``to_json`` form if that is one of them (else a
    TypeError).  Each scalar is one piece with the separator and key before it.
    """
    pieces = []
    put, scalar_text = pieces.append, _SCALAR_TEXT.get

    def write(x, head: str, nl: str) -> None:
        # head: the separator and key before x; nl: a newline and the indent of x's level
        inner = nl + "  "
        if x.__class__ is list:
            if not x:
                return put(head + "[]")
            put(head + "[")
            sep = inner
            for v in x:
                text = scalar_text(v.__class__)
                if text is None:
                    write(v, sep, inner)
                else:
                    put(sep + text(v))
                sep = "," + inner
            put(nl + "]")
        elif x.__class__ is dict:
            if not x:
                return put(head + "{}")
            put(head + "{")
            sep = inner
            for k in sorted(x):
                v = x[k]
                text = scalar_text(v.__class__)
                if text is None:
                    write(v, f"{sep}{_quote(k)}: ", inner)
                else:
                    put(f"{sep}{_quote(k)}: {text(v)}")
                sep = "," + inner
            put(nl + "}")
        elif (text := scalar_text(x.__class__)) is not None:
            put(head + text(x))
        elif (form := to_json(x)) is not x:
            write(form, head, nl)
        else:
            raise TypeError(f"a report holds no {x.__class__.__name__}")

    write(tree, "", "\n")
    return "".join(pieces)


def _emit(report, out: str | None):
    """Write a text report as it is, anything else as JSON; an unwritable out is a usage error."""
    try:
        text = report if isinstance(report, str) else _json_text(report)
    except ValueError as exc:  # an integer past the int -> str limit (m2 from Kmax about 1350)
        if "Exceeds the limit" not in str(exc):
            raise
        raise ValueError(f"the report holds an integer of more than {sys.get_int_max_str_digits()} "
                         "digits, Python's limit on int -> str conversion; lower --kmax") from exc
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from None
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left: stdout goes to devnull, so the exit flush passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify_identities(args) -> int:
    report = forms.identity_suite(args.order)
    if args.format == "text":
        lines = [f"{c.name:<28} {'PASS' if c.passed else 'FAIL'}" for c in report.checks]
        _emit("\n".join(lines), args.out)
    else:
        checks = {c.name: ("pass" if c.passed else "fail") for c in report.checks}
        _emit({"order": report.order, "checks": checks, "all_passed": report.all_passed}, args.out)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


# looked up at call time, so a replaced or wrapped library function is the one called
_NAMED_SERIES = {
    "E2": lambda n: forms.eisenstein_E2(n),
    "E4": lambda n: forms.eisenstein_E4(n),
    "G": lambda n: forms.weight2_G(n),
    "K": lambda n: forms.hauptmodul(n)[0],
    "J": lambda n: forms.hauptmodul(n)[1],
    "theta4": lambda n: forms.theta4_and_E(n)[0],
    "E": lambda n: forms.theta4_and_E(n)[1],
    "GslashS": lambda n: forms.g_slash_S(n),
}


def _named_series(name: str, order: int) -> PureQSeries:
    if name.startswith("eta^"):
        return forms.eta_pow(int_from_json(name[4:], "eta power"), order)
    if name not in _NAMED_SERIES:
        raise ConfigError(
            f"unknown series {name!r}; choose from {tuple(_NAMED_SERIES)} or eta^<even>"
        )
    return _NAMED_SERIES[name](order)


def cmd_expand(args) -> int:
    if args.order < 0:
        raise ConsistencyError("order >= 0")
    s = _named_series(args.name, args.order)
    if args.format == "text":
        lines = [f"# {args.name}, known below q^{s.horizon}"]
        for i, c in enumerate(s.coeffs):
            lines.append(f"q^{str(s.lead + i * s.step):>8}  {c}")
        _emit("\n".join(lines), args.out)
    else:
        _emit({"name": args.name, "series": s}, args.out)
    return EXIT_OK


def _build_minform(cfg: RunConfig) -> tuple[InstanceParams, MinimalForm]:
    params = params_from_exponents(cfg.exponents)
    return params, minimal_form(params, cfg.kmax)


def cmd_minform(args) -> int:
    cfg = _load_config(args)
    params, mf = _build_minform(cfg)
    residual_zero = [mlde_residual(params, c).is_zero for c in (mf.comp1, mf.comp2)]
    t = mf.tables
    # deriv_components raises PipelineMismatch if the formula and the operator disagree;
    # a derivative's leading zeros (t(0) = l = 0) were stripped and are written as "0"
    t1, t2 = (
        [Fraction(0)] * int(dc.lead - lead) + [*dc.coeffs]
        for dc, lead in zip(deriv_components(mf), params.leads)
    )
    payload = {
        "kmax": cfg.kmax,
        "method": "both",
        "params": params,
        "components": {"first": mf.comp1, "second": mf.comp2},
        "sequences": {
            "h": t.h, "h_tilde": t.h_tilde, "d": t.d, "d_tilde": t.d_tilde, "e": t.e,
            "t1": t1, "t2": t2,
        },
        "checks": {
            "pipelines_agree": True,
            "mlde_residual_zero": residual_zero,
            "derivative_formula_matches": True,
        },
    }
    _emit(payload, args.out)
    return EXIT_OK if all(residual_zero) else EXIT_CHECK_FAILED


def _ubd_row_json(r: denoms_mod.UbdRow) -> dict:
    return {
        "K": r.K,
        "p": r.p,
        "prime": r.is_prime,
        "in_S": r.in_S,
        "exempt": r.exempt,
        "divides": r.divides,
        "earlier_integral": r.earlier_integral,
        "verdict": r.verdict,
    }


def cmd_denoms(args) -> int:
    cfg = _load_config(args)
    params, mf = _build_minform(cfg)
    report = denoms_mod.verify_ubd(mf, cfg.kmax, cfg.factor_bound)
    if args.format == "text":
        lines = [f"{'K':>4} {'p_K':>6} {'in S':>5} {'divides':>8} {'prior':>6}  verdict"]
        for r in report.rows_d:
            lines.append(
                f"{r.K:>4} {r.p:>6} {str(r.in_S):>5} {str(r.divides):>8} "
                f"{str(r.earlier_integral):>6}  {r.verdict}"
                + (f" ({'; '.join(r.exempt)})" if r.exempt else "")
            )
        lines.append(f"threshold: {report.threshold}  exceptional: {list(report.exceptional)}")
        _emit("\n".join(lines), args.out)
    else:
        _emit(
            {
                "kmax": report.Kmax,
                "factor_bound": report.factor_bound,
                "params": params,
                "threshold": report.threshold,
                "exceptional": report.exceptional,
                "rows_d": [_ubd_row_json(r) for r in report.rows_d],
                "rows_h": [_ubd_row_json(r) for r in report.rows_h],
                "rows_d_tilde": [_ubd_row_json(r) for r in report.rows_d_tilde],
                # str keys: the report orders the factors as text, "11" before "3"
                "denominators_d": [
                    {
                        "K": s.index,
                        "denominator": s.denominator,
                        "factors": {str(p): e for p, e in s.factors.items()},
                        "cofactor": s.cofactor,
                    }
                    for s in report.scan_d
                ],
                "prime_summary_d": report.summary_d,
                "prime_summary_d_tilde": report.summary_d_tilde,
                "all_asserted_pass": report.all_asserted_pass,
            },
            args.out,
        )
    return EXIT_OK if report.all_asserted_pass else EXIT_CHECK_FAILED


def _read_components(path: str) -> dict:
    """The components file: an object with an integer k and the value lists z1 and z2."""
    try:
        with open(path) as fh:
            comp = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read components: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed components JSON: {exc}") from None
    if not isinstance(comp, dict):
        raise ConfigError("components file must be an object with keys k, z1 and z2")
    for key in ("k", "z1", "z2"):
        if key not in comp:
            raise ConfigError(f"components file needs key {key!r}")
        if key != "k" and not isinstance(comp[key], list):
            raise ConfigError(f"components key {key!r} must be a list of values")
    return comp


def cmd_decompose(args) -> int:
    cfg = _load_config(args)
    params, mf = _build_minform(cfg)
    comp = _read_components(args.components)
    k = int_from_json(comp["k"], "k")
    z1, z2 = (
        PureQSeries.make(lead, [value_from_json(c) for c in comp[key]])
        for key, lead in zip(("z1", "z2"), params.leads)
    )
    payload = {"k": k}
    for name, (m, coords) in zip(("m1", "m2"), decomposition(mf, z1, z2, k)):
        payload[name] = m
        payload[f"{name}_monomials"] = {f"G^{a}*E4^{b}": c for (a, b), c in coords.items()}
    _emit(payload, args.out)
    return EXIT_OK


def cmd_probe(args) -> int:
    x = QuadNum(fraction_from_json(args.rat), fraction_from_json(args.surd), args.M)
    verdict = denoms_mod.pochhammer_numerator_probe(
        x, fraction_from_json(args.shift), args.p, args.tmax
    )
    payload = {
        "status": verdict.status,
        "p": verdict.p,
        "tmax": verdict.tmax,
        "half_form": {"Z": verdict.Z, "x": verdict.x, "y": verdict.y},
        "bad_shifts": verdict.bad_shifts,
        "bad_indices": verdict.bad_indices,
    }
    _emit(payload, args.out)
    return EXIT_OK if verdict.status != "fail" else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


class Flag(Record):
    """A command's flag ``--name VALUE``: a value of kind, in choices if given, that check takes."""

    name: str
    kind: type = str
    default: object = None
    required: bool = False
    choices: tuple = ()
    check: object = None
    help: str = ""

    def word(self):
        """The flag as the usage shows it: its name, then its choices or its name in capitals."""
        return f"{self.name} {'|'.join(self.choices) or self.name[2:].upper()}"


_OUT = Flag("--out", help="write the report here instead of stdout")
_FORMAT = Flag("--format", default="json", choices=("json", "text"))
_INSTANCE_FLAGS = (
    Flag("--config", help="JSON run configuration file"),
    Flag("--seed-instance", choices=tuple(SEED_FIELDS),
         help="use a built-in worked instance instead of a config file"),
    Flag("--kmax", int, check=check_kmax),
    _OUT,
)

# name -> (help, handler, flags), in the order the usage lists them
COMMANDS = {
    "verify-identities": ("run the exact series identity suite", cmd_verify_identities, (
        Flag("--order", int, 200), _OUT, _FORMAT,
    )),
    "expand": ("print a named q-expansion", cmd_expand, (
        Flag("--name", required=True), Flag("--order", int, 20), _OUT, _FORMAT,
    )),
    "minform": ("compute the minimal form by both pipelines", cmd_minform, _INSTANCE_FLAGS),
    "denoms": ("finite-range unbounded-denominator report", cmd_denoms, (
        *_INSTANCE_FLAGS, Flag("--factor-bound", int, check=denoms_mod.check_factor_bound), _FORMAT,
    )),
    "decompose": ("express a vector in the F', DF' basis", cmd_decompose, (
        *_INSTANCE_FLAGS, Flag("--components", required=True, help="JSON file with k, z1, z2"),
    )),
    "probe": ("test Pochhammer numerators against an inert prime", cmd_probe, (
        Flag("--M", int, required=True),
        Flag("--rat", required=True),
        Flag("--surd", required=True),
        Flag("--shift", default="0"),
        Flag("--p", int, required=True),
        Flag("--tmax", int, 20),
        _OUT,
    )),
}


def _usage(command):
    if command not in COMMANDS:
        return f"usage: vvmf2 [-h] {'|'.join(COMMANDS)} ..."
    words = " ".join(f.word() if f.required else f"[{f.word()}]" for f in COMMANDS[command][2])
    return f"usage: vvmf2 {command} [-h] {words}"


def _help(command):
    """Print the usage line, what the command does and a line per command or flag; exit 0."""
    if command not in COMMANDS:
        rows = [(name, spec[0]) for name, spec in COMMANDS.items()]
        about = "Exact minimal-weight vector-valued forms on Gamma0(2) and their denominators."
    else:
        about, rows = COMMANDS[command][0], [(f.word(), f.help) for f in COMMANDS[command][2]]
    lines = (f"    {left:<26}  {text}".rstrip() for left, text in rows)
    print(f"{_usage(command)}\n\n{about}\n", *lines, sep="\n")
    raise SystemExit(EXIT_OK)


def parse_args(argv):
    """The handler that argv names and the flag values to call it with.

    The first word names the command.  Each flag is ``--flag VALUE`` or
    ``--flag=VALUE``, and a repeated flag keeps its last value; a flag
    not given has its default.  ``-h`` or ``--help`` prints the help and
    exits 0.  A usage error prints the usage line and the error on stderr
    and exits 2, so a bad flag stops the run before anything is built.
    """
    command = argv[0] if argv else None
    if "-h" in argv or "--help" in argv:
        _help(command)
    try:
        if command not in COMMANDS:
            raise ValueError(f"argument command: invalid choice: {command!r}" if argv
                             else "the following arguments are required: command")
        _, handler, flags = COMMANDS[command]
        by_name = {f.name: f for f in flags}
        given, unrecognized, words = {}, [], iter(argv[1:])
        for word in words:
            name, eq, text = word.partition("=")
            if name not in by_name:
                unrecognized.append(word)
                continue
            if not eq:
                text = next(words, "--")
                if text.startswith("--"):
                    raise ValueError(f"argument {name}: expected one argument")
            flag = by_name[name]
            try:
                given[name] = value = flag.kind(text)
            except ValueError:
                raise ValueError(f"argument {name}: invalid {flag.kind.__name__} value: {text!r}")
            if flag.choices and value not in flag.choices:
                raise ValueError(f"argument {name}: invalid choice: {text!r}")
            if flag.check:
                flag.check(value)  # its ValueError is the message
        missing = [f.name for f in flags if f.required and f.name not in given]
        if missing:
            raise ValueError(f"the following arguments are required: {', '.join(missing)}")
        if unrecognized:
            raise ValueError(f"unrecognized arguments: {' '.join(unrecognized)}")
    except ValueError as exc:
        prog = f"vvmf2 {command}" if command in COMMANDS else "vvmf2"
        print(f"{_usage(command)}\n{prog}: error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return handler, SimpleNamespace(
        **{f.name[2:].replace("-", "_"): given.get(f.name, f.default) for f in flags}
    )


def main(argv=None) -> int:
    handler, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
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
