"""CLI dispatch, config validation, exit codes, and report determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vvmf2
from vvmf2 import cli, forms
from vvmf2.cli import main, parse_config, value_from_json, value_to_json
from vvmf2.errors import ConfigError, ConsistencyError
from vvmf2.qseries import PureQSeries, to_json
from vvmf2.quadratic import QuadNum
from vvmf2.record import Record

M2_CONFIG = {
    "instance": {
        "k0": 0,
        "l1": "0",
        "l2": "1/2",
        "r": {"rat": "0", "surd": "1", "M": 2, "conjugate_pair": True},
    },
    "kmax": 8,
    "method": "both",
}

ABC_CONFIG = {
    "instance": {"a": "-1/3", "b": "2/3", "c": "-2/3", "M": 2, "k0": 0},
    "kmax": 8,
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_config_both_forms():
    a = parse_config(json.dumps(M2_CONFIG))
    b = parse_config(json.dumps(ABC_CONFIG))
    assert a.exponents.l1 == b.exponents.l1 == Fraction(0)
    assert a.exponents.r1 == b.exponents.r1
    assert a.kmax == 8 and a.method == "both"


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"kmax": 4}))
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"instance": {"a": "1"}, "kmax": 4}))
    mixed = {"instance": {**M2_CONFIG["instance"], **ABC_CONFIG["instance"]}}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(mixed))


def test_parse_config_validates_relations():
    bad = {
        "instance": {
            "k0": 0,
            "l1": "0",
            "l2": "1",  # l1 - l2 integral
            "r": {"rat": "0", "surd": "1", "M": 2},
        }
    }
    cfg = parse_config(json.dumps(bad))
    # the violation surfaces when the instance is materialized
    from vvmf2.params import params_from_exponents

    with pytest.raises(ConsistencyError, match="l1 - l2"):
        params_from_exponents(cfg.exponents)


def test_value_roundtrip():
    x = QuadNum(Fraction(3, 7), Fraction(-2, 5), 5)
    assert value_from_json(value_to_json(x)) == x
    assert value_from_json("22/7") == Fraction(22, 7)


def test_exit_codes(tmp_path, capsys):
    assert main(["verify-identities", "--order", "12"]) == 0
    capsys.readouterr()

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{oops")
    assert main(["minform", "--config", str(bad_json)]) == 2
    capsys.readouterr()

    violated = write_config(
        tmp_path,
        {
            "instance": {
                "k0": 0,
                "l1": "0",
                "l2": "1/2",
                "r": {"rat": "1/4", "surd": "0", "M": 2},
            },
            "kmax": 4,
        },
        "violated.json",
    )
    # rational r with r2 = conj(r1) = r1: the sum rule fails when the instance is built
    assert main(["minform", "--config", violated]) == 3
    err = capsys.readouterr().err
    assert "assumption" in err or "validation" in err

    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_minform_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path, M2_CONFIG)
    assert main(["minform", "--config", cfg, "--kmax", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sequences"]["d"][1] == "256"
    assert payload["checks"]["mlde_residual_zero"] == [True, True]
    assert payload["params"]["u"] == -1 and payload["params"]["v"] == 2


def test_minform_seed_instance(capsys):
    assert main(["minform", "--seed-instance", "m2", "--kmax", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sequences"]["h"][1] == "256"


def test_denoms_report(tmp_path, capsys):
    cfg = write_config(tmp_path, {**M2_CONFIG, "kmax": 12})
    assert main(["denoms", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = {r["K"]: r for r in payload["rows_d"]}
    assert rows[6]["p"] == 11 and rows[6]["verdict"] == "pass"
    assert rows[2]["verdict"] == "exempt"
    assert payload["threshold"] == 5
    assert payload["all_asserted_pass"] is True

    assert main(["denoms", "--config", cfg, "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "verdict" in text and "exempt" in text


def test_expand_formats(capsys):
    assert main(["expand", "--name", "K", "--order", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["series"]["coefficients"][:3] == ["1", "40", "276"]
    assert payload["series"]["lead"] == "-1"

    assert main(["expand", "--name", "eta^2", "--order", "4", "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "1/12" in text

    assert main(["expand", "--name", "nonsense", "--order", "4"]) == 2


def test_decompose_roundtrip(tmp_path, capsys):
    from vvmf2.minform import deriv_components, minimal_form
    from vvmf2.forms import form_monomial
    from vvmf2.params import params_from_exponents, seed_exponents

    p = params_from_exponents(seed_exponents("m2"))
    mf = minimal_form(p, 10, "both")
    d1, d2 = deriv_components(mf)
    g = form_monomial(1, 0, 12)
    e4 = form_monomial(0, 1, 12)
    m1 = g * g * g + 2 * (g * e4)
    m2 = g * g
    z1 = m1 * mf.comp1 + m2 * d1
    z2 = m1 * mf.comp2 + m2 * d2
    comp_file = tmp_path / "components.json"
    comp_file.write_text(
        json.dumps(
            {
                "k": p.k0 + 6,
                "z1": [value_to_json(z1.coeff(p.l1 + n)) for n in range(10)],
                "z2": [value_to_json(z2.coeff(p.l2 + n)) for n in range(10)],
            }
        )
    )
    cfg = write_config(tmp_path, M2_CONFIG)
    assert main(["decompose", "--config", cfg, "--components", str(comp_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m1_monomials"] == {"G^3*E4^0": "1", "G^1*E4^1": "2"}
    assert payload["m2_monomials"] == {"G^2*E4^0": "1"}


@pytest.mark.parametrize(
    "components, key",
    [([1, 2], "k, z1 and z2"), ({"k": 6, "z1": 5, "z2": []}, "'z1'"), ({"z1": [], "z2": []}, "'k'")],
)
def test_decompose_rejects_a_components_file_of_the_wrong_shape(tmp_path, capsys, components, key):
    comp_file = tmp_path / "components.json"
    comp_file.write_text(json.dumps(components))
    cfg = write_config(tmp_path, M2_CONFIG)
    assert main(["decompose", "--config", cfg, "--components", str(comp_file)]) == 2
    assert key in capsys.readouterr().err


def test_decompose_refuses_a_huge_weight_before_building_a_basis(tmp_path, monkeypatch, capsys):
    # dim M_k is 2.5e11 here; the basis, a list of that many pairs, must never be built
    def unexpected(k):
        pytest.fail(f"decompose built the monomial basis of weight {k}")

    monkeypatch.setattr(forms, "monomial_basis", unexpected)
    golden = Path(__file__).parent / "golden" / "decompose-components-m2.json"
    comp_file = tmp_path / "components.json"
    comp_file.write_text(json.dumps({**json.loads(golden.read_text()), "k": 10**12}))
    argv = ["decompose", "--seed-instance", "m2", "--kmax", "8", "--components", str(comp_file)]
    assert main(argv) == 3
    assert "need at least 250000000002 coefficients" in capsys.readouterr().err


_NOT_IN_M6 = "series is not in M_6: the solved combination differs from it"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda g: {**g, "z1": []}, "need at least 3 coefficients, have 0"),
        (lambda g: {**g, "k": 7}, "M_7 is zero but the series is not"),
        (lambda g: {**g, "k": 12}, "series is not in M_12: the solved combination differs from it"),
        (lambda g: {**g, "z1": [{"rat": "3", "surd": "1", "M": 3}] + g["z1"][1:]}, _NOT_IN_M6),
        (lambda g: {**g, "z1": [{"rat": "3", "surd": "1", "M": 2}] + g["z1"][1:]}, _NOT_IN_M6),
    ],
    ids=["z1-empty", "k-odd", "k-12", "z1-sqrt3", "z1-sqrt2"],
)
def test_decompose_refuses_malformed_components(tmp_path, capsys, edit, message):
    golden = Path(__file__).parent / "golden" / "decompose-components-m2.json"
    comp_file = tmp_path / "components.json"
    comp_file.write_text(json.dumps(edit(json.loads(golden.read_text()))))
    argv = ["decompose", "--seed-instance", "m2", "--kmax", "8", "--components", str(comp_file)]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"validation error: {message}\n")


def test_decompose_needs_one_coefficient_past_the_basis(tmp_path, capsys):
    # dim M_6 = dim M_4 = 2: two known terms are all the solve uses, so the rebuild would check
    # nothing; a third term is the first one it checks
    golden_dir = Path(__file__).parent / "golden"
    golden = json.loads((golden_dir / "decompose-components-m2.json").read_text())
    want = json.loads((golden_dir / "decompose-m2-k8.json").read_text())
    comp_file = tmp_path / "components.json"
    argv = ["decompose", "--seed-instance", "m2", "--kmax", "8", "--components", str(comp_file)]
    comp_file.write_text(json.dumps({**golden, "z1": golden["z1"][:2], "z2": golden["z2"][:2]}))
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "validation error: need at least 3 coefficients, have 2\n")
    comp_file.write_text(json.dumps({**golden, "z1": golden["z1"][:3], "z2": golden["z2"][:3]}))
    assert main(argv) == 0
    got = json.loads(capsys.readouterr().out)
    assert (got["m1_monomials"], got["m2_monomials"]) == (want["m1_monomials"], want["m2_monomials"])


def test_probe_command(capsys):
    assert (
        main(["probe", "--M", "2", "--rat", "0", "--surd", "1", "--p", "5", "--tmax", "15"])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "pass"
    assert main(["probe", "--M", "2", "--rat", "0", "--surd", "1", "--p", "7"]) == 3


def test_probe_with_large_denominators_ends(tmp_path):
    # the Pochhammer products here have coordinate denominators past 10^40;
    # a divisor search over them did not finish
    src = Path(vvmf2.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "vvmf2.cli", "probe", "--M", "2", "--rat", "1/3",
         "--surd", "1/5", "--p", "5", "--tmax", "20"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "pass"


def test_a_reader_that_closes_the_pipe_early_ends_the_command_quietly():
    # as `vvmf2 expand ... | head -1`: the report is far larger than the pipe buffer
    src = Path(vvmf2.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "vvmf2.cli", "expand", "--name", "E4", "--order", "3000",
         "--format", "text"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first == b"# E4, known below q^3001\n" and stderr == b""


def test_malformed_integer_in_config_exits_2(tmp_path, capsys):
    for key, value in (("kmax", "ten"), ("factor_bound", [3]), ("kmax", None)):
        cfg = write_config(tmp_path, {**M2_CONFIG, key: value}, f"{key}.json")
        assert main(["denoms", "--config", cfg]) == 2
        assert key in capsys.readouterr().err
    with pytest.raises(ConfigError, match="kmax"):
        parse_config(json.dumps({**M2_CONFIG, "kmax": "ten"}))
    bad_k0 = {**M2_CONFIG, "instance": {**M2_CONFIG["instance"], "k0": "zero"}}
    assert main(["minform", "--config", write_config(tmp_path, bad_k0, "k0.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "key, value",
    [("kmax", 6.9), ("kmax", 8.0), ("kmax", True), ("factor_bound", 99.5), ("k0", False), ("M", 2.7)],
)
def test_non_integer_config_value_exits_2(tmp_path, capsys, key, value):
    # a float or a bool is not truncated into an integer: the key is named and the run stops
    if key in ("k0", "M"):
        data = {**ABC_CONFIG, "instance": {**ABC_CONFIG["instance"], key: value}}
    else:
        data = {**M2_CONFIG, key: value}
    assert main(["denoms", "--config", write_config(tmp_path, data)]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("M", [0, 1, 8])
def test_abc_config_with_an_unusable_M_exits_3(tmp_path, capsys, M):
    data = {**ABC_CONFIG, "instance": {**ABC_CONFIG["instance"], "M": M}}
    assert main(["minform", "--config", write_config(tmp_path, data)]) == 3
    assert f"M must be square-free and not 0 or 1, got {M}" in capsys.readouterr().err


def test_factor_bound_below_one_exits_3(tmp_path, capsys):
    # in a config file; the flag is a usage error (test_denoms_refuses_a_bad_factor_bound_...)
    cfg = write_config(tmp_path, {**M2_CONFIG, "factor_bound": 0})
    assert main(["denoms", "--config", cfg]) == 3
    assert "factor bound must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["E2", "E4", "G", "K", "J", "theta4", "E", "GslashS", "eta^2"])
def test_expand_rejects_a_negative_order(capsys, name):
    assert main(["expand", "--name", name, "--order", "-3"]) == 3
    assert "order >= 0" in capsys.readouterr().err


def test_json_determinism(tmp_path):
    cfg = write_config(tmp_path, {**M2_CONFIG, "kmax": 6})
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["denoms", "--config", cfg, "--out", str(out1)]) == 0
    forms.clear_cache()
    assert main(["denoms", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_equal_exponents_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "instance": {
                "k0": 0,
                "l1": "0",
                "l2": "0",
                "r": {"rat": "0", "surd": "1", "M": 2},
            },
            "kmax": 4,
        },
        "equal.json",
    )
    assert main(["minform", "--config", cfg]) == 3
    assert "l1 - l2" in capsys.readouterr().err


def test_config_forms_equivalent(tmp_path):
    out1 = tmp_path / "exp.json"
    out2 = tmp_path / "abc.json"
    cfg1 = write_config(tmp_path, {**M2_CONFIG, "kmax": 6}, "c1.json")
    cfg2 = write_config(tmp_path, {**ABC_CONFIG, "kmax": 6}, "c2.json")
    assert main(["minform", "--config", cfg1, "--out", str(out1)]) == 0
    assert main(["minform", "--config", cfg2, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_a_perturbed_closed_route_exits_4(monkeypatch, capsys):
    from vvmf2 import minform

    real_h_closed = minform.h_closed

    def perturbed(params, Kmax):
        h, h_tilde = real_h_closed(params, Kmax)
        h = PureQSeries.make(0, [c + 1 if K == 3 else c for K, c in enumerate(h.coeffs)])
        return h, h_tilde

    monkeypatch.setattr(minform, "h_closed", perturbed)
    assert main(["minform", "--seed-instance", "m2", "--kmax", "8"]) == 4
    assert "closed-form and recursion disagree at K=3" in capsys.readouterr().err


def _perturbed_table(real):
    def perturbed(Kmax):
        tables = [list(series) for series in real(Kmax)]
        tables[8][7] += 1  # the q^7 coefficient of z phi^3
        return tuple(tables)

    return perturbed


def _perturbed_psi(real):
    def perturbed(Kmax):
        s = real(Kmax)
        s[7] += 7  # psi_7 + 168: E, built from psi, stays integral (E_7 + 24)
        return s

    return perturbed


def _perturbed_e(real):
    def perturbed(psi, n):
        e = real(psi, n)
        e[6] += 1  # E_6, so z_7
        return e

    return perturbed


def _perturbed_ab(real):
    def perturbed(params):
        c, ab = real(params)
        return c, ab + 1

    return perturbed


@pytest.mark.parametrize(
    "name, fault, K",
    [
        ("tables_DC", _perturbed_table, 7),
        ("_divisor_sums", _perturbed_psi, 7),
        ("_e_series", _perturbed_e, 7),
        ("_hypergeometric", _perturbed_ab, 1),
    ],
    ids=["table", "psi", "E", "ab"],
)
def test_a_perturbed_closed_route_input_exits_4(monkeypatch, capsys, cold_cache, name, fault, K):
    from vvmf2 import minform

    monkeypatch.setattr(minform, name, fault(getattr(minform, name)))
    assert main(["denoms", "--seed-instance", "m2", "--kmax", "10"]) == 4
    assert f"closed-form and recursion disagree at K={K}:" in capsys.readouterr().err


def test_a_non_integral_E_exits_4(monkeypatch, capsys, cold_cache):
    from vvmf2 import minform

    real = minform._e_series

    def psi_5_plus_1(psi, n):  # E alone reads psi_5 + 1, so 5 E_5 leaves remainder 1
        return real([x + (j == 5) for j, x in enumerate(psi)], n)

    monkeypatch.setattr(minform, "_e_series", psi_5_plus_1)
    assert main(["denoms", "--seed-instance", "m2", "--kmax", "10"]) == 4
    assert "E = prod (1 + q^n)^24 came out non-integral at q^5" in capsys.readouterr().err


def test_a_cache_directory_variable_is_inert(tmp_path, monkeypatch, capsys):
    argvs = (
        ["expand", "--name", "E4", "--order", "12"],
        ["denoms", "--seed-instance", "m2", "--kmax", "10"],
    )

    def outputs():
        out = []
        for argv in argvs:
            forms.clear_cache()
            assert main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    plain = outputs()
    cache = tmp_path / "cache"
    monkeypatch.setenv("VVMF2_CACHE_DIR", str(cache))
    assert outputs() == plain
    assert not cache.exists() or not any(cache.iterdir())


def test_minform_runs_on_a_lattice_120_instance(tmp_path, capsys):
    config = dict(M2_CONFIG)
    config["instance"] = dict(M2_CONFIG["instance"], l2="1/5")
    config["instance"]["r"] = {"rat": "3/20", "surd": "1", "M": 2, "conjugate_pair": True}
    assert main(["minform", "--config", write_config(tmp_path, config)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["components"]["second"]["lattice"] == 120
    assert report["checks"]["mlde_residual_zero"] == [True, True]


def test_denoms_refuses_a_single_route_before_building(monkeypatch, capsys):
    def unexpected(*args, **kwargs):
        pytest.fail("denoms built a minimal form it was going to refuse")

    monkeypatch.setattr(cli, "minimal_form", unexpected)
    assert main(["denoms", "--seed-instance", "m2", "--method", "closed"]) == 3
    assert "method='both'" in capsys.readouterr().err


def test_minform_has_no_format_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["minform", "--seed-instance", "m2", "--kmax", "4", "--format", "text"])
    assert exc.value.code == 2


def test_denoms_refuses_a_bad_factor_bound_before_building(monkeypatch, capsys):
    def unexpected(*args, **kwargs):
        pytest.fail("denoms built a minimal form for a factor bound it was going to refuse")

    monkeypatch.setattr(cli, "minimal_form", unexpected)
    with pytest.raises(SystemExit) as exc:
        main(["denoms", "--seed-instance", "m2", "--factor-bound", "0"])
    assert exc.value.code == 2
    assert "factor bound must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["minform", "denoms"])
def test_kmax_zero_reports_the_normalized_one(capsys, command):
    assert main([command, "--seed-instance", "m2", "--kmax", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kmax"] == 0
    if command == "minform":
        assert report["components"]["first"]["coefficients"] == ["1"]
        assert report["components"]["second"]["coefficients"] == ["1"]
    else:
        assert [row["K"] for row in report["denominators_d"]] == [0]
        assert report["rows_d"] == report["rows_h"] == report["rows_d_tilde"] == []


@pytest.mark.parametrize("command", ["minform", "denoms"])
def test_a_negative_kmax_exits_3_before_building(tmp_path, monkeypatch, capsys, command):
    # in a config file: a validation error
    def unexpected(*args, **kwargs):
        pytest.fail(f"{command} built a minimal form for a Kmax it was going to refuse")

    monkeypatch.setattr(cli, "minimal_form", unexpected)
    cfg = write_config(tmp_path, {**M2_CONFIG, "kmax": -1})
    assert main([command, "--config", cfg]) == 3
    assert "Kmax must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["minform", "denoms"])
def test_a_report_past_the_int_to_str_limit_exits_3_and_names_it(tmp_path, capsys, command):
    # m2's common denominator passes 640 digits (the lowest limit Python allows) near Kmax 210
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        out = tmp_path / "report.json"
        assert main([command, "--seed-instance", "m2", "--kmax", "300", "--out", str(out)]) == 3
    finally:
        sys.set_int_max_str_digits(limit)
    err = capsys.readouterr().err
    assert "more than 640 digits, Python's limit on int -> str conversion; lower --kmax" in err
    assert "Exceeds the limit" not in err and not out.exists()


def test_another_value_error_of_the_writer_keeps_its_message(tmp_path, monkeypatch, capsys):
    # only the int -> str limit is reworded; any other ValueError of to_json is reported as raised
    def failing(obj):
        raise ValueError("a value the writer cannot encode")

    monkeypatch.setattr(cli, "to_json", failing)
    assert main(["minform", "--seed-instance", "m2", "--kmax", "4", "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert "a value the writer cannot encode" in err and "lower --kmax" not in err


class _Pair(Record):
    first: object
    second: object


_FRACTIONS = st.fractions(max_denominator=10**6)

# what a report holds: text with non-ASCII and control characters, ints of up
# to hundreds of digits, bools, None, (possibly empty) lists and str-keyed
# dicts, and the engine objects to_json encodes (rationals, quadratic values,
# series, records and tuples)
_REPORT_TREES = st.recursive(
    st.text()
    | st.integers()
    | st.builds(lambda n, e: n * 7**e, st.integers(), st.integers(0, 600))
    | st.booleans()
    | st.none()
    | _FRACTIONS
    | st.builds(QuadNum, _FRACTIONS, _FRACTIONS, st.sampled_from([2, 5, -3]))
    | st.builds(lambda cs: PureQSeries.make(Fraction(1, 3), cs), st.lists(_FRACTIONS, max_size=4)),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(), kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.builds(_Pair, kids, kids),
    max_leaves=30,
)


@given(_REPORT_TREES)
@settings(max_examples=300, deadline=None)
@example([QuadNum(Fraction(1, 2), 0, 5), _Pair((), QuadNum(0, 1, 2))])  # a QuadNum is a record
def test_the_report_writer_writes_the_bytes_of_json_dumps(tree):
    # one pass over the engine objects writes what to_json and then json.dumps write
    assert cli._json_text(tree) == json.dumps(to_json(tree), indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "tree", [1.5, {"a": [1.5j]}, {"a": (object(),)}, {1: "a"}, {"a": {"b"}}]
)
def test_the_report_writer_refuses_what_to_json_does_not_make(tree):
    with pytest.raises(TypeError):
        cli._json_text(tree)


def test_an_unwritable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "r.json"
    assert main(["expand", "--name", "E4", "--order", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report: ") and "Traceback" not in err
    assert not out.parent.exists()


def _parse_exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_help_lists_all_six_commands(capsys):
    code, out, _ = _parse_exit(main, ["--help"], capsys)
    assert code == 0 and len(cli.COMMANDS) == 6
    assert all(f"    {name}" in out for name in cli.COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [[name, "--help"] for name in cli.COMMANDS]
    + [["denoms", "--bogus"], ["probe"], ["expand", "--order", "x"], ["minform", "--method", "x"]],
)
def test_one_subcommand_parser_words_everything_as_the_full_parser(capsys, argv):
    # main builds the subcommand argv names alone; usage, help and errors must not change
    full = _parse_exit(cli.build_parser().parse_args, argv, capsys)
    assert _parse_exit(main, argv, capsys) == full


@pytest.mark.parametrize("command", ["minform", "denoms"])
def test_a_negative_kmax_flag_exits_2_before_building(monkeypatch, capsys, command):
    # a flag is a usage error, as the module docstring and the scripts have it
    def unexpected(*args, **kwargs):
        pytest.fail(f"{command} built a minimal form for a Kmax it was going to refuse")

    monkeypatch.setattr(cli, "minimal_form", unexpected)
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed-instance", "m2", "--kmax", "-1"])
    assert exc.value.code == 2
    assert "Kmax must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("method", cli.METHODS)
@pytest.mark.parametrize("rat", ["1/7", "0"])
def test_an_instance_outside_the_class_exits_3_before_building(
    tmp_path, monkeypatch, capsys, rat, method
):
    # r with surd 0 and r2 = conj(r1): 1/7 breaks the sum rule, 0 keeps it and fails the class
    def unexpected(*args, **kwargs):
        pytest.fail("minform built a minimal form for an instance outside the paper's class")

    monkeypatch.setattr(cli, "minimal_form", unexpected)
    instance = {**M2_CONFIG["instance"], "r": {"rat": rat, "surd": "0", "M": 2}}
    cfg = write_config(tmp_path, {"instance": instance, "kmax": 6, "method": method})
    assert main(["minform", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert ("!= 1/2" if rat == "1/7" else "outside the paper's class: r_quadratic") in err


@pytest.mark.parametrize("key", ["format", "out"])
@pytest.mark.parametrize("command", ["minform", "decompose", "denoms"])
def test_an_out_or_format_key_in_a_config_exits_2(tmp_path, capsys, command, key):
    # --out and --format are flags only; a config that sets them is refused, not half obeyed
    value = "text" if key == "format" else str(tmp_path / "report.json")
    argv = [command, "--config", write_config(tmp_path, {**M2_CONFIG, key: value})]
    if command == "decompose":
        components = Path(__file__).parent / "golden" / "decompose-components-m2.json"
        argv += ["--components", str(components)]
    assert main(argv) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def with_instance(config, **keys):
    return {**config, "instance": {**config["instance"], **keys}}


@pytest.mark.parametrize(
    "config, message",
    [
        ({**M2_CONFIG, "kmx": 12}, "unknown config key 'kmx'"),
        (with_instance(M2_CONFIG, k_0=2), "unknown instance key 'k_0'"),
        (
            with_instance(M2_CONFIG, r={**M2_CONFIG["instance"]["r"], "conjugate": True}),
            "unknown 'r' key 'conjugate'",
        ),
        (with_instance(ABC_CONFIG, l1="0"), "unknown instance key 'l1'"),
    ],
    ids=["kmx", "k_0", "r-conjugate", "abc-l1"],
)
def test_an_unknown_config_key_exits_2(tmp_path, capsys, config, message):
    # a misspelt key used to fall back to its default: Kmax 40, k0 = 0, conjugate_pair true
    assert main(["minform", "--config", write_config(tmp_path, config)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("tmax", ["0", "-3"])
def test_probe_refuses_an_empty_range(capsys, tmax):
    argv = ["probe", "--M", "2", "--rat", "0", "--surd", "1", "--p", "5", "--tmax", tmax]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "tmax >= 1" in captured.err and captured.out == ""
