"""The benchmark's checks must fail on bad data.

    python3 -m pytest perfbench/test_checks.py

Each test runs a workload's operation in-process at a small size, shows
that its checker accepts the genuine result, then corrupts one thing and
shows that the checker rejects it.
"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def denoms_run():
    inputs = dict(wl.denoms_inputs(0), kmax=24)
    return inputs, worker.run("denoms-m2-k80", "op", inputs)


@pytest.mark.parametrize("K, factor", [(6, Fraction(11)), (3, Fraction(1, 11))])
def test_denoms_check_rejects_a_coefficient_scaled_by_an_inert_prime(denoms_run, K, factor):
    inputs, result = denoms_run
    assert wl.check_denoms(inputs, result) == []
    bad = copy.deepcopy(result)
    a, b = oracle.parse_value(bad["extra"]["d"][K])
    bad["extra"]["d"][K] = {"rat": str(a * factor), "surd": str(b * factor)}
    errors = wl.check_denoms(inputs, bad)
    assert any("p=11" in e for e in errors), errors


def test_identity_check_rejects_a_dropped_check():
    inputs = dict(wl.identities_inputs(0), order=20, series_order=20, theta4_n=list(range(1, 21)))
    result = worker.run("identities-o200", "op", inputs)
    assert wl.check_identities(inputs, result) == []
    report = json.loads(result["report"])
    del report["checks"]["theta-J"]
    bad = dict(result, report=json.dumps(report))
    assert any("missing" in e and "theta-J" in e for e in wl.check_identities(inputs, bad))


def test_identity_check_rejects_a_wrong_theta4_coefficient():
    inputs = dict(wl.identities_inputs(0), order=20, series_order=20, theta4_n=[1, 2, 3])
    result = worker.run("identities-o200", "op", inputs)
    bad = copy.deepcopy(result)
    bad["extra"]["theta4"]["3"] = "31"
    assert any("r4(3)" in e for e in wl.check_identities(inputs, bad))


def test_general_check_rejects_a_perturbed_decompose_coefficient():
    inputs = wl.general_inputs(0, kmax=20)
    result = worker.run("general-v3-k40", "op", inputs)
    assert wl.check_general(inputs, result) == []
    assert result["outcomes"] == [True, False]  # ubd_general's verdict, while its fault stands
    report = json.loads(result["report"])
    coeffs = report["decompose"]["m2"]["coefficients"]
    coeffs[2] = str(oracle.parse_value(coeffs[2])[0] + 1)
    bad = dict(result, report=json.dumps(report))
    assert any("seeded m2" in e for e in wl.check_general(inputs, bad))


def test_sweep_check_rejects_a_coefficient_made_p_integral():
    inputs = dict(wl.sweep_inputs(0), kmax=8, instances=[["1/3", 2]])
    result = worker.run("induced-sweep-k20", "op", inputs)
    assert wl.check_sweep(inputs, result) == []
    report = json.loads(result["report"])
    entry = report["instances"][0]
    name, K, p, _ = entry["asserted"][0]
    a, b = oracle.parse_value(entry[name][K])
    entry[name][K] = {"rat": str(a * p), "surd": str(b * p), "M": 2}
    bad = dict(result, report=json.dumps(report))
    assert any(f"p={p}" in e for e in wl.check_sweep(inputs, bad))


def test_repeat_check_rejects_one_changed_byte():
    text = '{"all_passed": true, "order": 200}'
    assert wl.check_repeat([text, text, text]) == []
    changed = text[:5] + "A" + text[6:]
    assert wl.check_repeat([text, text, changed]) == ["report 2 differs from report 0 at byte 5"]


def test_four_square_count_matches_jacobi():
    for n in range(1, 40):
        odd = n
        while odd % 2 == 0:
            odd //= 2
        divisor_sum = sum(d for d in range(1, odd + 1) if odd % d == 0)
        assert oracle.four_square_count(n) == (8 if n % 2 else 24) * divisor_sum


def test_self_time_subtracts_children():
    spans = [
        ["bench.op", 0.0, 10.0, -1],
        ["minform.minimal_form", 1.0, 9.0, 0],
        ["minform.tables_DC", 1.0, 5.0, 1],
        ["qseries.PureQSeries.__mul__", 2.0, 4.0, 2],
        ["forms.hauptmodul", 5.0, 6.0, 1],
    ]
    assert tracer.self_time(spans, "minform.") == pytest.approx(3.0 + 2.0)
    assert tracer.inclusive(spans, "minform.tables_DC") == pytest.approx(4.0)
    own = tracer.self_excluding(spans, "minform.minimal_form", ("minform.tables_DC",))
    assert own == pytest.approx(4.0)


def test_traced_worker_reports_every_per_layer_metric(tmp_path):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    result = worker.run("general-v3-k40", "trace", wl.general_inputs(0, kmax=12), str(tmp_path / "s.json"))
    assert set(result["layers"]) | {"trace.overhead_s"} == {m["name"] for m in declared}
    assert result["layers"]["minform.tables_DC_s"] > 0
    assert wl.check_general(wl.general_inputs(0, kmax=12), result) == []
