"""The names the benchmark harness in ``perfbench/`` reaches into must resolve.

``perfbench/tracer.py`` wraps the functions listed in its ``FUNCTIONS`` map
and the ``PureQSeries`` methods in ``SERIES_METHODS``, and
``perfbench/worker.py`` calls module attributes such as
``minform.weight_basis`` and ``cli.series_to_json`` directly.  A refactor
that renames or moves one of them would break the traced benchmark run,
so this test reads both files and checks every name.  The worker also
reads report fields such as ``GeneralWeightRow.first_hit_1`` and the
``mf.tables`` tuples, which no name check sees, so one operation of each
workload is run and checked as the benchmark runs it.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vvmf2
from vvmf2.qseries import PureQSeries

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = _load_tracer()
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"vvmf2.{layer}"), name, None))
    ]
    assert missing == []


def test_every_traced_series_method_exists():
    tracer = _load_tracer()
    # the tracer looks the methods up in the class dictionary itself
    assert [m for m in tracer.SERIES_METHODS if m not in PureQSeries.__dict__] == []


def test_every_module_attribute_the_worker_uses_resolves():
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    modules = {
        "vvmf2": vvmf2,
        **{
            name: importlib.import_module(f"vvmf2.{name}")
            for name in ("cli", "denoms", "forms", "minform", "params", "qseries", "quadratic")
        },
    }
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert len(used) > 20
    missing = sorted(f"{mod}.{attr}" for mod, attr in used if not hasattr(modules[mod], attr))
    assert missing == []


# the outcomes of one operation when every verdict holds (general-v3-k40 returns two)
OUTCOMES = {
    "denoms-m2-k80": [True],
    "identities-o200": [True],
    "induced-sweep-k20": [True],
    "general-v3-k40": [True, True],
}


@pytest.mark.parametrize("name", list(OUTCOMES))
def test_an_operation_of_each_workload_passes_its_benchmark_check(monkeypatch, name):
    # as perfbench/run.py launches it: a fresh interpreter, vvmf2 from the checkout's src
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    inputs = workload.make_inputs(1)
    root = PERFBENCH.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), name, "op", json.dumps(inputs)],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert workload.check(inputs, result) == []
    assert result["outcomes"] == OUTCOMES[name]
