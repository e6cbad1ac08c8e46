"""The scripts under scripts/ run end to end and print their verdicts."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script -> (arguments, a pattern the last line of its output matches)
SCRIPTS = {
    "compare_pipelines.py": (["--kmax", "6"], r"h and h~ agree exactly through Kmax 6"),
    "run_denominator_experiment.py": (["--kmax", "10"], r"no non-exempt failures in range"),
    "scan_induced_instances.py": (
        ["--kmax", "6"],
        r"20 instances realized, 0 with non-exempt failures",
    ),
    "count_tokens.py": ([], r"src/vvmf2: [1-9][0-9]* tokens, [1-9][0-9]* lines"),
}
KMAX_SCRIPTS = [script for script, (args, _) in SCRIPTS.items() if "--kmax" in args]


def run_script(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs_and_prints_its_verdict(script):
    args, verdict = SCRIPTS[script]
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(verdict, proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("script", KMAX_SCRIPTS)
def test_scripts_refuse_a_negative_kmax(script):
    # exit 2 is a usage error; 1 would claim that an asserted row failed
    proc = run_script(script, "--kmax", "-1")
    assert proc.returncode == 2
    assert "Kmax must be >= 0, got -1" in proc.stderr
    assert proc.stdout == ""


def test_run_denominator_experiment_refuses_a_factor_bound_below_one():
    proc = run_script("run_denominator_experiment.py", "--factor-bound", "0")
    assert proc.returncode == 2
    assert "factor bound must be >= 1, got 0" in proc.stderr
    assert proc.stdout == ""
