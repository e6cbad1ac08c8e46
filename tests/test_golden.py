"""The CLI reports stay byte-identical to the recorded golden files.

The minform and denoms files under tests/golden/ were written by

    python -m vvmf2.cli {minform,denoms} --seed-instance {m2,m5} --kmax 40 --out FILE

before the closed-form route moved to integer arithmetic, and the
expand and verify-identities files by

    python -m vvmf2.cli expand --name X --order 60 --out FILE
    python -m vvmf2.cli verify-identities --order 200 --out FILE

before series products, inverses and eta powers moved to the same
integer kernel.  Together the expand files cover ``inv`` (K, J), negative
and positive eta powers and the mixed q^(1/4)/q^(1/2) grids (E, GslashS).
Any change in a single coefficient, denominator or verdict shows up as a
byte diff.
"""

from pathlib import Path

import pytest

from vvmf2 import forms
from vvmf2.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _check(tmp_path, argv, golden: str):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("command", ["minform", "denoms"])
@pytest.mark.parametrize("instance", ["m2", "m5"])
def test_report_matches_golden(tmp_path, command, instance):
    _check(
        tmp_path,
        [command, "--seed-instance", instance, "--kmax", "40"],
        f"{command}-{instance}-k40.json",
    )


@pytest.mark.parametrize("name", ["K", "J", "eta^-4", "eta^12", "E", "GslashS"])
def test_expand_matches_golden(tmp_path, name):
    forms.clear_cache()  # build every series from scratch, not from a longer prefix
    golden = f"expand-{name.replace('^', '')}-o60.json"
    _check(tmp_path, ["expand", "--name", name, "--order", "60"], golden)


def test_verify_identities_matches_golden(tmp_path):
    forms.clear_cache()
    _check(tmp_path, ["verify-identities", "--order", "200"], "verify-identities-o200.json")
