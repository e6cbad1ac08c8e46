"""The minform and denoms reports stay byte-identical to the recorded golden files.

The files under tests/golden/ were written by

    python -m vvmf2.cli {minform,denoms} --seed-instance {m2,m5} --kmax 40 --out FILE

before the closed-form route moved to integer arithmetic; any change in
a single coefficient, denominator or verdict shows up as a byte diff.
"""

from pathlib import Path

import pytest

from vvmf2.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", ["minform", "denoms"])
@pytest.mark.parametrize("instance", ["m2", "m5"])
def test_report_matches_golden(tmp_path, command, instance):
    out = tmp_path / "report.json"
    code = main([command, "--seed-instance", instance, "--kmax", "40", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{command}-{instance}-k40.json").read_bytes()
