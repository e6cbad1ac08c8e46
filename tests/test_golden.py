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
The remaining files cover every other report the CLI writes: ``decompose``
on the components of ``test_decompose_roundtrip`` (saved as
decompose-components-m2.json), ``probe``, ``minform`` by a single route
and the text formats of ``verify-identities``, ``expand`` and ``denoms``.
They were written before the reports moved onto one JSON encoder.
decompose-v3-k40.json is ``decompose`` at Kmax 40 and weight 8 on the
v = 3 instance of decompose-config-v3.json (l1 = 0, l2 = 1/3,
r = 1/12 + sqrt 2) with the components decompose-components-v3.json;
it was written before ``decompose`` moved from a coefficientwise solve
to Cramer's rule.  minform-l120-k12.json is ``minform`` on the instance
of minform-config-l120-k12.json (k0 = 2, l1 = 0, l2 = 1/5,
r = 3/20 + sqrt 2, Kmax 12), whose second component needs the 1/120
grid; it was written while each series still stored a lattice, and its
one edit since sets the first component's lattice from 120 to 24, the
lcm of 24 and the denominators of that component's lead and step.  Any
change in a single coefficient, denominator or verdict shows up as a
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




def test_decompose_matches_golden(tmp_path):
    components = GOLDEN / "decompose-components-m2.json"
    argv = ["decompose", "--seed-instance", "m2", "--kmax", "8", "--components", str(components)]
    _check(tmp_path, argv, "decompose-m2-k8.json")


def test_decompose_v3_matches_golden(tmp_path):
    argv = [
        "decompose",
        "--config", str(GOLDEN / "decompose-config-v3.json"),
        "--kmax", "40",
        "--components", str(GOLDEN / "decompose-components-v3.json"),
    ]
    _check(tmp_path, argv, "decompose-v3-k40.json")


def test_minform_off_lattice_24_matches_golden(tmp_path):
    argv = ["minform", "--config", str(GOLDEN / "minform-config-l120-k12.json")]
    _check(tmp_path, argv, "minform-l120-k12.json")


def test_probe_matches_golden(tmp_path):
    argv = ["probe", "--M", "2", "--rat", "0", "--surd", "1", "--p", "5", "--tmax", "15"]
    _check(tmp_path, argv, "probe-M2-p5-t15.json")


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["verify-identities", "--order", "60"], "verify-identities-o60.txt"),
        (["expand", "--name", "eta^2", "--order", "20"], "expand-eta2-o20.txt"),
        (["denoms", "--seed-instance", "m2", "--kmax", "40"], "denoms-m2-k40.txt"),
    ],
)
def test_text_format_matches_golden(tmp_path, argv, golden):
    forms.clear_cache()
    _check(tmp_path, [*argv, "--format", "text"], golden)
