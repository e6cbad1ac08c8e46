"""Frozen records: construction, immutability, equality, repr, replace and JSON.

The engine's plain data types derive from ``vvmf2.record.Record`` in
place of ``@dataclass(frozen=True)``; these tests pin the behaviour the
package relies on against the stdlib dataclass it replaced.
"""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

from vvmf2.cli import DEFAULT_KMAX, RunConfig
from vvmf2.denoms import DEFAULT_FACTOR_BOUND, PrimeSummary
from vvmf2.params import ExponentData, InstanceParams, seed_exponents
from vvmf2.qseries import to_json
from vvmf2.quadratic import HalfForm, QuadNum
from vvmf2.record import Record, replace

SRC = Path(__file__).resolve().parent.parent / "src"


class Point(Record):
    x: int
    y: Fraction
    label: str = "p"


class Pair(Record):
    x: int
    y: Fraction
    label: str = "p"


@dataclass(frozen=True)
class PointDC:
    x: int
    y: Fraction
    label: str = "p"


def test_fields_are_the_annotations_in_order_and_a_class_attribute_is_a_default():
    assert Point._fields == ("x", "y", "label")
    assert Point(1, Fraction(1, 2)).label == "p"
    assert Point(1, y=2, label="q") == Point(label="q", y=2, x=1)


class Base(Record):
    x: int
    tag: str = "base"


class Derived(Base):
    y: int = 0


def test_a_subclass_record_keeps_the_inherited_fields_and_defaults():
    @dataclass(frozen=True)
    class DBase:
        x: int
        tag: str = "base"

    @dataclass(frozen=True)
    class DDerived(DBase):
        y: int = 0

    assert Derived._fields == ("x", "tag", "y") == tuple(DDerived.__dataclass_fields__)
    d = Derived(1, "t", 2)
    assert d == Derived(y=2, tag="t", x=1) and hash(d) == hash(Derived(1, "t", 2))
    assert Derived(1) == Derived(1, "base", 0) != Base(1)
    assert repr(d) == "Derived(x=1, tag='t', y=2)"
    assert replace(d, x=5) == Derived(5, "t", 2)
    assert Base._fields == ("x", "tag")


def test_assigning_or_deleting_an_attribute_raises():
    pt = Point(1, Fraction(1, 2))
    for name in ("x", "label", "other"):
        with pytest.raises(AttributeError):
            setattr(pt, name, 3)
        with pytest.raises(AttributeError):
            delattr(pt, name)
    assert (pt.x, pt.label) == (1, "p")


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((1,), {}),  # y missing
        ((1, 2, "a", 4), {}),  # one argument too many
        ((1, 2), {"z": 3}),  # unknown field
        ((1, 2), {"x": 3}),  # x given twice
        ((), {"y": 2}),  # x missing
    ],
)
def test_a_missing_extra_or_repeated_argument_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_equality_and_hash_follow_the_fields_and_the_class():
    a, b = Point(1, Fraction(1, 2)), Point(1, Fraction(2, 4), "p")
    assert a == b and hash(a) == hash(b)
    assert a != Point(1, Fraction(1, 3)) and a != Point(1, Fraction(1, 2), "q")
    assert a != Pair(1, Fraction(1, 2))  # the same fields in another class
    assert a != (1, Fraction(1, 2), "p")
    assert len({a, b, Pair(1, Fraction(1, 2))}) == 2


def test_a_record_with_no_fields_is_a_value():
    class Empty(Record):
        pass

    @dataclass(frozen=True)
    class EmptyDC:
        pass

    a, b = Empty(), Empty()
    assert Empty._fields == () and Empty._key(a) == ()
    assert a == b and hash(a) == hash(b) == hash(())
    assert a != Point(1, Fraction(1, 2)) and len({a, b}) == 1
    assert repr(a) == repr(EmptyDC()).replace("EmptyDC", "Empty")
    assert replace(a) == a and to_json(a) == {}
    with pytest.raises(TypeError):
        Empty(1)


def test_the_hash_is_computed_once_and_stays_out_of_the_fields():
    class Counted:
        calls = 0

        def __hash__(self):
            Counted.calls += 1
            return 7

    rec = Point(1, Counted())
    assert hash(rec) == hash(rec) == hash((1, rec.y, "p"))
    assert Counted.calls == 2  # once for the record, once for the plain tuple
    assert to_json(rec) == {"x": 1, "y": rec.y, "label": "p"} and rec == replace(rec)


def test_an_explicit_eq_keeps_the_field_hash():
    class Loose(Record):
        x: int
        y: int

        def __eq__(self, other):
            return isinstance(other, Loose) and self.x == other.x

    assert Loose(1, 2) == Loose(1, 3)
    assert hash(Loose(1, 2)) == hash(Loose(1, 2)) != hash(Loose(1, 3))
    # QuadNum keeps its own hash: a zero-surd value hashes as its rational
    assert hash(QuadNum(Fraction(1, 3), 0, 2)) == hash(Fraction(1, 3))


def test_repr_is_the_dataclass_repr():
    for args in ((1, Fraction(1, 2)), (-3, Fraction(7), "it's")):
        assert repr(Point(*args)) == repr(PointDC(*args)).replace("PointDC", "Point")
    assert repr(HalfForm(1, 2, 3, 5)) == "HalfForm(Z=1, x=2, y=3, M=5)"


def test_post_init_runs_and_replace_runs_it_again():
    cfg = RunConfig(seed_exponents("m2"))
    assert (cfg.kmax, cfg.factor_bound) == (DEFAULT_KMAX, DEFAULT_FACTOR_BOUND)
    moved = replace(cfg, kmax=7, factor_bound=99)
    assert (moved.kmax, moved.factor_bound, moved.exponents) == (7, 99, cfg.exponents)
    assert cfg.kmax == DEFAULT_KMAX
    with pytest.raises(ValueError, match="Kmax must be >= 0"):
        replace(cfg, kmax=-1)
    with pytest.raises(TypeError):
        replace(cfg, kmaxx=3)


def test_quadnum_checks_its_field_and_converts_its_parts():
    with pytest.raises(ValueError, match="square-free"):
        QuadNum(1, 0, 4)
    z = QuadNum(1, 2, 3)
    assert type(z.rat) is Fraction and type(z.surd) is Fraction
    assert (z.rat, z.surd, z.M) == (1, 2, 3)
    assert QuadNum(rat=1, surd=2, M=3) == z
    with pytest.raises(AttributeError):
        z.rat = Fraction(2)


def test_a_cached_property_is_kept_outside_the_fields():
    class Lazy(Record):
        n: int

        @cached_property
        def square(self):
            return [self.n * self.n]

    rec = Lazy(3)
    assert rec.square is rec.square and rec.square == [9]
    assert rec == Lazy(3) and hash(rec) == hash(Lazy(3))
    assert to_json(rec) == {"n": 3}
    assert "square" not in vars(replace(rec))


def test_to_json_of_a_record_is_the_field_keyed_object():
    assert to_json(PrimeSummary(11, 5, None, "pass")) == {
        "p": 11, "first_division_K": 5, "expected_K": None, "verdict": "pass"
    }
    e = seed_exponents("m2")
    assert to_json(e) == {
        "k0": 0,
        "l1": "0",
        "l2": "1/2",
        "r1": {"rat": "0", "surd": "1", "M": 2},
        "r2": {"rat": "0", "surd": "-1", "M": 2},
    }
    cfg = to_json(RunConfig(e, kmax=3))
    assert cfg == {"exponents": to_json(e), "kmax": 3, "factor_bound": 10**6}
    assert list(cfg) == ["exponents", "kmax", "factor_bound"]
    assert isinstance(e, Record) and isinstance(e, ExponentData)


def test_the_package_imports_without_the_dataclass_machinery():
    # the start-up gain of Record: none of these modules is loaded by the package or its CLI
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = (
        "import sys, vvmf2, vvmf2.cli\n"
        f"loaded = sorted(m for m in {heavy!r} if m in sys.modules)\n"
        "import json\n"
        "fields = [vvmf2.params.InstanceParams._fields, vvmf2.cli.RunConfig._fields]\n"
        "print(json.dumps([loaded, *fields]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, params_fields, config_fields = json.loads(proc.stdout)
    assert loaded == []
    # the fields come from the class annotations, in declaration order, on every Python version
    assert params_fields == ["k0", "a", "b", "c", "l1", "l2", "r", "A", "B", "M", "u", "v"]
    assert config_fields == ["exponents", "kmax", "factor_bound"]
    assert [p.name for p in (SRC / "vvmf2").glob("*.py") if "dataclasses" in p.read_text()] == []


def test_importing_the_package_loads_only_its_errors():
    # the top level re-exports nothing: a subcommand compiles only the modules it imports
    code = "import sys, vvmf2\nprint(sorted(m for m in sys.modules if m.startswith('vvmf2.')))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['vvmf2.errors']"]
