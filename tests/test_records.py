"""The record types: the frozen records are ``NamedTuple``s with value
semantics and dataclass-style reprs, the three classes with behaviour in
``__init__`` or mutable fields are plain classes, and ``import kring``
loads neither ``dataclasses`` nor the modules it pulls in."""

import dataclasses
from fractions import Fraction

import pytest

from kring import DomainError, FiltrationSpec, Subspace, VerificationReport
from kring.adams import ChernClass
from kring.filtration import FiltrationResult
from kring.model import ValidationReport, Violation
from kring.operators import DiagonalOperator, PushforwardRelation
from kring.reports import Statement, _Run
from tests.conftest import model, run_python

F = Fraction


def _cases():
    """One instance's field values per record type, by position."""
    m = model("theta", 2)
    e = m.basis_element(1)
    space = Subspace.span(m.dim, [e.nums])
    return [
        (Violation, ("unit", "no unit", (1, 2))),
        (ValidationReport, ((Violation("unit", "no unit"),),)),
        (ChernClass, (e, (e, m.zero()))),
        (DiagonalOperator, (m, (1, 2, 4, 2, 1, 2), 3)),
        (PushforwardRelation, (2, 1, (F(1), F(-1, 2), F(1, 2)))),
        (FiltrationResult, ("saturation", (space,), ((1,),))),
        (Statement, ("conj-x", "fail", "a detail", "(e1, e2)")),
    ]


CASES = _cases()
IDS = [cls.__name__ for cls, _ in CASES]


def _dataclass_twin(cls):
    """The frozen dataclass ``cls`` replaced: same name, fields, defaults."""
    defaults = cls._field_defaults
    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object)
            for f in cls._fields
        ],
        frozen=True,
    )


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_records_construct_by_position_and_keyword(cls, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert by_position == by_keyword
    for field, value in zip(cls._fields, values):
        assert getattr(by_keyword, field) is value


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_records_compare_hash_and_print_as_the_dataclasses_did(cls, values):
    record, twin = cls(*values), _dataclass_twin(cls)(*values)
    assert record == cls(*values)
    assert repr(record) == repr(twin)
    try:
        expected = hash(twin)
    except TypeError:  # an unhashable field (a dict or an Element)
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values)) == expected
    changed = list(values)
    changed[0] = "another value"
    assert record != cls(*changed)


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_records_are_immutable(cls, values):
    record = cls(*values)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_record_defaults():
    assert Statement("s", "pass").detail == ""
    assert Statement("s", "pass").witness == ""
    assert Violation("code", "message").witness == ()


def test_filtration_spec_rejects_an_unknown_kind():
    assert FiltrationSpec("Gamma").kind == "Gamma"
    with pytest.raises(DomainError, match="bogus"):
        FiltrationSpec("bogus")


def test_mutable_report_classes():
    first = VerificationReport("verify", {}, {})
    second = VerificationReport(command="verify", model={}, config={})
    first.add(Statement("s", "pass"))
    assert first.statements == [Statement("s", "pass")] and second.statements == []
    assert first.timings is None
    first.timings = {"total": 0.5}
    assert first.to_dict()["timings"] == {"total": 0.5}
    run = _Run(model("theta", 1), 3)
    run.fil["gamma"] = None
    assert _Run(run.model, 3).fil == {}


GUARDED = ("dataclasses", "inspect", "ast")


def test_import_kring_loads_no_dataclasses():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import kring\n"
        "print(*sorted(set(sys.modules) - before))\n"
        f"print(*[m for m in {GUARDED!r} if m in before])\n"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    loaded, preloaded = (line.split() for line in done.stdout.splitlines())
    assert "kring" in loaded and not preloaded
    assert not set(GUARDED) & set(loaded)
