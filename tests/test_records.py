"""Value semantics of every record class: immutable, slotted, compared by value."""

from __future__ import annotations

import copy
import pickle

import pytest

from ringlp import (
    AxiomReport,
    AxiomViolation,
    BoxSpec,
    BundleKind,
    CheckReport,
    CounterexampleBundle,
    EdtReport,
    FeasibilityVerdict,
    ProgramData,
    ProgramStatus,
    RingDescriptor,
    RingElement,
    RingId,
    RMatrix,
    RVector,
    Scope,
    SequenceRole,
    StatusKind,
    TrialSummary,
    WitnessSequence,
    from_int,
)
from ringlp._records import record
from ringlp.progfile import _Token
from ringlp.rings import _RingSpec

from conftest import make_gap_program

_ONE = from_int(RingId.INT, 1)
_STATUS = ProgramStatus(StatusKind.INFEASIBLE, Scope.BOX_LIMITED)

# (class, the arguments without a default, {field: default})
RECORDS = [
    (RingElement, lambda: (RingId.INT, 3), {}),
    (RingDescriptor, lambda: (RingId.INT, True, False, _ONE), {"is_enumerable": False}),
    (_RingSpec, lambda: ("p:", str, str), dict.fromkeys(("scalar", "const", "mono_text"))),
    (RVector, lambda: (RingId.INT, (_ONE, _ONE)), {}),
    (RMatrix, lambda: (RingId.INT, 1, 2, (_ONE, _ONE)), {}),
    (ProgramData, lambda: tuple(getattr(make_gap_program(), f) for f in ProgramData.__slots__), {}),
    (FeasibilityVerdict, lambda: (False,), {"violated_row": None, "violation_kind": None}),
    (BoxSpec, lambda: (4,), {"denominator_bound": None}),
    (ProgramStatus, lambda: (StatusKind.OPTIMAL, Scope.EXHAUSTIVE), dict.fromkeys(("witness", "value", "note"))),
    (EdtReport, lambda: (None, False, _STATUS, _STATUS, None, "details"), {}),
    (CheckReport, lambda: ("check", True), {"applicable": True, "details": ()}),
    (AxiomViolation, lambda: ("kind", ("w",)), {}),
    (AxiomReport, lambda: (RingId.INT, 10, 1, 20, 30, ()), {}),
    (TrialSummary, lambda: ("trial", 5, 0), {"first_failure": None}),
    (_Token, lambda: ("ring", 1, 1), {}),
    (WitnessSequence, lambda: (RingId.INT, SequenceRole.PRIMAL_IMPROVING, (), ()), {}),
    (
        CounterexampleBundle,
        lambda: (BundleKind.GAP, make_gap_program(), "claim"),
        {
            "primal_witnesses": (),
            "dual_witnesses": (),
            "primal_optimum": None,
            "dual_optimum": None,
            "gap_value": None,
            "sequence": None,
            "notes": (),
            "checks": (),
        },
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _fields(obj) -> tuple:
    return tuple(getattr(obj, f) for f in type(obj).__slots__)


@pytest.mark.parametrize("cls,required,defaults", RECORDS, ids=IDS)
def test_equal_fields_are_equal_and_hash_alike(cls, required, defaults):
    a, b = cls(*required()), cls(*required())
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.deepcopy(a) == a


@pytest.mark.parametrize("cls,required,defaults", RECORDS, ids=IDS)
def test_equality_is_class_exact(cls, required, defaults):
    a = cls(*required())
    twin = record(type(cls.__name__, (), {"__annotations__": dict.fromkeys(cls.__slots__)}))
    b = twin(*_fields(a))
    assert _fields(b) == _fields(a)
    assert a != b and b != a
    assert a != _fields(a)


@pytest.mark.parametrize("cls,required,defaults", RECORDS, ids=IDS)
def test_fields_are_frozen_and_slotted(cls, required, defaults):
    a = cls(*required())
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("cls,required,defaults", RECORDS, ids=IDS)
def test_keyword_construction_and_defaults(cls, required, defaults):
    args = required()
    a = cls(*args)
    assert len(args) + len(defaults) == len(cls.__slots__)
    assert cls(**dict(zip(cls.__slots__, args))) == a
    assert cls(*_fields(a)) == a
    for name, value in defaults.items():
        assert getattr(a, name) == value
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, **{cls.__slots__[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, unknown_field=1)


def test_default_repr_names_every_field():
    assert repr(BoxSpec(3)) == "BoxSpec(bound=3, denominator_bound=None)"
    assert repr(CheckReport("c", False)) == (
        "CheckReport(name='c', passed=False, applicable=True, details=())"
    )
