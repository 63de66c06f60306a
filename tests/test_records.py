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
    is_primal_feasible,
    zero_vector,
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
    (ProgramData, lambda: _fields(make_gap_program()), {}),
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


def _names(cls) -> tuple:
    """The record's fields: its annotated names, not its private derived slots."""
    return tuple(cls.__annotations__)


def _fields(obj) -> tuple:
    return tuple(getattr(obj, f) for f in _names(type(obj)))


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
    twin = record(type(cls.__name__, (), {"__annotations__": dict.fromkeys(_names(cls))}))
    b = twin(*_fields(a))
    assert _fields(b) == _fields(a)
    assert a != b and b != a
    assert a != _fields(a)


@pytest.mark.parametrize("cls,required,defaults", RECORDS, ids=IDS)
def test_fields_are_frozen_and_slotted(cls, required, defaults):
    a = cls(*required())
    for name in _names(cls):
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
    assert len(args) + len(defaults) == len(_names(cls))
    assert cls(**dict(zip(_names(cls), args))) == a
    assert cls(*_fields(a)) == a
    for name, value in defaults.items():
        assert getattr(a, name) == value
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, **{_names(cls)[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, unknown_field=1)


def test_default_repr_names_every_field():
    assert repr(BoxSpec(3)) == "BoxSpec(bound=3, denominator_bound=None)"
    assert repr(CheckReport("c", False)) == (
        "CheckReport(name='c', passed=False, applicable=True, details=())"
    )


def _judged_and_fresh() -> tuple[ProgramData, ProgramData]:
    """Two equal RAT programs: the first has built its integer form in one
    verdict, the second has not."""
    judged, fresh = make_gap_program(RingId.RAT), make_gap_program(RingId.RAT)
    is_primal_feasible(judged, zero_vector(RingId.RAT, judged.cols))
    assert hasattr(judged, "_form") and not hasattr(fresh, "_form")
    return judged, fresh


def test_a_built_integer_form_is_invisible_to_equality_hash_and_repr():
    judged, fresh = _judged_and_fresh()
    assert judged == fresh and fresh == judged
    assert hash(judged) == hash(fresh)
    assert repr(judged) == repr(fresh)


def test_a_program_with_its_form_pickles_and_copies_by_its_fields():
    judged, fresh = _judged_and_fresh()
    assert pickle.loads(pickle.dumps(judged)) == judged
    assert copy.deepcopy(judged) == judged
    assert pickle.dumps(judged) == pickle.dumps(fresh)


def test_the_integer_form_is_not_an_argument_and_cannot_be_assigned():
    judged, fresh = _judged_and_fresh()
    with pytest.raises(TypeError):
        ProgramData(*_fields(fresh), _form=None)
    with pytest.raises(TypeError):
        ProgramData(**dict(zip(_names(ProgramData), _fields(fresh))), _form=None)
    for program in (judged, fresh):
        with pytest.raises(AttributeError):
            program._form = None
        with pytest.raises(AttributeError):
            del program._form
    assert hasattr(judged, "_form") and not hasattr(fresh, "_form")
