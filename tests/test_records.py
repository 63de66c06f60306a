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
    classify_edt,
    from_int,
)
from ringlp._records import record

from conftest import make_gap_program

_ONE = from_int(RingId.INT, 1)
_STATUS = ProgramStatus(StatusKind.INFEASIBLE, Scope.BOX_LIMITED)

# (class, the arguments without a default, {field: default})
RECORDS = [
    (RingElement, lambda: (RingId.INT, 3), {}),
    (
        RingDescriptor,
        lambda: (RingId.INT, True, False, _ONE, _ONE, "p:", str, str),
        dict.fromkeys(("scalar", "const")),
    ),
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
    """The record's fields: its annotated names."""
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


def test_a_scan_keeps_nothing_on_the_program():
    """A box scan builds its integer form per call and keeps none of it:
    the scanned program stays equal to, hashed, shown and pickled like a
    fresh one, has no attribute beyond its fields and still refuses one."""
    scanned, fresh = make_gap_program(RingId.RAT), make_gap_program(RingId.RAT)
    classify_edt(scanned, BoxSpec(2, 2))
    assert scanned == fresh and hash(scanned) == hash(fresh)
    assert repr(scanned) == repr(fresh)
    assert pickle.dumps(scanned) == pickle.dumps(fresh)
    assert copy.deepcopy(scanned) == fresh
    assert not hasattr(scanned, "__dict__") and not hasattr(scanned, "_form")
    with pytest.raises(AttributeError):
        scanned._form = None


def test_a_class_body_declaring_slots_is_refused():
    """A record's fields are its only slots, so a class body that declares
    ``__slots__`` is refused, with the class named, instead of losing them."""

    class Cached:
        a: int
        b: int
        __slots__ = ("_cache",)

    with pytest.raises(TypeError, match="Cached declares __slots__"):
        record(Cached)


def test_a_class_with_one_field_is_refused():
    class Single:
        a: int

    with pytest.raises(TypeError, match="record Single needs at least two fields"):
        record(Single)
