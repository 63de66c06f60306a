from __future__ import annotations

import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from ringlp import ProgramData, RingElement, RingId, RMatrix, RVector, from_int, matrix, rings, vector

settings.register_profile(
    "ringlp",
    settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    ),
)
settings.load_profile("ringlp")

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

ALL_RINGS = tuple(RingId)
COMMUTATIVE_RINGS = (RingId.INT, RingId.RAT, RingId.ODDRAT, RingId.POLY)


def int_vector(ring: RingId, values) -> RVector:
    """The vector of ``from_int(ring, v)`` for each ``v``."""
    return vector(ring, (from_int(ring, v) for v in values))


def int_matrix(ring: RingId, rows) -> RMatrix:
    """The matrix of ``from_int(ring, v)`` for each ``v`` of each row."""
    return matrix(ring, ((from_int(ring, v) for v in row) for row in rows))


def make_gap_program(ring: RingId = RingId.INT, a: int = 2) -> ProgramData:
    """The 1x1 program A=[a], b=[1], c=[1], d=0."""
    return ProgramData(
        ring,
        int_matrix(ring, [[a]]),
        int_vector(ring, [1]),
        int_vector(ring, [1]),
        from_int(ring, 0),
    )


def make_edt_program(ring: RingId = RingId.INT, a: int = 2) -> ProgramData:
    """The 2x1 program A=[a, -a]^T, b=[1, -1], c=[0], d=0."""
    return ProgramData(
        ring,
        int_matrix(ring, [[a], [-a]]),
        int_vector(ring, [1, -1]),
        int_vector(ring, [0]),
        from_int(ring, 0),
    )


def patch_in_every_module(monkeypatch, original, replacement) -> None:
    """Rebind the function ``original`` to ``replacement`` in every
    ``ringlp`` module that imported it by name."""
    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "ringlp" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def counting_constructions(monkeypatch, built):
    """Count ``Fraction`` and ``RingElement`` constructions into ``built``.

    A ``Fraction`` is built through ``Fraction.__new__`` or by
    ``rings.reduced``; both are counted, the latter in every ``ringlp``
    module that imports it."""
    new, init, reduced = Fraction.__new__, RingElement.__init__, rings.reduced

    def counting_new(cls, *args, **kwargs):
        built["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counting_reduced(*args):
        built["Fraction"] += 1
        return reduced(*args)

    patch_in_every_module(monkeypatch, reduced, counting_reduced)

    def counting_init(self, *args):
        built["RingElement"] += 1
        init(self, *args)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(RingElement, "__init__", counting_init)


@pytest.fixture
def gap_int() -> ProgramData:
    return make_gap_program()


@pytest.fixture
def edt_int() -> ProgramData:
    return make_edt_program()
