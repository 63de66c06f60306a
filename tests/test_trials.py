"""The seeded trial loops: their failure path and their sampled stream.

Failures are forced by patching the per-trial check that each loop reads
from its module's globals, so the count and the first-failure text are
checked without a broken ring. The weak-duality stream is pinned by a
hash of every program and point pair that the loop hands to
``affine._weak_duality``, the unrendered check that ``assert_weak_duality``
renders; a passing weak-duality trial renders no text.
"""

from __future__ import annotations

import hashlib

import pytest

import ringlp.affine as affine
import ringlp.constructions as constructions
from ringlp import (
    SKEW_X,
    SKEW_Y,
    CheckReport,
    RingId,
    Sampler,
    from_int,
    identity_program_trials,
    identity_trials,
    no_central_between_trials,
    weak_duality_trials,
    zero,
)
from ringlp.affine import random_program
from ringlp.errors import require_int
from ringlp.reports import run_trials

from conftest import ALL_RINGS, make_gap_program, patch_in_every_module


def _fail_every_third_from_the_second(monkeypatch, module, name, failing_result):
    """Patch ``module.name`` so that calls 1, 4, 7, ... (0-based) return
    ``failing_result(call, *args)`` and every other call runs the original."""
    original = getattr(module, name)
    calls = []

    def patched(*args):
        calls.append(args)
        k = len(calls) - 1
        return failing_result(k, *args) if k % 3 == 1 else original(*args)

    monkeypatch.setattr(module, name, patched)
    return calls


def _fake_residuals(k, P, x, y):
    return from_int(P.ring, k), zero(P.ring)


def test_identity_trials_report_the_first_failure_with_its_points(monkeypatch, gap_int):
    calls = _fail_every_third_from_the_second(monkeypatch, affine, "_residuals", _fake_residuals)
    summary = identity_trials(gap_int, 10, seed=5)
    assert len(calls) == 10
    assert (summary.name, summary.trials, summary.failures) == ("identity_residuals", 10, 3)
    assert summary.first_failure == "x=['331'] y=['-400'] key=1 duality=0"
    assert not summary.passed


def test_identity_program_trials_report_the_first_failure_without_points(monkeypatch):
    calls = _fail_every_third_from_the_second(monkeypatch, affine, "_residuals", _fake_residuals)
    summary = identity_program_trials(RingId.RAT, 8, seed=5)
    assert len(calls) == 8
    assert (summary.name, summary.trials, summary.failures) == ("identity_residuals", 8, 3)
    assert summary.first_failure == "key=1 duality=0"


def test_weak_duality_trials_count_failed_and_inapplicable_reports(monkeypatch):
    def failing(k, P, x, y):
        if k == 1:
            return [], False, True, from_int(P.ring, -1), from_int(P.ring, 2)
        return ["forced"], True, True, None, None

    calls = _fail_every_third_from_the_second(monkeypatch, affine, "_weak_duality", failing)
    summary = weak_duality_trials(RingId.INT, 9, seed=2)
    assert len(calls) == 9
    assert (summary.name, summary.trials, summary.failures) == ("weak_duality", 9, 3)
    assert summary.first_failure == (
        "gap = -1; s.x + y.t = 2; IMPLEMENTATION BUG: negative gap on a feasible pair"
    )


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_a_passing_weak_duality_trial_renders_no_text(monkeypatch, ring):
    rendered = []
    original = affine.to_text

    def counting(e):
        rendered.append(e)
        return original(e)

    monkeypatch.setattr(affine, "to_text", counting)
    assert weak_duality_trials(ring, 20, 1).passed
    assert rendered == []


def test_no_central_between_trials_report_the_first_failure(monkeypatch):
    def failing(k, a, b, z):
        return CheckReport("no_central_between", False, True, (f"call {k}", "forced"))

    calls = _fail_every_third_from_the_second(
        monkeypatch, constructions, "no_central_between_check", failing
    )
    summary = no_central_between_trials(SKEW_X, SKEW_Y, 7, 9)
    assert len(calls) == 7
    assert (summary.name, summary.trials, summary.failures) == ("no_central_between", 7, 2)
    assert summary.first_failure == "call 1; forced"


def _entry_text(e) -> str:
    return f"{e.ring.value}:{e.payload!r}"


# sha256 of every (program, x, y) handed to the weak-duality check by the first
# 50 trials of each ring at seeds 0, 1 and 2, payload types included
WEAK_DUALITY_STREAM_SHA256 = "86a226dbc54f9685680dbcf6984046557f109fcc51eb710fdc70b98f430e69a1"


def test_weak_duality_trials_hand_the_same_programs_and_points(monkeypatch):
    digest = hashlib.sha256()
    original = affine._weak_duality

    def recording(P, x, y):
        parts = [P.ring.value, str(P.rows), str(P.cols)]
        for part in (P.A.entries, P.b.entries, P.c.entries, (P.d,), x.entries, y.entries):
            parts.append(",".join(_entry_text(e) for e in part))
        digest.update(("|".join(parts) + "\n").encode())
        return original(P, x, y)

    monkeypatch.setattr(affine, "_weak_duality", recording)
    for ring in ALL_RINGS:
        for seed in range(3):
            assert weak_duality_trials(ring, 50, seed).passed
    assert digest.hexdigest() == WEAK_DUALITY_STREAM_SHA256


def test_a_shape_draw_takes_the_steps_of_two_checked_draws():
    twin, sampler = Sampler(11), Sampler(11)
    for _ in range(200):
        assert sampler.shape_draw() == (twin.draw_int(1, 3), twin.draw_int(1, 3))


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_random_programs_take_every_shape_up_to_three_by_three(ring):
    """The shape bound is fixed at 3 x 3, and every shape within it occurs."""
    sampler = Sampler(17)
    shapes = {(P.A.rows, P.A.cols) for P in (random_program(sampler, ring) for _ in range(100))}
    assert shapes == {(m, n) for m in (1, 2, 3) for n in (1, 2, 3)}


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_a_random_program_draws_its_shape_before_its_entries(ring):
    for seed in range(20):
        P = random_program(Sampler(seed), ring)
        assert (P.A.rows, P.A.cols) == Sampler(seed).shape_draw()


@pytest.mark.parametrize("knob", ["max_rows", "max_cols"])
@pytest.mark.parametrize(
    "run",
    [
        lambda **knob: random_program(Sampler(1), RingId.INT, **knob),
        lambda **knob: identity_program_trials(RingId.INT, 1, 1, **knob),
        lambda **knob: weak_duality_trials(RingId.INT, 1, 1, **knob),
    ],
    ids=["random_program", "identity_program_trials", "weak_duality_trials"],
)
def test_the_trial_loops_refuse_a_shape_bound_by_name(run, knob):
    """The shape is fixed, so a caller's bound is an error, not ignored."""
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{knob}'"):
        run(**{knob: 3})


def test_a_shape_draw_takes_no_bounds():
    sampler = Sampler(1)
    with pytest.raises(TypeError, match="positional argument"):
        sampler.shape_draw(3, 3)
    assert sampler.state == Sampler(1).state


def _recording_require_int(monkeypatch) -> list:
    """The names that ``require_int`` checks from here on, in every
    ``ringlp`` module that imports it."""
    checked = []

    def recording(name, value, least=None):
        checked.append(name)
        require_int(name, value, least)

    patch_in_every_module(monkeypatch, require_int, recording)
    return checked


@pytest.mark.parametrize("loop", [identity_program_trials, weak_duality_trials])
def test_trial_loops_check_their_arguments_once_not_per_trial(monkeypatch, loop):
    """The seed and the trial count are checked once per run; each trial
    draws its shape unchecked, not through ``draw_int``."""
    checked = _recording_require_int(monkeypatch)

    def unchecked_draws_only(self, lo, hi):
        raise AssertionError("a trial drew its shape through draw_int")

    monkeypatch.setattr(Sampler, "draw_int", unchecked_draws_only)
    runs = []
    for trials in (1, 12):
        checked.clear()
        assert loop(RingId.RAT, trials, seed=3).passed
        runs.append(sorted(checked))
    assert runs == [["seed", "trials"]] * 2


class _Drawn(Exception):
    """Raised by the first draw: the count was accepted and the loop began."""


def _draw(*args):
    raise _Drawn


@pytest.mark.parametrize(
    "loop",
    [
        lambda trials: identity_trials(make_gap_program(), trials, seed=1),
        lambda trials: identity_program_trials(RingId.INT, trials, seed=1),
        lambda trials: weak_duality_trials(RingId.INT, trials, seed=1),
        lambda trials: no_central_between_trials(SKEW_X, SKEW_Y, trials, seed=1),
        lambda trials: run_trials("bounded", trials, Sampler(1), lambda sampler: sampler.sample(RingId.INT)),
    ],
    ids=["identity", "identity_program", "weak_duality", "no_central_between", "run_trials"],
)
def test_a_trial_count_past_100000_is_refused_before_any_draw(monkeypatch, loop):
    """The count is bounded where every loop checks it, so a mistyped count
    fails at once; the bound itself is accepted, which the first draw shows
    without running the trials."""
    for draw in ("sample", "sample_central", "shape_draw"):
        monkeypatch.setattr(Sampler, draw, _draw)
    with pytest.raises(ValueError, match="^trials must be at most 100000$"):
        loop(100_001)
    with pytest.raises(_Drawn):
        loop(100_000)
