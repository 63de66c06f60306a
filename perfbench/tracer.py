"""Per-layer tracing of ringlp, installed from the benchmark's own files.

The tracer wraps the public functions of each layer module (and the public
methods of ``sampling.Sampler``) with timing and counting wrappers. Every
``ringlp.*`` module that bound a wrapped function by name
(``from .rings import add``) gets the wrapper in place of the original, so
each call site is seen. ``uninstall`` puts every original back.

Each call of a non-ring layer records one span: name, parent span, start,
end, phase (set-up or job) and job index. Spans sit in flat arrays in
memory and are written out once, at the end. Ring-kernel calls are only
aggregated into per-function counts and self time, because a scan makes
millions of them. A function's self time is its duration minus the time
of the traced calls it made.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = (
    "rings",
    "linalg",
    "affine",
    "enumeration",
    "sampling",
    "progfile",
    "constructions",
)
# Classes whose public methods belong to the layer boundary: the sampler is
# how affine, constructions and the CLI draw elements.
LAYER_CLASSES = {"sampling": ("Sampler",)}
# The box-scan entry points; a feasibility check made directly inside one of
# them is one scanned grid point.
SCAN_FUNCTIONS = (
    "enumeration.enumerate_primal",
    "enumeration.enumerate_dual",
    "enumeration.feasible_primal_points",
    "enumeration.feasible_dual_points",
)
FEASIBILITY_FUNCTIONS = ("affine.is_primal_feasible", "affine.is_dual_feasible")
RING_OPS = ("add", "mul", "sign", "compare")
TIMED_RING_OPS = ("add", "mul")

PHASE_SETUP = 0
PHASE_JOB = 1

_clock = time.perf_counter_ns


def _public_callables(module):
    """(qualified name, owner, attribute, function) for each wrapped callable."""
    layer = module.__name__.rsplit(".", 1)[1]
    names = getattr(module, "__all__", None) or [
        n for n in vars(module) if not n.startswith("_")
    ]
    out = []
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((f"{layer}.{name}", module, name, obj))
    for cls_name in LAYER_CLASSES.get(layer, ()):
        cls = getattr(module, cls_name)
        for name, obj in vars(cls).items():
            if inspect.isfunction(obj) and not name.startswith("_"):
                out.append((f"{layer}.{cls_name}.{name}", cls, name, obj))
    return out


class Tracer:
    """Wraps ringlp's layers, records spans and aggregates counts."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters = dict.fromkeys(
            (
                "rings.elements_built",
                "linalg.vectors_built",
                "affine.feasibility_checks",
                "affine.feasible",
                "enumeration.grid_values",
                "enumeration.points_scanned",
                "enumeration.feasible_points",
                "constructions.checks",
            ),
            0,
        )
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_phase = array("B")
        self.span_job = array("i")
        self.phase = PHASE_SETUP
        self.job = -1
        # frame: [name id, start ns, child ns, own span or -1, enclosing span]
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        from ringlp import linalg, reports, rings

        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "ringlp"]
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"ringlp.{layer}"]
            for qualname, owner, attr, fn in _public_callables(module):
                wrapper = self._wrap(qualname, layer, fn)
                replacements[id(fn)] = wrapper
                self._patch(owner, attr, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patch(module, attr, replacements[id(value)])
        self._count_init(rings.RingElement, "rings.elements_built")
        self._count_init(linalg.RVector, "linalg.vectors_built")
        self._count_check_reports(reports.CheckReport)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_init(self, cls, counter: str) -> None:
        original = cls.__init__
        counters = self.counters

        def __init__(obj, *args, **kwargs):
            counters[counter] += 1
            original(obj, *args, **kwargs)

        self._patch(cls, "__init__", __init__)

    def _count_check_reports(self, cls) -> None:
        """constructions.checks: reports built while a constructions call is innermost."""
        original = cls.__init__
        counters = self.counters
        stack = self._stack
        layer_of = self.layer_of

        def __init__(obj, *args, **kwargs):
            if stack and layer_of[stack[-1][0]] == "constructions":
                counters["constructions.checks"] += 1
            original(obj, *args, **kwargs)

        self._patch(cls, "__init__", __init__)

    def _wrap(self, qualname: str, layer: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        after = self._after_hook(qualname)

        if layer == "rings":

            def ring_wrapper(*args, **kwargs):
                frame = [nid, _clock(), 0, -1, stack[-1][4] if stack else -1]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = _clock() - frame[1]
                    stack.pop()
                    calls[nid] += 1
                    self_ns[nid] += duration - frame[2]
                    if stack:
                        stack[-1][2] += duration

            ring_wrapper.__wrapped__ = fn
            return ring_wrapper

        names_a, parent_a = self.span_name, self.span_parent
        start_a, end_a = self.span_start, self.span_end
        phase_a, job_a = self.span_phase, self.span_job

        def span_wrapper(*args, **kwargs):
            parent = stack[-1][4] if stack else -1
            index = len(names_a)
            start = _clock()
            names_a.append(nid)
            parent_a.append(parent)
            start_a.append(start)
            end_a.append(start)
            phase_a.append(self.phase)
            job_a.append(self.job)
            frame = [nid, start, 0, index, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                end_a[index] = end
                calls[nid] += 1
                self_ns[nid] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if after is not None:
                after(result, stack[-1][0] if stack else -1)
            return result

        span_wrapper.__wrapped__ = fn
        return span_wrapper

    def _after_hook(self, qualname: str):
        counters = self.counters
        names = self.names
        if qualname == "enumeration.candidate_values":

            def grid(result, parent):
                counters["enumeration.grid_values"] += len(result)

            return grid
        if qualname in FEASIBILITY_FUNCTIONS:

            def feasibility(verdict, parent):
                counters["affine.feasibility_checks"] += 1
                counters["affine.feasible"] += verdict.feasible
                if parent >= 0 and names[parent] in SCAN_FUNCTIONS:
                    counters["enumeration.points_scanned"] += 1
                    counters["enumeration.feasible_points"] += verdict.feasible

            return feasibility
        return None

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, named ``<layer>.<quantity>``."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            ids = [i for i, lay in enumerate(self.layer_of) if lay == layer]
            out[f"{layer}.calls"] = sum(self.calls[i] for i in ids)
            out[f"{layer}.self_s"] = sum(self.self_ns[i] for i in ids) / 1e9
        by_name = {n: i for i, n in enumerate(self.names)}
        for op in RING_OPS:
            i = by_name[f"rings.{op}"]
            out[f"rings.{op}.calls"] = self.calls[i]
            if op in TIMED_RING_OPS:
                out[f"rings.{op}.self_s"] = self.self_ns[i] / 1e9
        c = self.counters
        for key in (
            "rings.elements_built",
            "linalg.vectors_built",
            "affine.feasibility_checks",
            "enumeration.grid_values",
            "enumeration.points_scanned",
            "enumeration.feasible_points",
            "constructions.checks",
        ):
            out[key] = c[key]
        checks = c["affine.feasibility_checks"]
        out["affine.feasible_ratio"] = c["affine.feasible"] / checks if checks else 0.0
        return out

    def job_span_counts(self) -> dict[str, int]:
        """Spans per layer recorded while a job ran (set-up excluded)."""
        out = dict.fromkeys(LAYERS, 0)
        for nid, phase in zip(self.span_name, self.span_phase):
            if phase == PHASE_JOB:
                out[self.layer_of[nid]] += 1
        return out

    def write(self, stem: Path) -> None:
        """Write the spans as ``<stem>.bin`` and a JSON index as ``<stem>.json``.

        The binary file holds six little-endian arrays one after the other:
        name id (u16), parent span (i32, -1 for none), start and end (i64 ns),
        phase (u8, 0 set-up, 1 job) and job index (i32, -1 in set-up).
        """
        stem.parent.mkdir(parents=True, exist_ok=True)
        arrays = (
            self.span_name,
            self.span_parent,
            self.span_start,
            self.span_end,
            self.span_phase,
            self.span_job,
        )
        with open(stem.with_suffix(".bin"), "wb") as handle:
            for arr in arrays:
                if sys.byteorder != "little":
                    arr = array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(handle)
        index = {
            "spans": len(self.span_name),
            "arrays": [
                ["name", "H"],
                ["parent", "i"],
                ["start_ns", "q"],
                ["end_ns", "q"],
                ["phase", "B"],
                ["job", "i"],
            ],
            "names": self.names,
            "layers": self.layer_of,
            "calls": self.calls,
            "self_ns": self.self_ns,
            "counters": self.counters,
        }
        stem.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n")
