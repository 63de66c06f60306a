"""Static guards on how the modules of ``src/ringlp`` depend on each other.

Per-ring facts live in ``rings.py`` (``RingDescriptor`` and the per-ring
records there); other modules read those facts instead of testing which
ring they hold. No module reaches into a sibling's private names. Inside
``rings.py`` one loop multiplies monomials: ``sum_of_products``. Inside
``constructions.py`` only ``verify_bundle`` scans a program again through
``certify_optimal_pair``. Inside ``affine.py`` only ``assert_weak_duality``
builds whole slacks for a verdict. Only ``enumeration``'s walk builds
vectors without the per-entry ring check, through ``linalg.grid_points``.
Inside ``enumeration.py`` the box scan ranks points by integer keys, so
only ``judge_optimal_pair`` compares ring elements and nothing builds a
grid value through the validating ``from_rational``.
The only module slot that a function rebinds is ``affine``'s tables slot,
so a scan hands its grid on by argument. All are checked by reading the
sources, without importing or running anything.
"""

from __future__ import annotations

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ringlp"
MODULES = sorted(SRC.glob("*.py"))
RING_IDENTITY_TEST = re.compile(r"(is|is not|in) \(?RingId\.")


def test_ring_identity_is_tested_only_in_rings():
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in MODULES
        if path.name != "rings.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if RING_IDENTITY_TEST.search(line)
    ]
    assert len(hits) <= 2, hits


def test_no_module_imports_a_private_name_from_a_sibling():
    private = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("ringlp")
            ):
                private += [
                    f"{path.name}: {alias.name} from {node.module}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not private, private


def _readers(path: pathlib.Path, name: str) -> set[str]:
    """The functions and classes of ``path`` that read ``name``, as a plain
    name or an attribute (``<module>`` for module level)."""
    readers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            read = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if read == name and isinstance(getattr(child, "ctx", None), ast.Load):
                readers.add(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return readers


def test_only_the_kernel_multiplies_monomials():
    """``sum_of_products`` works out each ring's monomial product inline, so
    it is the only function in ``rings.py`` that shifts SKEW's ``2^-s`` into
    a denominator, and term-ring ``mul`` is a one-pair call of it."""
    shifters = {
        function.name
        for function in ast.walk(ast.parse((SRC / "rings.py").read_text()))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
    }
    assert shifters == {"sum_of_products"}, shifters
    assert "mul" in _readers(SRC / "rings.py", "sum_of_products")


def _lines_matching(pattern: str) -> set[str]:
    return {
        path.name
        for path in MODULES
        for line in path.read_text().splitlines()
        if re.search(pattern, line)
    }


def test_primal_and_dual_sides_are_defined_only_in_affine():
    assert _lines_matching(r"^class _?Side\b") == {"affine.py"}


def test_only_the_shared_trial_loop_checks_the_trial_count():
    assert _lines_matching("trials must be positive") == {"reports.py"}


def test_only_verify_bundle_rescans_in_constructions():
    """Constructions judge the statuses they already scanned; only
    ``verify_bundle``, which re-checks a bundle from scratch, calls
    ``certify_optimal_pair`` and so scans both sides again."""
    callers = {
        function.name
        for function in ast.walk(ast.parse((SRC / "constructions.py").read_text()))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Name)
        and node.id == "certify_optimal_pair"
        and isinstance(node.ctx, ast.Load)
    }
    assert callers == {"verify_bundle"}, callers


def test_only_weak_duality_builds_slacks_for_a_verdict():
    """``affine._verdict`` builds the whole slack of a point. Only
    ``assert_weak_duality``, which reuses both slacks, reads it, so the
    per-point feasibility tests stay free of slack vectors."""
    readers = _readers(SRC / "affine.py", "_verdict")
    assert readers == {"assert_weak_duality"}, readers


def _readers_by_module(name: str) -> dict[str, set[str]]:
    return {path.name: found for path in MODULES if (found := _readers(path, name))}


def test_only_the_box_walk_builds_unchecked_points():
    """``linalg.grid_points`` checks the ring of the grid values once and
    then builds each point's vector without ``RVector``'s per-entry check.
    Only ``enumeration``'s walk calls it, and only its private generator
    builds vectors past ``RVector.__init__``."""
    assert _readers_by_module("grid_points") == {"enumeration.py": {"_feasible_walk"}}
    assert _readers_by_module("_unchecked_points") == {"linalg.py": {"grid_points"}}
    assert _readers_by_module("__new__") == {"linalg.py": {"_unchecked_points"}}


def test_the_box_scan_compares_no_ring_elements():
    """``enumeration``'s walk ranks points by integer keys and builds each
    grid value directly, so a per-point ``compare`` or ``from_rational``
    cannot creep back: only ``judge_optimal_pair``, which weighs a given
    candidate against a scan's best, reads ``compare``."""
    assert _readers(SRC / "enumeration.py", "compare") == {"judge_optimal_pair"}
    assert _readers(SRC / "enumeration.py", "from_rational") == set()


def test_only_the_tables_slot_is_rebound_by_a_function():
    """The one ``global`` statement under ``src/ringlp`` is ``affine._tables``'s,
    so no scan parks its state in a module slot for other calls to find."""
    rebinders = [
        f"{path.name}: {function.name} rebinds {', '.join(node.names)}"
        for path in MODULES
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Global)
    ]
    assert rebinders == ["affine.py: _tables rebinds _LAST"], rebinders
