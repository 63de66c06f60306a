"""Static guards on how the modules of ``src/ringlp`` depend on each other.

Per-ring facts live in ``rings.py``, in one record per ring,
``RingDescriptor``, and no other module keeps a table keyed by ring or
names a ring, but for the default-ring column of the CLI's demos; other
modules read those facts instead of testing which ring they hold. No
module reaches into a sibling's private names. Inside ``rings.py`` one
loop multiplies monomials and accumulates term-ring coefficients,
``sum_of_products``; ``add``, ``sub`` and ``mul`` are each one
call of it on every ring, reading no payload, and ``compare`` orders by
``sign``. Inside
``constructions.py`` only ``verify_bundle`` scans a program again through
``certify_optimal_pair``. Inside ``affine.py`` whole slacks are built for
a verdict only by ``_weak_duality``, the check ``assert_weak_duality``
renders, and by the two feasibility tests, one path on every ring; the
box scan's own walk, ``enumeration._feasible_walk``, which judges int
keys on lines it scales once, is read only by the side scan and the
point listing. ``linalg.py`` holds
containers and does no ring arithmetic, and ``ringlp`` exports none of the
products it used to. Every
vector goes through its checked constructor, and no module reads the
removed ``grid_points``. Every ``Fraction`` built from an integer pair comes from
``rings.reduced``, the one object built past its class's constructor,
outside parsing and the validating ``from_rational``.
Inside ``enumeration.py`` the box scan ranks points by integer keys, so
only ``judge_optimal_pair`` compares ring elements and nothing builds a
grid value through the validating ``from_rational``; the grid is int keys,
and its one key->element function alone builds a grid element, with no
test for INT. The integer form stores the columns negated, so neither a
verdict nor a scan carries a direction per side.
The box oracle reports only what it scanned: only ``constructions.py``,
which argues that its boxes suffice, marks a status ``Scope.EXHAUSTIVE``,
and no function takes an ``analytic_note``.
No function rebinds a module global: a scan hands its grid and its
integer form on by argument, and keeps neither on the program. Only
``enumeration.py`` imports ``lcm``, so the scaling to integers stays in
one module, written once per kind there: the grid builder's G, for the
keys k/G that the walk judges, ranks and face-tests, and ``integer_form``'s
L for the program. ``_feasible_walk`` reads int keys only, with no
payload, lcm or type test, and ``_enumerate`` tests no elements for
equality.
In ``cli.py`` only ``main`` prints and picks the exit code; the subcommand
handlers return their reports, and ``main`` maps every precondition error,
one class, ``errors.PreconditionError``, to exit code 3. The constructions
read their ring from ``a``. Each argument
contract has one home: ``errors.require_int`` for a count, bound or seed
and ``rings._exact`` for an element scalar are the only tests for
``bool``. ``__init__.py`` only star-imports its siblings, so a module's
``__all__`` is the package API. No float literal, true division or
``float`` name is written anywhere. All are checked by reading the
sources, without importing or running anything, except two guards: on
public signatures, only the parameters it names have a default, so a size,
sample, seed or step count that no caller sets is a constant, not a knob;
and a ``Side``'s ``better`` is the int sign ``compare`` returns. The package
exports only the 83 names one guard lists, by module.
"""

from __future__ import annotations

import ast
import inspect
import pathlib
import re

import ringlp
from ringlp.affine import Side

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ringlp"
MODULES = sorted(SRC.glob("*.py"))


def test_no_module_but_rings_names_a_ring():
    """Outside ``rings.py`` only the default-ring column of ``cli._DEMOS``
    names a ``RingId`` member: every other per-ring fact is read from the
    ring's descriptor."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES if path.name != "rings.py"}
    demos = next(
        node.value for node in trees["cli.py"].body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_DEMOS"
    )
    default_column = [row.elts[0] for row in demos.values]
    hits = [
        f"{name}:{node.lineno}: RingId.{node.attr}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "RingId"
        and node.attr.isupper() and node not in default_column
    ]
    assert len(default_column) == 7 and hits == [], hits


def test_one_record_holds_the_per_ring_facts():
    """``RingDescriptor`` is the one per-ring record in ``rings.py``, with
    no grammar record or table beside it, and the other modules read the
    ring's facts from it: no module but ``rings.py`` builds a dict keyed by
    ``RingId``."""
    tree = ast.parse((SRC / "rings.py").read_text())
    names = {node.name for node in tree.body if isinstance(node, ast.ClassDef)} | {
        t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets
    }
    assert "RingDescriptor" in names and not names & {"_RingSpec", "_SPECS"}

    def ring_keyed(node) -> bool:
        if isinstance(node, ast.Dict):
            return any(getattr(getattr(k, "value", None), "id", None) == "RingId" for k in node.keys)
        return isinstance(node, ast.DictComp) and any(
            getattr(g.iter, "id", None) == "RingId" for g in node.generators
        )

    tables = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name != "rings.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if ring_keyed(node)
    ]
    assert tables == [], tables


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
    a denominator. It is also the one accumulator: ``mul``, ``add`` and
    ``sub`` are calls of it, and the dict merge term rings used before and
    the scalar rings' ``_scalar_sum`` are gone. ``compare`` orders by
    ``sign``."""
    functions = [
        node
        for node in ast.walk(ast.parse((SRC / "rings.py").read_text()))
        if isinstance(node, ast.FunctionDef)
    ]
    shifters = {
        function.name
        for function in functions
        for node in ast.walk(function)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
    }
    assert shifters == {"sum_of_products"}, shifters
    assert {"mul", "add", "sub"} <= _readers(SRC / "rings.py", "sum_of_products")
    assert "compare" in _readers(SRC / "rings.py", "sign")
    removed = {"_add_or_sub", "_sum_pair", "_scalar_sum"}
    gone = {function.name for function in functions} & removed
    assert not gone, gone


def test_add_sub_and_mul_are_one_kernel_call_on_every_ring():
    """Scalar rings keep no arithmetic of their own beside the kernel: each
    of ``add``, ``sub`` and ``mul`` checks the rings, then makes one
    ``sum_of_products`` call, and reads no payload to pick a branch."""
    rings = SRC / "rings.py"
    for name in ("add", "sub", "mul"):
        function = _definition(rings, name)
        calls = [
            node.func.id
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        ]
        assert calls == ["_require_same_ring", "sum_of_products"], (name, calls)
        reads = {node.attr for node in ast.walk(function) if isinstance(node, ast.Attribute)}
        assert "payload" not in reads, name


def _lines_matching(pattern: str) -> set[str]:
    return {
        path.name
        for path in MODULES
        for line in path.read_text().splitlines()
        if re.search(pattern, line)
    }


def _definition(path: pathlib.Path, name: str):
    return next(
        node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
    )


def test_primal_and_dual_sides_are_defined_only_in_affine():
    """The integer form stores the columns negated, so every line of either
    side reads ``a . v <= k`` and the dual is the primal of (-A^T, -c, -b):
    the walk takes no comparison, ``Side`` holds no objective
    weights and no variable count, and the box scan maximizes every side
    with ``>``, so ``enumeration`` imports neither ``gt`` nor ``lt`` and only
    ``judge_optimal_pair`` reads a side's ``better``, the ``compare`` of a
    strictly better value: +1 on the primal, -1 on the dual."""
    assert _lines_matching(r"^class _?Side\b") == {"affine.py"}
    walk = _definition(SRC / "enumeration.py", "_feasible_walk")
    assert [arg.arg for arg in walk.args.args] == ["P", "primal", "grid", "form"]
    side = _definition(SRC / "affine.py", "Side")
    fields = [node.target.id for node in side.body if isinstance(node, ast.AnnAssign)]
    assert not {"weights", "nvars"} & set(fields), fields
    imported = {
        alias.name
        for node in ast.walk(ast.parse((SRC / "enumeration.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"gt", "lt"}, imported & {"gt", "lt"}
    assert _readers(SRC / "enumeration.py", "better") == {"judge_optimal_pair"}
    assert (Side.of(True).better, Side.of(False).better) == (1, -1)


def _modules_requiring(argument: str) -> set[str]:
    """The modules that call ``require_int`` or ``require_count`` on the
    argument ``argument``."""
    return {
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("require_int", "require_count")
        and node.args
        and getattr(node.args[0], "value", None) == argument
    }


def test_only_the_shared_trial_loop_checks_the_trial_count():
    assert _modules_requiring("trials") == {"reports.py"}
    assert _lines_matching("must be positive") <= {"errors.py"}
    assert _lines_matching("must be at most") <= {"errors.py"}


def _bool_type_tests(path: pathlib.Path) -> set[str]:
    """The functions of ``path`` (``<module>`` for module level) holding a
    comparison, or an ``isinstance``/``issubclass`` call, that names ``bool``."""
    testers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            test = isinstance(child, ast.Compare) or (
                isinstance(child, ast.Call)
                and getattr(child.func, "id", None) in ("isinstance", "issubclass")
            )
            if test and any(getattr(n, "id", None) == "bool" for n in ast.walk(child)):
                testers.add(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return testers


def test_only_the_argument_contracts_test_for_bool():
    """``bool`` is an ``int`` subclass, so two functions tell it apart:
    ``errors.require_int`` for a count, bound or seed and ``rings._exact``
    for an element's scalar. The one other test is ``feasible_points``'
    refusal of a ``primal`` that is not a ``bool``. Nothing else checks an
    argument by hand."""
    testers = {f"{path.name}:{name}" for path in MODULES for name in _bool_type_tests(path)}
    expected = {"errors.py:require_int", "rings.py:_exact", "enumeration.py:feasible_points"}
    assert testers == expected, testers


def test_a_failed_precondition_is_one_error_class():
    """``errors.py`` defines no subclass of ``PreconditionError``: its
    message names the failed hypothesis, and only ``main`` in ``cli.py``
    reads the class, for exit code 3."""
    subclasses = [
        node.name
        for node in ast.parse((SRC / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
        and "PreconditionError" in [getattr(base, "id", None) for base in node.bases]
    ]
    assert subclasses == [], subclasses
    assert _readers(SRC / "cli.py", "PreconditionError") == {"main"}


BUILDERS = {
    "gap_program": ["a"],
    "strong_duality_counterexample": ["a"],
    "infeasible_optimal_program": ["a", "kind"],
    "primal_improving_sequence": ["a", "z"],
    "dual_decreasing_sequence": ["a", "p"],
}


def _construction_parameters() -> dict[str, list[str]]:
    return {
        node.name: [arg.arg for arg in node.args.args]
        for node in ast.walk(ast.parse((SRC / "constructions.py").read_text()))
        if isinstance(node, ast.FunctionDef)
    }


def test_no_construction_takes_a_ring():
    """``a`` names the ring a construction is built over, so no function of
    ``constructions.py`` takes a ``ring`` beside it."""
    taking_ring = [name for name, args in _construction_parameters().items() if "ring" in args]
    assert taking_ring == [], taking_ring


def test_each_builder_takes_a_and_its_witness_or_kind():
    parameters = _construction_parameters()
    assert {name: parameters[name] for name in BUILDERS} == BUILDERS


def test_a_bundle_names_each_fact_once():
    """``constructions.py`` defines one record, ``CounterexampleBundle``,
    and one enum, ``BundleKind``: a sequence is the bundle's witnesses of
    one side with their ``objective_values``, and the infeasible side of an
    infeasible/optimal bundle is named by its kind."""
    classes = [
        node
        for node in ast.parse((SRC / "constructions.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    ]
    records = [c.name for c in classes if "record" in [getattr(d, "id", None) for d in c.decorator_list]]
    enums = [c.name for c in classes if "Enum" in [getattr(b, "id", None) for b in c.bases]]
    assert (records, enums) == (["CounterexampleBundle"], ["BundleKind"]), (records, enums)


def test_no_float_is_written_in_the_library():
    """ROADMAP invariant "no floats", read from the sources: no float or
    complex literal, no true division ``/`` (``//`` and ``Fraction`` keep
    values exact) and no ``float`` name under ``src/ringlp``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
        or (isinstance(node, ast.Name) and node.id == "float")
    ]
    assert found == [], found


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


def test_one_verdict_path_and_a_scan_walk_read_only_by_the_scans():
    """``affine._verdict`` builds the whole slack of a point. It is read by
    ``_weak_duality``, the check ``assert_weak_duality`` renders, which
    reuses both slacks, and by the two feasibility tests on every ring.
    ``enumeration._feasible_walk``, which judges grid points on the integer
    form without a verdict or a slack, is read only by the side scan and
    ``feasible_points``, and no per-point test ``_fits`` is left."""
    readers = _readers(SRC / "affine.py", "_verdict")
    assert readers == {"_weak_duality", "is_primal_feasible", "is_dual_feasible"}, readers
    walk_readers = _readers_by_module("_feasible_walk")
    assert walk_readers == {"enumeration.py": {"_enumerate", "feasible_points"}}, walk_readers
    assert _readers_by_module("_fits") == {}
    assert _readers_by_module("form_verdict") == {}


REMOVED_PRODUCTS = (
    "mat_apply",
    "covec_apply",
    "dot_left",
    "vec_add",
    "vec_sub",
    "int_vector",
    "int_matrix",
    "vec_neg",
    "scale_right",
)


def test_linalg_holds_containers_only():
    """``linalg.py`` imports no ring arithmetic; no module defines, imports
    or exports any of the products and helpers that now live in the tests
    as oracles; and ``ringlp`` exports at most 100 names besides its
    modules."""
    arithmetic = {"add", "sub", "mul", "neg", "sum_of_products", "from_int"}
    imported = {
        alias.name
        for node in ast.walk(ast.parse((SRC / "linalg.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "rings"
        for alias in node.names
    }
    assert not imported & arithmetic, imported & arithmetic
    bound = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.setdefault(node.name, set()).add(path.name)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    bound.setdefault(alias.asname or alias.name, set()).add(path.name)
    assert {name: bound[name] for name in REMOVED_PRODUCTS if name in bound} == {}
    exported = set().union(*_public_names().values())
    assert len(exported) <= 100, len(exported)


def _public_names() -> dict[str, list[str]]:
    """Each module that ``__init__.py`` star-imports, with its ``__all__``."""
    found = {}
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            module = ast.parse((SRC / f"{node.module}.py").read_text())
            found[node.module] = next(
                ast.literal_eval(statement.value)
                for statement in module.body
                if isinstance(statement, ast.Assign)
                and [getattr(t, "id", None) for t in statement.targets] == ["__all__"]
            )
    return found


def test_each_module_all_is_the_package_api():
    """``__init__.py`` holds its docstring, star imports of sibling modules
    and ``__version__``, so a module's ``__all__`` is the one list of its
    public names: each entry is defined in that module, and no name is
    listed by two modules."""
    docstring, *body = ast.parse((SRC / "__init__.py").read_text()).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    *imports, version = map(ast.unparse, body)
    assert all(re.fullmatch(r"from \.\w+ import \*", line) for line in imports), imports
    assert version.startswith("__version__ = "), version
    owners = {}
    for module, names in _public_names().items():
        defined = set()
        for node in ast.parse((SRC / f"{module}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(getattr(t, "id", None) for t in node.targets)
        assert set(names) <= defined, (module, set(names) - defined)
        for name in names:
            owners.setdefault(name, []).append(module)
    assert {name: found for name, found in owners.items() if len(found) > 1} == {}


def test_the_package_exports_only_the_named_names():
    """The 83 names ``ringlp`` exports, by module; a new export has to be
    named here. A helper that one function of its own module calls stays
    public there but is not exported (``affine.random_program``,
    ``constructions.primal_improving_step``, ``dual_decreasing_step`` and
    ``no_central_between_check``)."""
    assert _public_names() == {
        "errors": ["RingLpError", "RingMismatch", "DimensionMismatch", "ParseError", "PreconditionError"],
        "rings": [
            "RingId", "Magnitude", "RingDescriptor", "RingElement", "descriptor", "zero", "one",
            "from_int", "from_rational", "poly", "skew", "POLY_X", "SKEW_X", "SKEW_Y", "add", "sub",
            "neg", "mul", "sum_of_products", "sign", "compare", "is_zero", "try_invert", "is_central",
            "classify_magnitude", "parse_element", "to_text",
        ],
        "sampling": ["Sampler", "verify_order_axioms"],
        "reports": ["CheckReport", "AxiomViolation", "AxiomReport", "TrialSummary"],
        "linalg": ["RVector", "RMatrix", "vector", "matrix", "vec_text"],
        "affine": [
            "ProgramData", "ViolationKind", "FeasibilityVerdict", "primal_slack", "dual_slack",
            "is_primal_feasible", "is_dual_feasible", "eval_f", "eval_g", "key_equation_residual",
            "duality_equation_residual", "gap", "assert_weak_duality", "identity_trials",
            "identity_program_trials", "weak_duality_trials",
        ],
        "enumeration": [
            "BoxSpec", "StatusKind", "Scope", "ProgramStatus", "EdtReport", "candidate_values",
            "enumerate_primal", "enumerate_dual", "feasible_points", "certify_optimal_pair",
            "classify_edt",
        ],
        "constructions": [
            "BundleKind", "CounterexampleBundle", "gap_program", "strong_duality_counterexample",
            "infeasible_optimal_program", "primal_improving_sequence", "dual_decreasing_sequence",
            "no_central_between_trials", "magnitude_gap_check", "verify_bundle",
        ],
        "progfile": ["parse_program", "serialize_program", "load_program"],
    }


def _readers_by_module(name: str) -> dict[str, set[str]]:
    return {path.name: found for path in MODULES if (found := _readers(path, name))}


def test_only_rings_reduced_builds_an_object_past_its_constructor():
    """The box walk judges each grid point as a tuple of int keys and yields
    the keys of a feasible one; a checked ``RVector`` is built only for a
    side scan's witness and for each point ``feasible_points`` returns.
    No module reads the removed ``grid_points`` or its unchecked generator,
    and no vector is built past ``RVector.__init__``. The one object built
    past its class's constructor is the ``Fraction`` of ``rings.reduced``."""
    assert _readers_by_module("grid_points") == {}
    assert _readers_by_module("_unchecked_points") == {}
    assert _readers_by_module("__new__") == {"rings.py": {"reduced"}}


def _calls(path: pathlib.Path, callee: str) -> set[tuple[str, int]]:
    """``(function, positional argument count)`` for each call of the plain
    name ``callee`` in ``path`` (``<module>`` at module level)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == callee:
                found.add((owner, len(child.args)))
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_the_kernel_builds_no_fraction_through_its_generic_constructor():
    """Every ``Fraction`` made from an integer pair comes from
    ``rings.reduced``. The generic ``Fraction(...)``, which re-checks its
    arguments' types, is called only where a literal is parsed or a value
    is embedded and checked, and for the constant ``_F0``; only the first
    two take an ``(n, d)`` pair."""
    calls = {
        (f"{path.name}:{owner}", nargs)
        for path in MODULES
        for owner, nargs in _calls(path, "Fraction")
    }
    assert {site for site, _ in calls} == {
        "rings.py:<module>",
        "rings.py:_parse_fraction",
        "rings.py:from_rational",
        "rings.py:_coefficient",
    }, calls
    pairs = {site for site, nargs in calls if nargs == 2}
    assert pairs == {"rings.py:_parse_fraction", "rings.py:from_rational"}, pairs


def test_the_box_scan_compares_no_ring_elements():
    """``enumeration``'s walk ranks points by integer keys and builds each
    grid value directly, so a per-point ``compare`` or ``from_rational``
    cannot creep back: only ``judge_optimal_pair``, which weighs a given
    candidate against a scan's best, reads ``compare``."""
    assert _readers(SRC / "enumeration.py", "compare") == {"judge_optimal_pair"}
    assert _readers(SRC / "enumeration.py", "from_rational") == set()


def test_only_constructions_mark_a_status_exhaustive():
    """The oracle's statuses are all BOX_LIMITED; a construction marks a side
    EXHAUSTIVE with the note that argues its box suffices. No string handed
    to the oracle can buy that scope."""
    assert set(_readers_by_module("EXHAUSTIVE")) == {"constructions.py"}
    assert _lines_matching("analytic_note") == set()


def test_no_function_rebinds_a_module_global():
    """No ``global`` statement, ``lru_cache`` or kept ``_form`` is left under
    ``src/ringlp``, so no call parks its state in a module slot or on a
    program for other calls to find; and
    ``enumeration.py`` alone imports ``lcm``, so the scaling to integers
    stays in that module (the grid's G and the program's L)."""
    rebinders = [
        f"{path.name}: {function.name} rebinds {', '.join(node.names)}"
        for path in MODULES
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Global)
    ]
    assert rebinders == [], rebinders
    assert _lines_matching(r"lru_cache|\b_form\b") == set()
    importers = {
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.rpartition(".")[2] == "lcm"
    }
    assert importers == {"enumeration.py"}, importers
    assert set(_readers_by_module("lcm")) == {"enumeration.py"}  # ``math.lcm`` too


def test_the_walk_judges_int_keys_with_no_scaling_of_its_own():
    """``_feasible_walk`` judges int keys against lines it scales by the
    grid's G, which it reads from the grid, so it reads no payload and calls
    neither ``lcm`` nor ``type``."""
    names = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(_definition(SRC / "enumeration.py", "_feasible_walk"))
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    assert not names & {"payload", "lcm", "type"}, names & {"payload", "lcm", "type"}


def test_only_the_grid_builder_and_the_integer_form_take_an_lcm():
    """The grid's keys are over one G and the program's lines over one L;
    nothing in the box scan rescales per point or per walk."""
    assert _readers(SRC / "enumeration.py", "lcm") == {"_grid_values", "integer_form"}


def test_only_the_key_to_element_function_builds_a_grid_element():
    """The grid is int keys over G. Its one key->element function, ``value``
    (one per kind of grid, chosen where the grid is built), is the only
    caller of ``RingElement`` and reader of ``reduced`` in ``enumeration.py``;
    the other readers of ``RingElement`` only annotate. ``_grid_values``
    reads ``from_int`` only to test whether a denominator is a unit, and no
    function there tests for INT."""
    path = SRC / "enumeration.py"
    assert _calls(path, "RingElement") == {("value", 2)}
    assert _readers(path, "RingElement") == {"value", "ProgramStatus", "EdtReport", "candidate_values"}
    assert _readers(path, "reduced") == {"value"}
    assert _readers(path, "from_int") == {"_grid_values"}
    calls = [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)]
    unit_tests = [call.args for call in calls if getattr(call.func, "id", None) == "try_invert"]
    embeddings = [call for call in calls if getattr(call.func, "id", None) == "from_int"]
    assert len(embeddings) == 1 and unit_tests == [embeddings]
    assert _readers(path, "INT") == set()


def test_the_face_test_reads_keys_and_makes_no_element_equality_test():
    """``_enumerate`` ranks and face-tests the best point on its keys: the
    top key in the best point, not a grid value ``==`` an entry."""
    tests = [
        node.lineno
        for node in ast.walk(_definition(SRC / "enumeration.py", "_enumerate"))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
    ]
    assert tests == [], tests


def test_only_main_prints_or_picks_an_exit_code_in_the_cli():
    """Each subcommand handler returns its report and whether its checks
    held; ``main`` alone renders the report, as JSON or through the one text
    renderer, prints it and maps that to an exit code."""
    for name in ("print", "EXIT_OK", "EXIT_VIOLATION"):
        assert _readers(SRC / "cli.py", name) == {"main"}, name
    assert _readers(SRC / "cli.py", "_text_lines") == {"main", "_text_lines"}


def test_only_the_named_parameters_have_a_default():
    """Every defaulted parameter of a public ``ringlp`` function or a public
    ``Sampler`` method; a new one has to be named here."""
    public = {name: getattr(ringlp, name) for name in dir(ringlp) if not name.startswith("_")}
    public.update(
        (f"Sampler.{name}", method)
        for name, method in vars(ringlp.Sampler).items()
        if not name.startswith("_")
    )
    defaulted = {
        (name, parameter.name)
        for name, function in public.items()
        if inspect.isfunction(function)
        for parameter in inspect.signature(function).parameters.values()
        if parameter.default is not parameter.empty
    }
    assert defaulted == {
        ("certify_optimal_pair", "x_star"),
        ("certify_optimal_pair", "y_star"),
        ("from_rational", "den"),
        ("sum_of_products", "minus"),
        ("sum_of_products", "negate"),
    }
