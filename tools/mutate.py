"""Mutation test of named functions: python tools/mutate.py MODULE:FUNCTION ...

Each mutant swaps one comparison (< <=, > >=, == !=, in, is), drops one
``not``, puts one before the bare truth test of an ``if``, a ``while`` or a
conditional expression (a test that is no comparison, ``not``, ``and`` or
``or``), swaps a conditional expression's two branches, drops one ``if``
filter of a comprehension or negates it (unless it is a ``not``), swaps
one ``and`` for ``or`` or back, or moves one int constant by 1 either way
in a named function of src/ringlp, or a named method (``Class.method``:
``enumeration:EdtReport.as_dict``), in a temporary copy of the
repository without .git whose own src is first on sys.path (this tree is
never written). ``pytest -x -q`` runs there, one process at a time under a
2 GiB address-space limit, on the test files that import the mutated
module, after one unmutated run of every test file (exit 2 if that fails).
Each module's test files then run once unmutated, timed, and each of its
mutants gets five times that time plus 30 s, so a mutant that makes a loop
spin is stopped in about that long. Prints KILLED (a test failed, timed out
or ran out of memory) or SURVIVED per mutant; exits 1 if any survived.

The test files that import ringlp.cli run for every mutant too, since the CLI
reaches every layer and its goldens pin every report's bytes: today
test_acceptance.py, test_cli.py and test_cli_goldens.py, 236 tests that add
about 4.7 s to each surviving mutant (2 vCPUs, CPython 3.11), less to one
killed earlier by -x. A module without ``__all__`` (cli) is matched by its
own name only.
"""

import ast
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
        ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
ENV = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
# a mutant can turn a bounded loop into one that grows a list without end
MEMORY = 2 << 30
# the unmutated whole suite's timeout, and a mutant's, from its files' unmutated run
SUITE_TIMEOUT, TIMEOUT_SCALE, TIMEOUT_SLACK = 600, 5, 30


def _replace(holder: ast.AST, old: ast.AST, new: ast.AST) -> None:
    """Put ``new`` where ``old`` sits among the fields of ``holder``."""
    for field, value in ast.iter_fields(holder):
        if value is old:
            setattr(holder, field, new)
        elif isinstance(value, list):
            value[:] = [new if child is old else child for child in value]


def _mutants(source: str, name: str):
    """Each mutant of function ``name``, or of method ``Class.method``, as
    (mutated module source, description)."""
    tree = scope = ast.parse(source)
    *owners, name = name.split(".")
    for owner in owners:
        scope = next(n for n in ast.walk(scope) if isinstance(n, ast.ClassDef) and n.name == owner)
    function = next(n for n in ast.walk(scope) if isinstance(n, ast.FunctionDef) and n.name == name)
    parents = {child: node for node in ast.walk(function) for child in ast.iter_child_nodes(node)}
    for n in ast.walk(function):
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.Not):
            _replace(parents[n], n, n.operand)
            yield ast.unparse(tree), f"line {n.lineno}: not dropped"
            _replace(parents[n], n.operand, n)
        elif isinstance(n, (ast.If, ast.While, ast.IfExp)):
            test = n.test
            negated = isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
            if not negated and not isinstance(test, (ast.Compare, ast.BoolOp)):
                n.test = ast.UnaryOp(ast.Not(), test)
                yield ast.unparse(tree), f"line {n.lineno}: not inserted"
                n.test = test
            if isinstance(n, ast.IfExp):
                n.body, n.orelse = n.orelse, n.body
                yield ast.unparse(tree), f"line {n.lineno}: branches swapped"
                n.body, n.orelse = n.orelse, n.body
        elif isinstance(n, ast.comprehension):
            for i, test in enumerate(n.ifs):
                del n.ifs[i]
                yield ast.unparse(tree), f"line {test.lineno}: filter dropped"
                n.ifs.insert(i, test)
                if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)):
                    n.ifs[i] = ast.UnaryOp(ast.Not(), test)
                    yield ast.unparse(tree), f"line {test.lineno}: filter negated"
                    n.ifs[i] = test
        elif isinstance(n, ast.BoolOp):
            op = n.op
            n.op = ast.Or() if isinstance(op, ast.And) else ast.And()
            yield ast.unparse(tree), f"line {n.lineno}: {type(op).__name__} -> {type(n.op).__name__}"
            n.op = op
        elif isinstance(n, ast.Compare):
            for i, op in enumerate(n.ops):
                if type(op) in SWAP:
                    n.ops[i] = SWAP[type(op)]()
                    yield ast.unparse(tree), f"line {n.lineno}: {type(op).__name__} -> {SWAP[type(op)].__name__}"
                    n.ops[i] = op
        elif isinstance(n, ast.Constant) and type(n.value) is int:
            for change in (1, -1):
                n.value += change
                yield ast.unparse(tree), f"line {n.lineno}: {n.value - change} -> {n.value}"
                n.value -= change


def _imports(path: pathlib.Path) -> set:
    """The modules ``path`` imports, and ``ringlp.<name>`` per name it takes from ``ringlp``."""
    nodes = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, (ast.Import, ast.ImportFrom))]
    modules = {getattr(n, "module", None) for n in nodes}
    return modules | {("ringlp." if getattr(n, "module", None) == "ringlp" else "") + a.name
                      for n in nodes for a in n.names}


def _test_files(module: str) -> list:
    """The test files that import ``ringlp.<module>`` or a name of its ``__all__``,
    and every test file that imports ``ringlp.cli``, which reaches every layer."""
    tree = ast.parse((ROOT / "src" / "ringlp" / f"{module}.py").read_text())
    public = next((ast.literal_eval(n.value) for n in tree.body
                   if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "__all__"), ())
    wanted = {f"ringlp.{name}" for name in (module, *public)} | {"ringlp.cli"}
    paths = sorted((ROOT / "tests").glob("test_*.py"))
    return [f"tests/{path.name}" for path in paths if wanted & _imports(path)]


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def _passes(copy: pathlib.Path, files: list, timeout: float) -> bool:
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    try:
        return subprocess.run(argv, cwd=copy, env=ENV, capture_output=True, timeout=timeout,
                              preexec_fn=_limit_memory).returncode == 0
    except subprocess.TimeoutExpired:  # a mutant that hangs is killed
        return False


def _timeout(copy: pathlib.Path, files: list) -> float:
    """A mutant's timeout on ``files``, scaled from one timed unmutated run."""
    began = time.monotonic()
    _passes(copy, files, SUITE_TIMEOUT)
    return TIMEOUT_SCALE * (time.monotonic() - began) + TIMEOUT_SLACK


def main(targets: list) -> int:
    survived, timeouts = 0, {}
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*cache", ".hypothesis"))
        if not _passes(copy, ["tests"], SUITE_TIMEOUT):
            return print("the unmutated copy fails its tests") or 2
        for module, name in (target.split(":") for target in targets):
            path = copy / "src" / "ringlp" / f"{module}.py"
            source, files = path.read_text(), _test_files(module)
            if module not in timeouts:
                timeouts[module] = _timeout(copy, files)
                print(f"{module}: each mutant's timeout is {timeouts[module]:.0f} s", flush=True)
            for mutated, what in _mutants(source, name):
                path.write_text(mutated)
                killed = not _passes(copy, files, timeouts[module])
                path.write_text(source)
                survived += not killed
                print(f"{'KILLED  ' if killed else 'SURVIVED'} {module}.{name} {what}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]) if sys.argv[1:] else __doc__)
