"""Source hygiene: every name a package module imports is used in it, every
method and property of a package class is read outside the tests, no module
reads the solver options kept without effect, every error class is raised
somewhere, only the module that owns a control-set or target class branches
on it, one function holds the adaptive step loop, the solver reads the
maximum condition from pmp, and `import relaxtoc` loads no SciPy."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import get_args

from relaxtoc import dynamics, target

SRC = Path(__file__).resolve().parents[1] / "src" / "relaxtoc"
SCRIPTS = SRC.parents[1] / "scripts"
# members kept for a path the ROADMAP gives them: with_grid re-expresses a
# schedule on a refined grid (item 7)
UNREAD_BY_DESIGN = {"with_grid"}


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_every_class_member_has_a_reader():
    # a method or property that only tests read is code no user path reaches.
    # Readers are matched by attribute name, so a member that shares its name
    # with another object's attribute passes unseen; dataclass fields are not
    # checked at all
    members, reads = [], {}
    for path in sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and path.parent == SRC:
                members += [
                    (f"{path.name}:{node.name}.{f.name}", f.name, path, f.lineno, f.end_lineno)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")
                ]
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    unread = [
        key
        for key, name, path, first, last in members
        if name not in UNREAD_BY_DESIGN
        and all(p == path and first <= line <= last for p, line in reads.get(name, []))
    ]
    assert not unread, unread


def test_nothing_reads_the_inert_solver_options():
    # SolveOptions keeps n_atoms and multi_starts only because the benchmark's
    # workloads pass them: the solver carries one mean control per cell and
    # has one start.  Outside the options' own validation no module reads
    # them, so neither can regain an effect
    inert = {"n_atoms", "multi_starts"}
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        checks = [
            (f.lineno, f.end_lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "SolveOptions"
            for f in node.body
            if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
        ]
        reads += [
            f"{path.name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in inert
            and not any(first <= node.lineno <= last for first, last in checks)
        ]
    assert not reads, reads


def test_every_error_class_is_raised():
    errors = ast.parse((SRC / "errors.py").read_text())
    declared = {n.name for n in errors.body if isinstance(n, ast.ClassDef)} - {"Error"}
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    assert not declared - raised, sorted(declared - raised)


def test_only_the_owning_module_branches_on_set_and_target_types():
    # control sets own their argmax and gain (dynamics.py), targets
    # their normal cone and signed gap (target.py): an isinstance against one
    # of them anywhere else is their geometry in the wrong place
    owner = {cls.__name__: "dynamics.py" for cls in get_args(dynamics.ControlSet)}
    owner.update(
        (cls.__name__, "target.py")
        for cls in vars(target).values()
        if isinstance(cls, type) and issubclass(cls, target.TargetSet)
    )
    misplaced = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
                continue
            kinds = node.args[1]
            for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                name = kind.attr if isinstance(kind, ast.Attribute) else getattr(kind, "id", None)
                if owner.get(name, path.name) != path.name:
                    misplaced.append(f"{path.name}:{node.lineno} {name}")
    assert not misplaced, misplaced


def _calls_by_function(path):
    """{called name: {innermost enclosing function}} for the calls in a module."""
    calls = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, set()).add(f"{path.name}:{owner}")
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return calls


def test_one_function_holds_the_step_loop():
    # the trial, the step-size rule and the first-step guess are called only
    # from the step loop `_rk.steps`: both sweeps consume it, so no second copy
    # of the loop can drift from the first
    rules = ("step", "next_step", "initial_step")
    callers = {rule: set() for rule in rules}
    for path in sorted(SRC.glob("*.py")):
        for name, owners in _calls_by_function(path).items():
            if name in callers:
                callers[name] |= owners
    assert callers == {rule: {"_rk.py:steps"} for rule in rules}, callers


def test_the_solver_reads_the_maximum_condition_from_pmp():
    # the greedy seed is the maximum condition at t = 0 with the costate at
    # the target's exit normal: pmp.max_hamiltonian and exit_normal answer
    # it, so the solver has no argmax or projection of its own
    calls = _calls_by_function(SRC / "solve.py")
    assert not {name: calls[name] for name in ("argmax", "project") if name in calls}
    assert "solve.py:_greedy_atom" in calls["max_hamiltonian"] & calls["exit_normal"]


def test_import_leaves_scipy_unloaded():
    # SciPy's import costs more than the rest of the package; only the
    # barrier quadrature and table need it, and they import it on first use
    probe = "import sys, relaxtoc, relaxtoc.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
