"""Source hygiene: every name a package module imports is used in it, every
error class is raised somewhere, only the module that owns a control-set or
target class branches on it, one function holds the adaptive step loop, and
`import relaxtoc` loads no SciPy."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import get_args

from relaxtoc import dynamics, target

SRC = Path(__file__).resolve().parents[1] / "src" / "relaxtoc"


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
    # control sets own their argmax, scale and gain (dynamics.py), targets
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


def test_import_leaves_scipy_unloaded():
    # SciPy's import costs more than the rest of the package; only the
    # barrier quadrature and table need it, and they import it on first use
    probe = "import sys, relaxtoc, relaxtoc.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
