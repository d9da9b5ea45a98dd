"""Package metadata in pyproject.toml agrees with the code."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SOURCES = sorted((PYPROJECT.parent / "src" / "aaipc").glob("*.py"))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_declared_scripts_resolve_to_callables():
    import tomllib

    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} = {target!r} is not callable"


def imports(importer: str, module: str) -> bool:
    """Whether importing `importer` in a fresh interpreter loads `module`."""
    import aaipc.circuit

    src = str(Path(aaipc.circuit.__file__).resolve().parents[1])
    code = f"import sys, {importer}; sys.exit({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode != 0


@pytest.mark.parametrize("module", ["aaipc.inference", "aaipc.floats"])
def test_circuit_layer_imports_no_query_layer(module):
    # circuit holds the compiled layout that inference evaluates on, and
    # knows no number format; the dependency runs one way only
    assert not imports("aaipc.circuit", module)


@pytest.mark.parametrize("module", ["aaipc.circuit", "aaipc.inference"])
def test_float_layer_imports_no_other_layer(module):
    # inference rounds its words in floats' array rounding step; the
    # dependency runs one way only
    assert not imports("aaipc.floats", module)


def test_conftest_imports_without_libcst():
    # the test extra names pytest and hypothesis, and hypothesis does not
    # require libcst, with which it writes the patch for a failing example
    import aaipc.circuit

    src = str(Path(aaipc.circuit.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    code = f"import sys; sys.modules['libcst'] = None; sys.path.insert(0, {tests!r}); import conftest"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def loaded(tree: ast.AST) -> set[str]:
    """Every name that tree reads as a name."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    # an import kept bound for callers that wrap its names, as the traced
    # benchmark wraps the scalar float ops, says so with `# noqa: F401`
    text = path.read_text()
    tree, lines = ast.parse(text), text.splitlines()
    bound = [alias.asname or alias.name.partition(".")[0]
             for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))
             and getattr(stmt, "module", None) != "__future__"
             and not any("# noqa: F401" in line for line in lines[stmt.lineno - 1:stmt.end_lineno])
             for alias in stmt.names]
    assert sorted(set(bound) - loaded(tree)) == []


def test_every_private_module_level_name_is_read():
    # a private function, class or constant that no module reads is dead
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    defined = set()
    for stmt in (stmt for tree in trees for stmt in tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - set().union(*map(loaded, trees))) == []
