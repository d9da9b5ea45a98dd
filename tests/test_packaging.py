"""Package metadata in pyproject.toml agrees with the code."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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
