"""The package's exports: every exported name resolves, and the package
re-exports only names its modules export.  The tests import no
distribution that ``pyproject.toml`` does not declare."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import depthrec

MODULES = [importlib.import_module(f"depthrec.{m.name}")
           for m in pkgutil.iter_modules(depthrec.__path__)]


def test_every_module_export_resolves():
    assert len(MODULES) >= 12
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_package_imports_only_module_exports():
    tree = ast.parse(open(depthrec.__file__, encoding="utf-8").read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1
        module = importlib.import_module(f"depthrec.{node.module}")
        for alias in node.names:
            if hasattr(module, "__all__"):
                assert alias.name in module.__all__, \
                    f"depthrec imports {alias.name!r}, which {module.__name__}.__all__ lacks"
            else:  # a module without __all__ exports what it defines
                assert getattr(module, alias.name).__module__ == module.__name__


def test_tests_import_only_declared_distributions():
    # ``pip install -e .[test]`` must bring every module the tests import
    tomllib = pytest.importorskip("tomllib")
    tests = Path(__file__).parent
    with open(tests.parent / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
                for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    imported = set()
    for path in tests.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {path.stem for path in tests.glob("*.py")}
    undeclared = imported - set(sys.stdlib_module_names) - local - {"depthrec"} - declared
    assert not undeclared, f"tests import undeclared distributions: {sorted(undeclared)}"
