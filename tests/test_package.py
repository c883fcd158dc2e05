"""The package's exports: every exported name resolves, and the package
re-exports only names its modules export."""

import ast
import importlib
import pkgutil

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
