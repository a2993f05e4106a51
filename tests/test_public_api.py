"""The public surface: every exported name exists and each module exports only its own."""
import ast
import importlib
import inspect
import pkgutil

import pytest

import mcvar

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(mcvar.__path__))


def top_level_definitions(module) -> set[str]:
    """Names a module binds itself: functions, classes and assignments, not imports."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_lists_only_its_own_definitions(name):
    module = importlib.import_module(f"mcvar.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert set(exported) <= top_level_definitions(module) - {"__all__"}


def test_package_all_resolves():
    missing = [name for name in mcvar.__all__ if not hasattr(mcvar, name)]
    assert not missing
    assert len(set(mcvar.__all__)) == len(mcvar.__all__)
