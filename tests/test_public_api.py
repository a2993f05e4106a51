"""The public surface: every exported name exists and each module exports only its own."""
import ast
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import mcvar
from mcvar import cli

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


# perfbench's tracer rebinds module attributes of mcvar.cli and reads its
# parse and emit times from spans with these names.
TRACED_CLI = ("parse_targets", "sniff_chain_file", "load_chain", "emit_json")


@pytest.mark.parametrize("name", ("main", *TRACED_CLI))
def test_cli_names_the_benchmark_traces_are_its_own_functions(name):
    fn = getattr(cli, name)
    assert inspect.isfunction(fn)
    assert (fn.__module__, fn.__name__) == ("mcvar.cli", name)


def test_chain_command_calls_traced_names_through_module_attributes(monkeypatch, tmp_path, capsys):
    """A captured reference would bypass the tracer's rebinding and read 0 s."""
    calls = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in TRACED_CLI:
        monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))
    path = tmp_path / "chain.csv"
    np.savetxt(path, np.random.default_rng(1).standard_normal((400, 2)), delimiter=",")
    assert cli.main(["simci", str(path), "--targets", "mean:0"]) == cli.EXIT_OK
    assert calls == list(TRACED_CLI)
