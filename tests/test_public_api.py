"""The public surface: every exported name exists and each module exports only
its own, and the settings a caller can change are the ones listed here."""
import argparse
import ast
import dataclasses
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


# Every value a caller can set, other than required inputs: a defaulted
# parameter of a public function or method of a layer module, a defaulted
# dataclass field under the class that declares it, and each CLI flag per
# subcommand.  A change that adds or removes a setting updates this list.
SETTINGS = {
    "batch.default_batch_size(r)", "batch.default_batch_size(rule)",
    "cli.ChainFile.blank_lines", "cli.ChainFile.columns", "cli.ChainFile.npy", "cli.main(argv)",
    "cli.sniff_chain_file(columns)",
    "diagnostics.StoppingConfig.alpha", "diagnostics.StoppingConfig.epsilon",
    "diagnostics.StoppingConfig.n_star",
    "experiments.Ar1Config.p", "experiments.Ar1Config.seed", "experiments.Ar1Config.x0",
    "experiments.MixtureConfig.proposal_sd", "experiments.MixtureConfig.seed",
    "experiments.coverage_study(alpha)", "experiments.logistic_mh_generate(seed)",
    "experiments.make_estimator(b)", "experiments.make_estimator(batch_rule)",
    "experiments.make_estimator(c)", "experiments.make_estimator(lugsail)", "experiments.make_estimator(r)",
    "experiments.make_estimator(window)", "experiments.ordering_ok(slack)",
    "experiments.standard_grid(methods)",
    "experiments.timing_bench(repetitions)",
    "lrv.LrvEstimate.b", "lrv.LrvEstimate.lugsail", "lrv.LrvEstimate.window",
    "lrv.LugsailConfig.c", "lrv.LugsailConfig.r", "lrv.LugsailConfig.regime",
    "quantiles.JointEstimate.targets", "quantiles.TargetSpec.q", "quantiles.estimate_omega(estimator)",
    "quantiles.mvn_rect_prob(seed)", "quantiles.mvn_rect_prob(tol)", "quantiles.solve_z_star(seed)",
    "mcvar estimate --b", "mcvar estimate --c", "mcvar estimate --columns", "mcvar estimate --lugsail",
    "mcvar estimate --method", "mcvar estimate --out", "mcvar estimate --r", "mcvar estimate --window",
    "mcvar ess --b", "mcvar ess --c", "mcvar ess --columns", "mcvar ess --lugsail", "mcvar ess --method",
    "mcvar ess --r", "mcvar ess --window",
    "mcvar stopcheck --alpha", "mcvar stopcheck --b", "mcvar stopcheck --c", "mcvar stopcheck --columns",
    "mcvar stopcheck --eps", "mcvar stopcheck --lugsail", "mcvar stopcheck --method",
    "mcvar stopcheck --nstar", "mcvar stopcheck --r", "mcvar stopcheck --window",
    "mcvar simci --alpha", "mcvar simci --b", "mcvar simci --c", "mcvar simci --columns",
    "mcvar simci --lugsail", "mcvar simci --method", "mcvar simci --r", "mcvar simci --seed",
    "mcvar simci --targets", "mcvar simci --window",
    "mcvar miness --alpha", "mcvar miness --eps", "mcvar miness --p",
    "mcvar experiment --alpha", "mcvar experiment --methods", "mcvar experiment --n",
    "mcvar experiment --n-grid", "mcvar experiment --n-obs", "mcvar experiment --out",
    "mcvar experiment --p-coef", "mcvar experiment --phi", "mcvar experiment --proposal-sd",
    "mcvar experiment --reps", "mcvar experiment --seed",
}


def _defaulted(fn) -> list[str]:
    return [n for n, p in inspect.signature(fn).parameters.items() if p.default is not inspect.Parameter.empty]


def _own_dataclass_settings(cls) -> list[str]:
    declared = cls.__dict__.get("__annotations__", {})
    return [f.name for f in dataclasses.fields(cls) if f.name in declared and f.init
            and (f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING)]


def test_settings_ledger():
    found = set()
    for layer in (m for m in SUBMODULES if not m.startswith("_")):
        module = importlib.import_module(f"mcvar.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found |= {f"{layer}.{name}({p})" for p in _defaulted(obj)}
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found |= {f"{layer}.{name}.{f}" for f in _own_dataclass_settings(obj)}
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)  # unwrap class and static methods
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        found |= {f"{layer}.{name}.{attr}({p})" for p in _defaulted(fn)}
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found |= {f"mcvar {cmd} {action.option_strings[-1]}" for cmd, parser in sub.choices.items()
              for action in parser._actions
              if action.option_strings and not isinstance(action, argparse._HelpAction)}
    assert found == SETTINGS
