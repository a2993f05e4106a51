"""The public surface: every exported name exists and each module exports only
its own, and the callables and the settings a caller can reach are the ones
listed here."""
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


# The layers whose __all__ mcvar re-exports; the rest of the package exports nothing.
LAYERS = ("chain", "lrv", "batch", "spectral", "initseq", "diagnostics", "quantiles")


def test_package_all_is_the_layers_all():
    """Each name is public in one list, its layer's __all__; no two layers
    export one name, so no star import in mcvar shadows another's."""
    assert set(LAYERS) == set(SUBMODULES) - {"_main", "cli", "experiments"}
    layers = [importlib.import_module(f"mcvar.{name}") for name in LAYERS]
    listed = [name for module in layers for name in module.__all__]
    assert len(set(listed)) == len(listed)
    assert sorted(mcvar.__all__) == sorted(listed)
    for module in layers:
        for name in module.__all__:
            assert getattr(mcvar, name) is getattr(module, name)
    homes = {getattr(getattr(mcvar, name), "__module__", None) for name in mcvar.__all__}
    assert not homes & {"mcvar.cli", "mcvar.experiments"}


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
    "quantiles.TargetSpec.q", "quantiles.estimate_omega(estimator)",
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
    *[f"mcvar experiment {study} {flag}" for study in ("ar1-coverage", "ar1-ess")
      for flag in ("--methods", "--n", "--n-grid", "--out", "--phi", "--reps", "--seed")],
    "mcvar experiment ar1-coverage --alpha",
    "mcvar experiment mixture --n", "mcvar experiment mixture --out", "mcvar experiment mixture --proposal-sd",
    "mcvar experiment mixture --seed",
    "mcvar experiment logistic --n", "mcvar experiment logistic --n-obs", "mcvar experiment logistic --out",
    "mcvar experiment logistic --p-coef", "mcvar experiment logistic --seed",
    "mcvar experiment bench --n", "mcvar experiment bench --out", "mcvar experiment bench --p-coef",
    "mcvar experiment bench --reps", "mcvar experiment bench --seed",
}


def _defaulted(fn) -> list[str]:
    return [n for n, p in inspect.signature(fn).parameters.items() if p.default is not inspect.Parameter.empty]


def _own_dataclass_settings(cls) -> list[str]:
    declared = cls.__dict__.get("__annotations__", {})
    return [f.name for f in dataclasses.fields(cls) if f.name in declared and f.init
            and (f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING)]


def _layer_members():
    """(label, object) for each public function and class of each layer module,
    and for each public method of those classes, class and static methods unwrapped."""
    for layer in (m for m in SUBMODULES if not m.startswith("_")):
        module = importlib.import_module(f"mcvar.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{layer}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield f"{layer}.{name}.{attr}", fn


def test_settings_ledger():
    found = set()
    for label, obj in _layer_members():
        if inspect.isfunction(obj):
            found |= {f"{label}({p})" for p in _defaulted(obj)}
        elif dataclasses.is_dataclass(obj):
            found |= {f"{label}.{f}" for f in _own_dataclass_settings(obj)}
    found |= set(_cli_flags("mcvar", cli.build_parser()))
    assert found == SETTINGS


def _cli_flags(command: str, parser):
    """'command --flag' for each flag of a parser, and of its subcommands, however nested."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _cli_flags(f"{command} {name}", child)
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            yield f"{command} {action.option_strings[-1]}"


# Every public function, class and method of a layer module, whether exported
# or not.  A change that adds or removes one updates this list.
CALLABLES = {
    "batch.batch_means", "batch.bm_exact_bias_ar1", "batch.default_batch_size", "batch.lag1_autocorrelation",
    "batch.lugsail_batch_means", "batch.lugsail_combine", "batch.lugsail_exact_bias_ar1",
    "batch.lugsail_overlapping_batch_means", "batch.lugsail_policy", "batch.overlapping_batch_means",
    "chain.LagCovariance", "chain.SampleMatrix", "chain.SampleMatrix.column", "chain.lag_covariance",
    "chain.lag_covariances_fft", "chain.mean_vector", "chain.sample_covariance",
    "cli.ChainFile", "cli.ChainFileError", "cli.build_parser", "cli.cmd_experiment", "cli.cmd_miness",
    "cli.emit", "cli.emit_json", "cli.load_chain", "cli.main", "cli.parse_targets", "cli.run_chain_command",
    "cli.sniff_chain_file",
    "diagnostics.StoppingConfig", "diagnostics.StoppingDecision", "diagnostics.chi2_quantile",
    "diagnostics.ess", "diagnostics.fixed_volume_check", "diagnostics.mcse", "diagnostics.min_ess",
    "diagnostics.region_contains", "diagnostics.region_volume",
    "experiments.Ar1Config", "experiments.BiasTruth", "experiments.Estimator", "experiments.MixtureConfig",
    "experiments.ar1_chain_factory", "experiments.ar1_generate", "experiments.ar1_truth",
    "experiments.coverage_study", "experiments.ess_study", "experiments.logistic_mh_generate",
    "experiments.make_estimator", "experiments.median_times", "experiments.mh_acceptance_rate",
    "experiments.mixture_mh_generate", "experiments.ordering_ok", "experiments.standard_grid",
    "experiments.timing_bench",
    "initseq.InitSeqResult", "initseq.adjusted_initial_sequence", "initseq.initial_sequence",
    "lrv.LrvEstimate", "lrv.LrvEstimate.scalar", "lrv.LugsailConfig", "lrv.LugsailConfig.mix",
    "lrv.LugsailConfig.named", "lrv.LugsailConfig.resolve", "lrv.NotPositiveDefinite", "lrv.adaptive_c",
    "lrv.chol_logdet", "lrv.matrix_of", "lrv.pd_logdet", "lrv.symmetrize",
    "quantiles.JointEstimate", "quantiles.SimultaneousRegion", "quantiles.TargetSpec",
    "quantiles.TargetSpec.label", "quantiles.estimate_omega", "quantiles.joint_transformed_chain",
    "quantiles.kde_density_at", "quantiles.mvn_rect_prob", "quantiles.quantile_estimate",
    "quantiles.solve_z_star",
    "spectral.LagWindow", "spectral.get_window", "spectral.lugsail_spectral_variance",
    "spectral.lugsail_window", "spectral.spectral_variance",
}


def test_callables_ledger():
    assert {label for label, _ in _layer_members()} == CALLABLES
