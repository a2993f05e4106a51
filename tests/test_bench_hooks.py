"""The benchmark's tracer (perfbench/spans.py) still finds what it wraps.

Its per-layer metrics read spans named after the chain's cached transforms
and the lag-covariance kernel, so those must stay a functools.cached_property
and a module function of mcvar.chain.  A change that breaks the hooks fails
here, in the package's own suite, before a benchmark run is spent on it.
"""
import functools
import importlib.util
import pathlib

import mcvar.cli  # the tracer wraps every layer module, cli included
from mcvar import chain as chain_module
from mcvar.chain import SampleMatrix
from mcvar.experiments import Ar1Config, ar1_generate, make_estimator

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_chain_hooks_and_restores_them():
    assert isinstance(vars(SampleMatrix)["_centered"], functools.cached_property)
    assert isinstance(vars(SampleMatrix)["_spectrum"], functools.cached_property)
    values = ar1_generate(Ar1Config(phi=0.5, n=3000, seed=5, p=2)).values
    before, block = dict(vars(SampleMatrix)), chain_module._lag_cov_block
    tracer = load_spans().Tracer()
    with tracer.installed():
        chain = SampleMatrix(values)
        make_estimator("sv")(chain)
        make_estimator("initseq")(chain)
    recorded = {span[0] for span in tracer.spans}
    assert {"chain.spectrum", "chain.centered", "chain.lag_cov_block"} <= recorded
    assert dict(vars(SampleMatrix)) == before
    assert chain_module._lag_cov_block is block
