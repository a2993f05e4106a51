"""Import hygiene: a command loads only the scipy subpackages it runs.

Importing scipy.stats alone costs more than most commands compute, so the
package defers every scipy import to the function that needs it.  Each check
runs in a fresh interpreter, where sys.modules starts clean.  The package's
own modules import each other at module top: the layers form no cycle.
"""
import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import mcvar

SRC = str(pathlib.Path(mcvar.__file__).resolve().parent.parent)
HEAVY = ("scipy.stats", "scipy.signal", "scipy.fft", "scipy.linalg", "scipy.special")


def loaded_after(code: str) -> set[str]:
    """The HEAVY subpackages in sys.modules after running code in a fresh process."""
    probe = (
        "import json, sys\n"
        f"{code}\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_no_function_imports_a_sibling_module():
    deferred = [f"{path.name}:{node.lineno}"
                for path in sorted(pathlib.Path(mcvar.__file__).parent.glob("*.py"))
                for fn in ast.walk(ast.parse(path.read_text()))
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(fn) if isinstance(node, ast.ImportFrom) and node.level >= 1]
    assert not deferred


def test_import_loads_no_scipy():
    assert loaded_after("import mcvar, mcvar.cli, mcvar._main") == set()


def test_batch_means_estimate_loads_no_scipy(tmp_path):
    f = tmp_path / "chain.csv"
    np.savetxt(f, np.random.default_rng(0).standard_normal((200, 2)), delimiter=",")
    code = (
        "import contextlib, io\n"
        "from mcvar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['estimate', {str(f)!r}, '--method', 'bm']) == 0\n"
    )
    assert loaded_after(code) == set()


def test_miness_loads_special_but_not_stats():
    code = (
        "import contextlib, io\n"
        "from mcvar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['miness', '--p', '3']) == 0\n"
    )
    loaded = loaded_after(code)
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded


def test_multi_target_simci_loads_special_only(tmp_path):
    f = tmp_path / "chain.csv"
    np.savetxt(f, np.random.default_rng(0).standard_normal((500, 3)), delimiter=",")
    code = (
        "import contextlib, io\n"
        "from mcvar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['simci', {str(f)!r}, '--targets', 'mean:0,quant:1:0.1,quant:2:0.9']) == 0\n"
    )
    assert loaded_after(code) == {"scipy.special"}
