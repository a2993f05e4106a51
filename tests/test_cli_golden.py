"""Seeded CLI output pinned against a committed golden file.

Each command runs on the same seeded 2000 x 3 AR(1, phi=0.9) chain, saved as
CSV, as .npy and as variants of the CSV, or on one of a few malformed input
files.  The exit code and the first stderr line (with each input's path put
back as its placeholder) must match exactly; stdout must match with floats
within 1e-12 relative, ignoring the timings `wall_time_s` and
`median_seconds`.  The `experiment` commands run at toy sizes on their own
seeded chains.

After a deliberate change of output, regenerate the golden file with

    PYTHONPATH=src python3 tests/test_cli_golden.py

and check that its diff touches only the commands meant to change.  An entry
that the new run still matches, under the test's own comparison, is kept as
committed, so rounding that differs between hosts rewrites nothing.
"""
import contextlib
import io
import json
import math
import os
import pathlib
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
from scipy.signal import lfilter

from mcvar.cli import main

GOLDEN = pathlib.Path(__file__).with_name("data") / "cli_golden.json"
CHAIN = "{chain}"  # placeholders for the input files' paths in the golden argv
NPY = "{chain.npy}"
BAD_INPUTS = ("{non-utf8.csv}", "{header-only.csv}", "{pickled.npy}", "{3d.npy}", "{text.npy}", "{truncated.npy}")
# the chain's CSV with a byte-order mark, after a blank line, after blank
# lines and a header; a file of blank lines only (exit 2); the chain's CSV
# with whitespace-only lines between rows and after the data
TEXT_INPUTS = ("{bom.csv}", "{blank-first.csv}", "{blank-header.csv}", "{blank-only.csv}", "{blank-rows.csv}")
SHORT = "{short.csv}"  # 3 rows: too short for every estimator's defaults (exit 3)
HUGE = "{huge.csv}"  # the chain's signs times 1e200: every estimate overflows (exit 4)
E150 = "{e150.csv}"  # the chain times 1e150: every answer as for the chain
CONST = "{const.csv}"  # the chain with column 1 set to 0.1: no ESS (exit 4)
MISSING = "{missing.csv}"  # never written
REGIMES = ("none", "zero", "adaptive", "over")
FAMILIES = ("bm", "obm", "sv")
TIMINGS = ("wall_time_s", "median_seconds")
WINDOWS = ("bartlett", "bartlett-flattop", "tukey-hanning", "quadratic-spectral")


def _custom(method, r, c, *extra):
    return ["estimate", CHAIN, "--method", method, "--lugsail", "custom", "--r", r, "--c", c, *extra]


COMMANDS = [
    *[[cmd, CHAIN, "--method", m, "--lugsail", g]
      for cmd in ("estimate", "ess", "stopcheck") for m in FAMILIES for g in REGIMES],
    ["estimate", CHAIN, "--method", "initseq"],
    ["estimate", CHAIN, "--method", "initseq-adj"],
    *[_custom(m, "2.5", "0.4") for m in FAMILIES],
    _custom("bm", "3", "0.5", "--b", "7"),
    _custom("sv", "2", "0", "--b", "7"),
    *[["estimate", CHAIN, "--method", "sv", "--window", w, "--lugsail", "over", "--b", "30"] for w in WINDOWS],
    ["estimate", CHAIN, "--method", "obm", "--lugsail", "zero", "--out", "csv"],
    ["stopcheck", CHAIN, "--lugsail", "over", "--eps", "0.5", "--nstar", "100"],
    ["simci", CHAIN, "--targets", "mean:0,quant:1:0.1,quant:2:0.9", "--lugsail", "zero", "--seed", "3"],
    # edge cases: c = 0 with floor(b/r) = 0, an invalid b under a lugsail
    # regime, b < r, r below 1 and non-finite r
    *[_custom(m, "2", "0", "--b", "1") for m in FAMILIES],
    *[["estimate", CHAIN, "--method", m, "--lugsail", "over", "--b", "0"] for m in FAMILIES],
    *[["estimate", CHAIN, "--method", m, "--lugsail", "over", "--b", "2"] for m in FAMILIES],
    _custom("bm", "0.5", "0.5"),
    *[_custom(m, r, "0.5") for m in FAMILIES for r in ("inf", "nan")],
    # experiments at toy sizes
    ["experiment", "ar1-coverage", "--phi", "0.9", "--n-grid", "500,1000", "--reps", "8", "--seed", "3",
     "--methods", "bm,sv"],
    ["experiment", "ar1-ess", "--phi", "0.5", "--n-grid", "1000", "--reps", "5", "--seed", "3",
     "--methods", "bm,sv", "--out", "json"],
    ["experiment", "mixture", "--n", "2000", "--seed", "2"],
    ["experiment", "mixture", "--n", "2000", "--seed", "2", "--out", "csv"],
    ["experiment", "logistic", "--n", "1000", "--n-obs", "50", "--p-coef", "3", "--seed", "2"],
    *[["experiment", "bench", "--n", "1000", "--p-coef", "2", "--reps", "1", "--seed", "1", "--out", out]
      for out in ("json", "csv")],
    # flags refused before any chain is drawn or any target computed (exit 3)
    ["experiment", "ar1-coverage", "--n", "600", "--reps", "2", "--alpha", "1.5"],
    ["experiment", "logistic", "--n-obs", "-1"],
    # flags the experiment never reads (exit 3)
    ["experiment", "bench", "--phi", "0.5", "--methods", "sv", "--alpha", "0.2"],
    ["experiment", "mixture", "--reps", "3", "--n-obs", "4"],
    ["experiment", "ar1-coverage", "--n", "1000", "--n-grid", "500,2000"],  # one chain length or a grid
    ["simci", CHAIN, "--targets", "mean:0,quant:0:0.5,mean:5"],
    # .npy input, and input errors (exit 2)
    *[["estimate", NPY, "--method", m] for m in (*FAMILIES, "initseq")],
    ["estimate", NPY, "--columns", "2,0", "--lugsail", "over"],
    ["stopcheck", NPY, "--lugsail", "over", "--eps", "0.5", "--nstar", "100"],
    ["estimate", NPY, "--columns", "3"],
    *[["estimate", path, "--method", "bm"] for path in BAD_INPUTS],
    *[["estimate", path, "--method", "bm"] for path in TEXT_INPUTS],
    *[["estimate", SHORT, "--method", m] for m in (*FAMILIES, "initseq", "initseq-adj")],
    # settings the chosen method or regime would ignore (exit 3), and a
    # non-finite estimate (exit 4)
    ["estimate", CHAIN, "--method", "bm", "--window", "bartlett"],
    ["estimate", CHAIN, "--lugsail", "zero", "--r", "2"],
    *[["estimate", HUGE, "--method", m] for m in (*FAMILIES, "initseq")],
    # a constant column has no ESS whatever its value (exit 4); a bad flag is
    # reported before the chain file is read (exit 3); sv's window by its
    # canonical name
    *[["ess", CONST, "--method", m] for m in ("bm", "sv", "initseq")],
    ["estimate", MISSING, "--b", "0"],
    ["estimate", CHAIN, "--method", "sv", "--window", "TUKEY_HANNING"],
    # a command's own flags and the column selection are checked before the
    # chain file is read (exit 3); epsilon must be positive and finite, and
    # its minimum ESS must fit in a float (exit 3)
    ["stopcheck", MISSING, "--alpha", "2"],
    ["estimate", MISSING, "--columns", "x"],
    ["miness", "--eps", "nan"],
    ["miness", "--eps", "1e-300"],
    ["stopcheck", CHAIN, "--eps", "inf"],
    # units: sv overflows no earlier than bm, and the stopping rule takes the
    # p-th root of the volume before it exponentiates
    ["estimate", E150, "--method", "sv"],
    ["stopcheck", E150, "--lugsail", "over"],
    # simci's own flags are checked before the chain file is read, and a
    # negative seed is refused whether or not a QMC point is drawn; an empty
    # column selection is unparsable, not all columns (exit 3)
    ["simci", MISSING, "--targets", "mean:0", "--alpha", "0"],
    ["simci", CHAIN, "--targets", "mean:0", "--seed", "-1"],
    ["simci", CHAIN, "--targets", "mean:0,mean:1", "--seed", "-1"],
    ["estimate", CHAIN, "--columns", ""],
]


def write_inputs(directory: pathlib.Path) -> dict[str, str]:
    """Write every input file into directory; returns placeholder -> path."""
    eps = np.random.default_rng(2024).standard_normal((2000, 3))
    values, _ = lfilter([1.0], [1.0, -0.9], eps, axis=0, zi=np.zeros((1, 3)))
    paths = {key: str(directory / key.strip("{}"))
             for key in (CHAIN, NPY, SHORT, HUGE, E150, CONST, MISSING, *BAD_INPUTS, *TEXT_INPUTS)}
    paths[CHAIN] += ".csv"
    np.savetxt(paths[CHAIN], values, delimiter=",")
    np.save(paths[NPY], values)
    pathlib.Path(paths["{non-utf8.csv}"]).write_bytes(b"\xff\xfe1,2\n3,4\n")
    pathlib.Path(paths["{header-only.csv}"]).write_text("x0,x1,x2\n")
    for key, array in (("{pickled.npy}", np.array([{"x": 1.0}, 2.0], dtype=object)),
                       ("{3d.npy}", np.zeros((4, 3, 2))),
                       ("{text.npy}", np.array([["1.0", "2.0"], ["3.0", "4.0"]]))):
        with open(paths[key], "wb") as fh:
            np.save(fh, array, allow_pickle=True)
    data = pathlib.Path(paths[NPY]).read_bytes()
    pathlib.Path(paths["{truncated.npy}"]).write_bytes(data[: len(data) // 2])
    text = pathlib.Path(paths[CHAIN]).read_bytes()
    pathlib.Path(paths["{bom.csv}"]).write_bytes(b"\xef\xbb\xbf" + text)
    pathlib.Path(paths["{blank-first.csv}"]).write_bytes(b"\n" + text)
    pathlib.Path(paths["{blank-header.csv}"]).write_bytes(b"\n \r\nx0,x1,x2\n" + text)
    pathlib.Path(paths["{blank-only.csv}"]).write_bytes(b"\n \n\t\n")
    rows = text.splitlines(keepends=True)
    pathlib.Path(paths["{blank-rows.csv}"]).write_bytes(b"".join([rows[0], b" \t\n", *rows[1:], b"  \n\n \n"]))
    np.savetxt(paths[SHORT], values[:3], delimiter=",")
    np.savetxt(paths[HUGE], np.sign(values) * 1e200, delimiter=",")
    np.savetxt(paths[E150], values * 1e150, delimiter=",")
    constant = values.copy()
    constant[:, 1] = 0.1
    np.savetxt(paths[CONST], constant, delimiter=",")
    return paths


def run(argv: list[str], paths: dict[str, str]) -> dict:
    """Run one command in-process; an uncaught exception counts as the
    console script would report it, exit 1 with a traceback."""
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage lines to COLUMNS, else to the terminal's width
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(),
          mock.patch.dict(os.environ, {"COLUMNS": "80"})):
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except Exception:
            code, err = 1, io.StringIO("Traceback (most recent call last):\n")
    text = out.getvalue()
    if text.startswith(("{", "[")):
        stdout = json.loads(text)
        for report in stdout if isinstance(stdout, list) else [stdout]:
            for key in TIMINGS:
                report.pop(key, None)
    else:
        lines = text.splitlines()
        header = lines[0].split(",") if lines else []
        if "median_seconds" in header:  # a table: drop the timing column
            i = header.index("median_seconds")
            lines = [",".join(f[:i] + f[i + 1:]) for f in (line.split(",") for line in lines)]
        stdout = [line.split(",", 1) for line in lines if not line.startswith("wall_time_s,")]
    stderr = (err.getvalue().splitlines() or [""])[0]
    for key, path in paths.items():
        stderr = stderr.replace(path, key)
    return {"exit": code, "stderr": stderr, "stdout": stdout}


def record(paths: dict[str, str]) -> list[dict]:
    return [{"argv": argv, **run(argv, paths)} for argv in COMMANDS]


def same(got, want, where: str) -> list[str]:
    """Differences between two outputs; floats (also in CSV text) within 1e-12 relative."""
    if isinstance(got, str) and isinstance(want, str):
        try:
            got, want = float(got), float(want)
        except ValueError:
            return [] if got == want else [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in got for d in same(got[k], want[k], f"{where}.{k}")]
    if isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in same(g, w, f"{where}[{i}]")]
    if isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0):
        return []
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def differences(got: dict, want: dict) -> list[str]:
    """How one command's recorded run differs from its golden entry."""
    cmd = " ".join(want["argv"])
    diffs = [f"{cmd}: exit {got['exit']} != {want['exit']}"] if got["exit"] != want["exit"] else []
    diffs += [f"{cmd}: stderr {got['stderr']!r} != {want['stderr']!r}"] if got["stderr"] != want["stderr"] else []
    return diffs + same(got["stdout"], want["stdout"], f"{cmd}: stdout")


def test_cli_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == COMMANDS
    got = record(write_inputs(tmp_path))
    diffs = [d for g, w in zip(got, golden) for d in differences(g, w)]
    assert not diffs, "\n".join(diffs)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = record(write_inputs(pathlib.Path(tmp)))
    committed = {json.dumps(g["argv"]): g for g in json.loads(GOLDEN.read_text())} if GOLDEN.exists() else {}
    for i, row in enumerate(rows):
        old = committed.get(json.dumps(row["argv"]))
        if old is not None and not differences(row, old):
            rows[i] = old
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(rows)} commands)", file=sys.stderr)
