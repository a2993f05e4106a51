"""One console-script command, split into parts in a fresh process like the real one.

    python3 perfbench/cli_parts.py estimate data.csv --method bm

Run through the benchmark's launcher, which stamps each child with its
launch time.  Times the interpreter start (launch to the first statement
here) and the import of the console script's modules, then runs the command
with spans around the package's functions and its output sent to a null
sink.  Prints one JSON line: interp, import, parse (sniff_chain_file plus
load_chain), compute (the rest of the command), emit (emit_json) and the cli
layer's self time, in seconds.  The launcher's wall time of this process,
minus these parts, is what they leave unaccounted.
"""
import time

STARTED_AT = time.time()
_t0 = time.perf_counter()
import mcvar._main  # noqa: E402,F401  (what the console script imports)
import mcvar.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402
from spawner import LAUNCHED_AT_VAR  # noqa: E402


def main(argv: list) -> int:
    interp = STARTED_AT - float(os.environ[LAUNCHED_AT_VAR])
    tracer = Tracer()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), tracer.installed():
        code, idx = tracer.probe("cli", mcvar.cli.main, argv)
    parse = sum(tracer.duration(i) for name in ("cli.sniff_chain_file", "cli.load_chain")
                for i in tracer.descendants(idx, name))
    emit = sum(tracer.duration(i) for i in tracer.descendants(idx, "cli.emit_json"))
    print(json.dumps({"exit": code, "interp_s": interp, "import_s": IMPORT_S, "parse_s": parse,
                      "compute_s": tracer.duration(idx) - parse - emit, "emit_s": emit,
                      "self_s": tracer.self_times({"cli"})["cli"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
