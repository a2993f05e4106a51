"""A small process that launches the benchmark's child processes.

A child's peak RSS, as the kernel reports it, includes the RSS of the
process that forked it.  The benchmark holds numpy, scipy and the chain, so
it starts this launcher first, while it is still small, and runs every
command through it.  Requests and replies are JSON lines over pipes.  Each
child finds its launch time (time.time()) in the environment variable
LAUNCHED_AT_VAR names, so it can time its own interpreter start.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass

LAUNCHED_AT_VAR = "PERFBENCH_LAUNCHED_AT"


@dataclass
class ChildRun:
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    children_peak_rss_mb: float  # largest peak RSS of any child launched so far


class Spawner:
    """Client end: start with `with Spawner() as s:`, then `s.run(argv, env, cwd, timeout)`."""

    def __enter__(self) -> "Spawner":
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        return self

    def run(self, argv: list, env: dict, cwd: str, timeout: float) -> ChildRun:
        self._proc.stdin.write(json.dumps({"argv": argv, "env": env, "cwd": cwd, "timeout": timeout}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended unexpectedly")
        return ChildRun(**json.loads(reply))

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        t0 = time.perf_counter()
        env = {**req["env"], LAUNCHED_AT_VAR: repr(time.time())}
        proc = subprocess.Popen(req["argv"], env=env, cwd=req["cwd"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=req["timeout"])
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += f"\nkilled after {req['timeout']} s"
        wall = time.perf_counter() - t0
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        sys.stdout.write(json.dumps({"wall_s": wall, "returncode": proc.returncode, "stdout": out,
                                     "stderr": err, "children_peak_rss_mb": peak}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
