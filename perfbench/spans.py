"""Spans around calls into the package, installed without editing it.

The tracer rebinds each public function of each mcvar layer module (and a
few private kernels) to a wrapper that records a span, wherever a module
holds a reference to it, and restores the originals afterwards.  A span is
(name, start, end, parent, op); its layer is the module its name starts
with.  A layer's self time is the time in its spans not covered by their
child spans.

This module needs only the standard library, so a process can import it
after the package without paying for anything the package does not load.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

LAYERS = ("chain", "lrv", "batch", "spectral", "initseq", "diagnostics", "quantiles", "experiments", "cli")
# Private kernels worth their own span: the FFT lag block and the cached transforms.
EXTRA_FUNCTIONS = {"chain": ("_lag_cov_block",)}
CACHED_PROPERTIES = {("chain", "SampleMatrix"): ("_centered", "_spectrum")}
CONSTRUCTORS = (("chain", "SampleMatrix"), ("lrv", "LrvEstimate"))


class Tracer:
    """Spans kept in memory; written out when the run ends."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter() - self.t0, None, parent, self.op])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter() - self.t0

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Rebind every public function of every layer, wherever it is referenced."""
        modules = [m for key, m in sys.modules.items() if key == "mcvar" or key.startswith("mcvar.")]
        for layer in LAYERS:
            mod = sys.modules[f"mcvar.{layer}"]
            names = [n for n, f in vars(mod).items()
                     if inspect.isfunction(f) and f.__module__ == mod.__name__ and not n.startswith("_")]
            for name in (*names, *EXTRA_FUNCTIONS.get(layer, ())):
                original = getattr(mod, name)
                traced = self._wrap(f"{layer}.{name.lstrip('_')}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, attr, original))
                            setattr(holder, attr, traced)
        for (layer, cls_name), props in CACHED_PROPERTIES.items():
            cls = getattr(sys.modules[f"mcvar.{layer}"], cls_name)
            for prop in props:
                original = cls.__dict__[prop]
                traced = functools.cached_property(self._wrap(f"{layer}.{prop.lstrip('_')}", original.func))
                traced.__set_name__(cls, prop)
                self._restore.append((cls, prop, original))
                setattr(cls, prop, traced)
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(sys.modules[f"mcvar.{layer}"], cls_name)
            self._restore.append((cls, "__post_init__", cls.__dict__["__post_init__"]))
            cls.__post_init__ = self._wrap(f"{layer}.{cls_name}", cls.__dict__["__post_init__"])

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def probe(self, op: str, fn, *args):
        """Run fn under its own op id and root span; returns (result, root span index)."""
        self.op = op
        try:
            with self.span(f"bench.{op}") as idx:
                out = fn(*args)
        finally:
            self.op = None
        return out, idx

    def descendants(self, root: int, name: str) -> list[int]:
        """Spans called `name` under span `root`."""
        out = []
        for idx, (span_name, *_rest) in enumerate(self.spans[root + 1:], start=root + 1):
            node = idx
            while node is not None and node != root:
                node = self.spans[node][3]
            if node == root and span_name == name:
                out.append(idx)
        return out

    def self_times(self, ops: set) -> dict[str, float]:
        """Per-layer self time over the spans of the given op ids."""
        child_time: dict[int, float] = {}
        for idx, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        layers = {layer: 0.0 for layer in LAYERS}
        for idx, (name, start, end, _, op) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            if op in ops and layer in layers:
                layers[layer] += end - start - child_time.get(idx, 0.0)
        return layers

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start_s", "end_s", "parent", "op"], "spans": self.spans}, fh)
