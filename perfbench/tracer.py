"""Span recording around the public functions of the lrange modules.

``Tracer.install`` replaces every public function of the given modules by
a wrapper, rebinding the name in every module namespace of the package
that holds the function, so calls across modules and within one module
are both caught.  Spans carry the function, start, end, parent span and
op id; they stay in flat in-memory arrays until ``write`` dumps them once.
``restore`` puts the original functions back and checks that it did.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

_MARK = "__perfbench_wrapper__"


def package_modules(package) -> list:
    prefix = package.__name__ + "."
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package.__name__ or name.startswith(prefix))
    ]


def assert_clean(package):
    """Raise if any namespace of the package still holds a wrapper."""
    for mod in package_modules(package):
        for attr, value in vars(mod).items():
            if inspect.isfunction(value) and getattr(value, _MARK, False):
                raise RuntimeError(f"{mod.__name__}.{attr} is still wrapped")


class Tracer:
    """Records one span per call of a public function while installed."""

    def __init__(self, package, layers):
        self.package = package
        self.names = []
        self._targets = []
        for layer in layers:
            mod = getattr(package, layer)
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self.names.append(f"{layer}.{attr}")
                    self._targets.append(fn)
        self.op_id = -1
        self._fn = array("i")
        self._parent = array("q")
        self._op = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._rebound = []

    def _wrap(self, k: int, fn):
        fns, parents, ops = self._fn, self._parent, self._op
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(fns)
            fns.append(k)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self):
        by_id = {id(fn): (fn, self._wrap(k, fn)) for k, fn in enumerate(self._targets)}
        for mod in package_modules(self.package):
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._rebound.append((mod, attr, value))

    def restore(self):
        for mod, attr, original in self._rebound:
            setattr(mod, attr, original)
        for mod, attr, original in self._rebound:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} was not restored")
        assert_clean(self.package)

    def summary(self, ops_only: bool = False) -> tuple[list, list]:
        """Per function: calls and self time (span minus child spans).

        With ``ops_only``, spans recorded outside an op (op id -1) are left
        out, so ratios describe the workload's ops alone.
        """
        count = len(self._fn)
        child = [0.0] * count
        parents, starts, ends = self._parent, self._start, self._end
        for sid in range(count):
            p = parents[sid]
            if p >= 0:
                child[p] += ends[sid] - starts[sid]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for sid in range(count):
            if ops_only and self._op[sid] < 0:
                continue
            k = self._fn[sid]
            calls[k] += 1
            self_s[k] += ends[sid] - starts[sid] - child[sid]
        return calls, self_s

    def write(self, path: Path):
        """Dump every span in one write; times are ns from the first span."""
        t0 = self._start[0] if len(self._start) else 0.0
        doc = {
            "functions": self.names,
            "fn": self._fn.tolist(),
            "parent": self._parent.tolist(),
            "op": self._op.tolist(),
            "start_ns": [round((t - t0) * 1e9) for t in self._start],
            "end_ns": [round((t - t0) * 1e9) for t in self._end],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
