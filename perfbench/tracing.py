"""Layer spans recorded from outside the package.

A layer is a module of the package, found at run time. Every function named
in a layer's ``__all__`` (and the ``__call__`` of every class named there) is
wrapped so that each call records a span: name, start, end, parent span and
call id. The CLI module has no ``__all__``; its public functions are wrapped
instead. ``dual`` and ``polynomial`` define no ``__all__``, so their
arithmetic counts in the self time of whichever layer calls it. The Fock
oracle runs only in the correctness check and is never a layer.

Modules bind names such as ``mixed_partial_at_zero`` at import time, so each
wrapper is rebound in every loaded module of the package that holds the
original function; wrapping only the defining module would record nothing.

Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
import re
import statistics
import sys
from time import perf_counter

# The console-script module: a layer although it defines no __all__.
ENTRY_MODULES = ("cli",)
# Modules that never run in a timed phase.
CHECK_ONLY = ("oracle",)
# Sweep functions that render records as text.
EMIT_FUNCTIONS = ("to_csv", "to_json")


def _entries(args, kwargs) -> int:
    """Coefficient-array size prod(k_i + 1) of a call whose arguments carry
    derivative orders (an object with an ``orders`` tuple); 0 otherwise."""
    for arg in (*args, *kwargs.values()):
        orders = getattr(arg, "orders", None)
        if isinstance(orders, tuple):
            return math.prod(k + 1 for k in orders)
    return 0


class Tracer:
    """In-memory span recorder.

    A span is ``[sid, parent, call_id, layer, name, start, end, entries]``;
    ``parent`` is -1 for a span that no other span encloses.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.call_id = 0

    def wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            entries = _entries(args, kwargs)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = [sid, parent, self.call_id, layer, name,
                              start, end, entries]

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def discover_layers(package: str = "ngtmsv") -> dict:
    """Map layer name to module for every layer module of ``package``."""
    pkg = importlib.import_module(package)
    layers = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name in CHECK_ONLY:
            continue
        mod = importlib.import_module(f"{package}.{info.name}")
        if hasattr(mod, "__all__") or info.name in ENTRY_MODULES:
            layers[info.name] = mod
    return layers


def _public_names(mod) -> list:
    if hasattr(mod, "__all__"):
        return list(mod.__all__)
    return [name for name in vars(mod) if not name.startswith("_")]


def install(tracer: Tracer, package: str = "ngtmsv") -> list:
    """Wrap every layer function and rebind it wherever the package holds
    it. Returns the layer names."""
    layers = discover_layers(package)
    wrappers = {}
    for layer, mod in layers.items():
        for name in _public_names(mod):
            obj = getattr(mod, name, None)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and obj not in wrappers:
                wrappers[obj] = tracer.wrap(layer, name, obj)
            elif inspect.isclass(obj) and "__call__" in vars(obj):
                setattr(obj, "__call__",
                        tracer.wrap(layer, name, vars(obj)["__call__"]))
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package
                               or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
    return sorted(layers)


def aggregate(spans: list, outputs: int, wall_s: float, layers) -> dict:
    """Per-layer figures from a span list.

    Self time is a span's duration minus the durations of its direct child
    spans (calls are synchronous, so children never overlap). Returns
    ``{"layers": {layer: {...}}, "functions": {(layer, name): [durations]},
    "entries_total", "entries_max", "emit_s", "unmeasured": [...]}``.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict = {}
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[6] - s[5])
    per_layer = {name: {"self_s": 0.0, "calls": 0} for name in layers}
    functions: dict = {}
    entries_total = entries_max = 0
    emit_s = 0.0
    for s in spans:
        sid, parent, _, layer, name, start, end, entries = s
        dur = end - start
        row = per_layer.setdefault(layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += dur - child_time.get(sid, 0.0)
        row["calls"] += 1
        functions.setdefault((layer, name), []).append(dur)
        if name in EMIT_FUNCTIONS and layer == "sweep":
            emit_s += dur
        if entries:
            up = parent
            while up >= 0 and not by_id[up][7]:
                up = by_id[up][1]
            if up < 0:  # outermost engine call
                entries_total += entries
                entries_max = max(entries_max, entries)
    for row in per_layer.values():
        row["share"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
        row["calls_per_pt"] = row["calls"] / outputs if outputs else 0.0
    return {
        "layers": per_layer,
        "functions": functions,
        "entries_total": entries_total,
        "entries_max": entries_max,
        "emit_s": emit_s,
        "unmeasured": sorted(n for n, r in per_layer.items() if not r["calls"]),
    }


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def parse_importtime(stderr: str, package: str = "ngtmsv") -> dict:
    """Self import time in seconds per package module, from the output of
    ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line.strip())
        if not m:
            continue
        name = m.group(3).strip()
        if name.startswith(package + "."):
            out[name[len(package) + 1:]] = int(m.group(1)) * 1e-6
    return out


def median_importtime(samples: list) -> dict:
    names = set().union(*samples) if samples else set()
    return {name: statistics.median(s.get(name, 0.0) for s in samples)
            for name in names}
