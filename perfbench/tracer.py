"""In-memory span tracer that wraps the public functions of phaseseek's layers.

Each wrapped call records one span: name, parent span, start, end and one
numeric attribute (for example the batch size of ``nets.forward_batch``).
Spans live in flat arrays until the run ends.  A wrapper replaces the
function's name in every ``phaseseek`` module that imported it (for example
``phaseseek.cli.rollout`` and ``phaseseek.inference.select_action``), so
calls through either name are recorded; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("features", "nets", "training", "inference", "compose", "metrics", "cli")
# Public methods wrapped in addition to each module's public functions.
METHODS = {"training": ("ReplayMemory.push", "ReplayMemory.sample"),
           "inference": ("LinearClipClassifier.predict",)}


def _batch_size(args, kwargs, result) -> float:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return float(x.shape[0]) if getattr(x, "ndim", 2) == 3 else 1.0


def _update_done(args, kwargs, result) -> float:
    return 0.0 if result is None else 1.0


def _steps_taken(args, kwargs, result) -> float:
    return float(result.steps_taken)


# Span attribute recorded per function: what the per-layer report needs.
ATTRS = {"nets.forward_batch": _batch_size,
         "training.dqn_update": _update_done,
         "inference.rollout": _steps_taken}


def span_name(module: str, qualname: str) -> str:
    """``cli.cmd_train`` is reported as ``cli.train``; other names unchanged."""
    layer = module.rsplit(".", 1)[-1]
    if layer == "cli" and qualname.startswith("cmd_"):
        qualname = qualname[len("cmd_"):]
    return f"{layer}.{qualname}"


class Tracer:
    """Span recorder; a span's parent is the innermost span open at its start."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.attr = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.attr.append(float("nan"))
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        attr_fn = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attr_fn is not None:
                self.attr[idx] = attr_fn(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "phaseseek") -> list[str]:
        """Wrap every layer's public functions and listed methods; return span names."""
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        importers = [m for n, m in sorted(sys.modules.items())
                     if m is not None and (n == package or n.startswith(package + "."))]
        wrapped = []
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for fname, fn in inspect.getmembers(mod, inspect.isfunction):
                if fname.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                name = span_name(mod.__name__, fname)
                wrapper = self.wrap(name, fn)
                for importer in importers:
                    for attr, value in list(vars(importer).items()):
                        if value is fn:
                            self._patch(importer, attr, wrapper)
                wrapped.append(name)
            for qualname in METHODS.get(layer, ()):
                cls_name, meth = qualname.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self.wrap(f"{layer}.{qualname}", getattr(cls, meth)))
                wrapped.append(f"{layer}.{qualname}")
        return wrapped

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict:
        """Spans as numpy columns, with per-span duration and self time."""
        import numpy as np

        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "parent": parent,
            "start": start,
            "end": end,
            "attr": np.frombuffer(self.attr, dtype=np.float64),
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path) -> None:
        """Write every span to an ``.npz`` file (``names`` maps ``name_id``)."""
        import numpy as np

        cols = self.arrays()
        np.savez(path, names=np.array(self.names), **{k: cols[k] for k in
                                                      ("name_id", "parent", "start", "end", "attr")})
