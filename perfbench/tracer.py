"""Layer-boundary span recorder for chan3d, installed from outside the package.

The layers are the chan3d modules that ``chan3d.campaign`` reaches through
its namespace, followed transitively. Every public function of a layer and
every public method of a layer's public classes is found by walking the
module and wrapped. Function wrappers replace campaign's bindings (names
imported with ``from .x import f``, and module objects such as ``calib``,
which are swapped for a copy holding the wrappers). Functions of the shared
``rng`` layer are also replaced where other layers bind them, since every
layer derives its random streams there. Methods are wrapped on their class.

A wrapper records a span only when the call crosses a layer boundary: the
caller is ``campaign`` (no open span) or a span of another layer. Work a
layer does internally stays in that layer's span, so a renamed or batched
function still lands under its module, or in campaign's own time.

Spans live in flat arrays (name id, parent index, start, end) until the
benchmark writes them out.
"""
from __future__ import annotations

import fnmatch
import functools
import inspect
import sys
import time
import types
from array import array

import numpy as np

PACKAGE = "chan3d"
ROOT = "campaign"
# Layers whose functions are wrapped wherever any layer binds them.
SHARED = (f"{PACKAGE}.rng",)


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:]


def _package_module(obj):
    """The chan3d module an object belongs to, or None."""
    if isinstance(obj, types.ModuleType):
        name = obj.__name__
    else:
        name = getattr(obj, "__module__", None)
    if isinstance(name, str) and name.startswith(PACKAGE + "."):
        return sys.modules.get(name)
    return None


def layer_modules() -> list:
    """chan3d modules reachable from ``chan3d.campaign``'s namespace, sorted by name."""
    root = sys.modules[f"{PACKAGE}.{ROOT}"]
    seen = {root.__name__: root}
    todo = [root]
    while todo:
        for value in vars(todo.pop()).values():
            mod = _package_module(value)
            if mod is not None and mod.__name__ not in seen:
                seen[mod.__name__] = mod
                todo.append(mod)
    del seen[root.__name__]
    return [seen[name] for name in sorted(seen)]


def public_callables(module) -> list:
    """(label, owner, attribute, raw) for each public function of the module
    and each public method of its public classes, found by walking it.

    ``owner`` is the class for methods and None for module functions; ``raw``
    is the attribute as stored (a function, staticmethod or classmethod).
    """
    short = _short(module.__name__)
    found = []
    for name, value in sorted(vars(module).items()):
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            found.append((f"{short}.{name}", None, name, value))
        elif inspect.isclass(value):
            for attr, raw in sorted(vars(value).items()):
                if attr.startswith("_"):
                    continue
                func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if inspect.isfunction(func):
                    found.append((f"{short}.{name}.{attr}", value, attr, raw))
    return found


class SpanRecorder:
    """Spans at layer boundaries, kept in memory as flat arrays."""

    def __init__(self, observers=None):
        """``observers`` maps a label to ``f(args, kwargs, result)``, called after each call."""
        self.labels: list[str] = []
        self.label_module: list[str] = []
        self._label_id: dict[str, int] = {}
        self.observers = observers or {}
        self._undo: list = []
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._stack_module = [ROOT]

    def _intern(self, label: str, module_short: str) -> int:
        if label not in self._label_id:
            self._label_id[label] = len(self.labels)
            self.labels.append(label)
            self.label_module.append(module_short)
        return self._label_id[label]

    def _wrap(self, label: str, module_short: str, fn):
        nid = self._intern(label, module_short)
        observer = self.observers.get(label)
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec._stack_module[-1] == module_short:
                result = fn(*args, **kwargs)
            else:
                idx = len(rec.name)
                rec.name.append(nid)
                rec.parent.append(rec._stack[-1])
                rec.end.append(0.0)
                rec._stack.append(idx)
                rec._stack_module.append(module_short)
                rec.start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.end[idx] = clock()
                    rec._stack.pop()
                    rec._stack_module.pop()
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public callable of every layer and rebind it (see the module docstring)."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        root = sys.modules[f"{PACKAGE}.{ROOT}"]
        layers = layer_modules()
        wrapped = {}  # id(function) -> (function, wrapper)
        for module in layers:
            short = _short(module.__name__)
            for label, owner, attr, raw in public_callables(module):
                if owner is None:
                    wrapped[id(raw)] = (raw, self._wrap(label, short, raw))
                    continue
                if isinstance(raw, (staticmethod, classmethod)):
                    method = type(raw)(self._wrap(label, short, raw.__func__))
                else:
                    method = self._wrap(label, short, raw)
                self._rebind(owner, attr, method)

        def wrapper_of(value):
            hit = wrapped.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for name, value in list(vars(root).items()):
            if isinstance(value, types.ModuleType) and value in layers:
                proxy = types.ModuleType(value.__name__, value.__doc__)
                vars(proxy).update(vars(value))
                for attr, member in vars(value).items():
                    if wrapper_of(member) is not None:
                        setattr(proxy, attr, wrapper_of(member))
                self._rebind(root, name, proxy)
            elif wrapper_of(value) is not None:
                self._rebind(root, name, wrapper_of(value))
        for module in layers:
            for name, value in list(vars(module).items()):
                if wrapper_of(value) is not None and value.__module__ in SHARED:
                    self._rebind(module, name, wrapper_of(value))

    def _rebind(self, owner, attr: str, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


def aggregate(spans: dict, labels: list, label_module: list, wall_s: float) -> dict:
    """Calls and self seconds per label and per module, plus the campaign's
    own time (wall minus the top-level spans)."""
    duration = spans["end"] - spans["start"]
    own = self_times(spans)
    n = len(labels)
    calls = np.bincount(spans["name"], minlength=n)
    self_s = np.bincount(spans["name"], weights=own, minlength=n)
    by_label = {
        labels[i]: {"calls": int(calls[i]), "self_s": float(self_s[i])}
        for i in range(n)
    }
    by_module: dict = {}
    for i in range(n):
        entry = by_module.setdefault(label_module[i], {"calls": 0, "self_s": 0.0})
        entry["calls"] += int(calls[i])
        entry["self_s"] += float(self_s[i])
    top = spans["parent"] < 0
    return {
        "labels": by_label,
        "modules": by_module,
        "campaign_self_s": wall_s - float(duration[top].sum()),
    }


def group(by_label: dict, patterns) -> dict:
    """Sum calls and self time over the labels matching any pattern."""
    out = {"calls": 0, "self_s": 0.0}
    for label, entry in by_label.items():
        if any(fnmatch.fnmatchcase(label, p) for p in patterns):
            for key in out:
                out[key] += entry[key]
    return out
