"""Timing wrappers patched around the program's functions from outside.

:class:`Patcher` replaces *every* binding of a function — a
``from X import f`` copies the name into the importing module, and a
module-level dict (a dataset registry) may hold it too — and restores each
one afterwards. :class:`Tracer` uses it to time the public functions of each
layer: a wrapped call's *self* time is its duration minus the time spent in
wrapped calls beneath it, so summed self times never double count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time

#: the clock every wrapper reads (tests substitute a fake one)
clock = time.perf_counter


def _package_modules(package: str):
    prefix = package + "."
    for name, module in list(sys.modules.items()):
        if module is not None and (name == package or name.startswith(prefix)):
            yield module


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


class Patcher:
    """Install wrappers at every binding of a target; undo them all.

    A target is ``"module:function"``, ``"module:Class.method"`` (also
    wrapping each imported subclass that overrides the method) or
    ``"module:*.method"`` (the method of every class the module defines).
    """

    def __init__(self):
        #: (container, key, original, is_attr) in installation order
        self._undo: list[tuple[object, str, object, bool]] = []
        #: every wrapper handed out, for :meth:`leftovers`
        self.wrappers: list = []

    def patch(self, target: str, make_wrapper) -> list[str]:
        """Wrap ``target`` with ``make_wrapper(original, label)``; the labels."""
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if not owner_name:
            return [self._patch_function(module, attr, make_wrapper)]
        if owner_name == "*":
            owners = [
                value for value in vars(module).values()
                if inspect.isclass(value) and value.__module__ == module_name
            ]
        else:
            owners = _subclasses(getattr(module, owner_name))
        labels = []
        for cls in owners:
            original = cls.__dict__.get(attr)
            if inspect.isfunction(original):
                label = f"{cls.__module__}:{cls.__qualname__}.{attr}"
                wrapper = make_wrapper(original, label)
                self.wrappers.append(wrapper)
                setattr(cls, attr, wrapper)
                self._undo.append((cls, attr, original, True))
                labels.append(label)
        if not labels:
            raise LookupError(f"{target} matches no function")
        return labels

    def _patch_function(self, module, name: str, make_wrapper) -> str:
        original = getattr(module, name)
        if not inspect.isfunction(original):
            raise LookupError(f"{module.__name__}:{name} is not a function")
        label = f"{module.__name__}:{name}"
        wrapper = make_wrapper(original, label)
        self.wrappers.append(wrapper)
        package = module.__name__.partition(".")[0]
        for mod in _package_modules(package):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original, True))
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._undo.append((value, dkey, original, False))
        return label

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            container, key, original, is_attr = self._undo.pop()
            if is_attr:
                setattr(container, key, original)
            else:
                container[key] = original

    def leftovers(self, package: str) -> list[str]:
        """Bindings in ``package`` that still hold one of our wrappers.

        Empty after :meth:`restore` unless a module imported while the
        wrappers were in place copied one into its own namespace.
        """
        ours = {id(w) for w in self.wrappers}
        found = []
        for module in _package_modules(package):
            for key, value in list(vars(module).items()):
                places = [(key, value)]
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    places += [(f"{key}.{k}", v) for k, v in vars(value).items()]
                elif type(value) is dict:
                    places += [(f"{key}[{k!r}]", v) for k, v in list(value.items())]
                found += [
                    f"{module.__name__}:{where}"
                    for where, obj in places if id(obj) in ours
                ]
        return found


class Tracer:
    """Per-function call counts, self and inclusive times.

    Calls made in another process (forked workers inherit the patched
    functions) pass straight through: worker-side time is what the parent
    waits for, not a span of its own.
    """

    def __init__(self, patcher: Patcher):
        self.patcher = patcher
        self.pid = os.getpid()
        #: label -> [calls, self seconds, inclusive seconds]
        self.stats: dict[str, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, target: str) -> list[str]:
        """Time every binding of ``target``; returns the wrapped labels."""
        return self.patcher.patch(target, self._timed)

    def _timed(self, fn, label: str):
        record = self.stats.setdefault(label, [0, 0.0, 0.0])
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    record[0] += 1
                    record[1] += elapsed - inner
                    record[2] += elapsed

        return timed

    def totals(self, labels) -> tuple[int, float, float]:
        """Summed (calls, self seconds, inclusive seconds) over ``labels``."""
        calls = self_s = incl = 0
        for label in labels:
            record = self.stats.get(label, (0, 0.0, 0.0))
            calls += record[0]
            self_s += record[1]
            incl += record[2]
        return calls, self_s, incl
