"""Span tracer that measures mdid's layers from outside the package.

The tracer replaces functions of the ``mdid`` modules with timing wrappers.
Every binding of a wrapped function is replaced: the defining module's
attribute and each ``from ... import`` copy held by another mdid module (for
example ``mdid.identify.validate_schedule`` or ``mdid.fixing.m_separated``),
so a call reaches the wrapper whichever name the caller used.
``check_coverage`` proves afterwards that no unwrapped binding is left.

A span records its name, start, end, the span that caused it, and the labels
current when it opened: the run phase, the op id (spans of one op share it)
and the query.  Spans are kept in compact arrays in memory and written out
when the run ends.  A layer's self time is its span's duration minus the time
covered by its child spans.  Recursive functions are traced at their
top-level entry only, so nested calls are neither counted twice nor
subtracted from themselves.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

_clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One wrapped function.

    ``path`` is ``module:attr`` or ``module:Class.attr``.  ``skip(args)``
    returning true lets a call through untraced (a memo hit is not a build).
    ``measure(result, args)`` yields ``(counter, value)`` pairs added under
    ``<name>.<counter>``.  ``tag(args)`` gives a hashable key stored on the
    span.
    """

    name: str
    path: str
    recursive: bool = False
    skip: Callable | None = None
    measure: Callable | None = None
    tag: Callable | None = None


class CoverageError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._labels: list[object] = []
        self._label_ids: dict[object, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.phase = array("i")
        self.op = array("i")
        self.query = array("i")
        self.tag = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counters: dict[tuple[str, int, int], float] = defaultdict(float)
        self._stack: list[int] = []
        self._active: dict[int, int] = defaultdict(int)
        self._phase = self.label("none")
        self._op = -1
        self._query = self.label(None)
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, tuple[str, object]] = {}

    # -- interning ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def label(self, value) -> int:
        lid = self._label_ids.get(value)
        if lid is None:
            lid = self._label_ids[value] = len(self._labels)
            self._labels.append(value)
        return lid

    def label_value(self, lid: int):
        return self._labels[lid]

    def span_name(self, i: int) -> str:
        return self._names[self.name[i]]

    # -- recording ------------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        self._phase = self.label(phase)

    def set_op(self, op: int) -> None:
        self._op = op

    def set_query(self, query) -> None:
        self._query = self.label(query)

    def _open(self, nid: int, tag: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase.append(self._phase)
        self.op.append(self._op)
        self.query.append(self._query)
        self.tag.append(tag)
        self.t0.append(0.0)
        self.t1.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.t0[idx] = t0
        self.t1[idx] = t1

    def add(self, counter: str, value: float) -> None:
        self.counters[(counter, self._phase, self._query)] += value

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._name_id(name))

    def wrap(self, target: Target, fn):
        nid = self._name_id(target.name)
        tracer = self
        active = self._active
        recursive, skip, measure, tag = (target.recursive, target.skip,
                                         target.measure, target.tag)
        prefix = target.name + "."

        def traced(*args, **kwargs):
            if (recursive and active[nid]) or (skip is not None and skip(args)):
                return fn(*args, **kwargs)
            idx = tracer._open(nid, tracer.label(tag(args)) if tag else -1)
            active[nid] += 1
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                active[nid] -= 1
                tracer._close(idx, t0, t1)
            if measure is not None:
                for counter, value in measure(out, args):
                    tracer.add(prefix + counter, value)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.name)
        traced.__qualname__ = getattr(fn, "__qualname__", target.name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- patching -------------------------------------------------------------

    @staticmethod
    def _package_modules(package: str) -> list:
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == package or n.startswith(package + "."))]

    def install(self, targets: list[Target], package: str = "mdid") -> None:
        modules = self._package_modules(package)
        for target in targets:
            mod_name, attr_path = target.path.split(":")
            owner = sys.modules[mod_name]
            *cls_path, attr = attr_path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            if isinstance(orig, staticmethod):
                fn = orig.__func__
                wrapped = staticmethod(self.wrap(target, fn))
            else:
                fn = orig
                wrapped = self.wrap(target, fn)
            self._originals[id(fn)] = (target.name, fn)
            self._patch(owner, attr, wrapped)
            if not cls_path:
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, name, wrapped)
        self.check_coverage(package)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def check_coverage(self, package: str = "mdid") -> None:
        """Raise unless every binding of every wrapped function, in every
        module of the package and on every class they define, is wrapped."""
        left = []
        for mod in self._package_modules(package):
            spaces = [(mod.__name__, vars(mod))]
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__.startswith(package):
                    spaces.append((f"{mod.__name__}.{value.__name__}", vars(value)))
            for where, space in spaces:
                for name, value in space.items():
                    fn = value.__func__ if isinstance(value, staticmethod) else value
                    hit = self._originals.get(id(fn))
                    if hit is not None and hit[1] is fn:
                        left.append(f"{where}.{name} ({hit[0]})")
        if left:
            raise CoverageError("unwrapped bindings: " + ", ".join(sorted(left)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name)

    def self_times(self) -> list[float]:
        n = len(self.name)
        child = [0.0] * n
        t0, t1, parent = self.t0, self.t1, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += t1[i] - t0[i]
        return [t1[i] - t0[i] - child[i] for i in range(n)]

    def write(self, path) -> int:
        """Write every span as one tab-separated line; returns the count."""
        st = self.self_times()
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tparent\tphase\top\tquery\tstart_s\tend_s\tself_s\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self._names[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self._labels[self.phase[i]]}\t{self.op[i]}\t"
                         f"{self._labels[self.query[i]]}\t{self.t0[i]:.9f}\t"
                         f"{self.t1[i]:.9f}\t{st[i]:.9f}\n")
        return len(self.name)


class _Span:
    __slots__ = ("tracer", "nid", "idx", "t0")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid, -1)
        self.t0 = _clock()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.t0, _clock())
        return False
