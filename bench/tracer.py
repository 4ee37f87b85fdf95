"""Run-time tracing of the package's layers, from outside the package.

``Tracer.install`` wraps every public function of each layer module, and the
public methods (plus ``__init__`` / ``__post_init__``) of its public classes,
in every ``sparse_dist_lab`` namespace that holds them. ``harness`` imports
``hr_run`` by name, for instance, so ``harness.hr_run`` is wrapped too and a
trial's call into Hadamard response becomes a span. Each call records a span
(id, name, thread, start, end, parent); the parent is the innermost open span
on the same thread. Spans stay in memory until ``write``.

A span's self time is its duration minus the durations of its children;
children run on the parent's thread and nest, so they never overlap.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "sparse_dist_lab"
LAYERS = ("core", "hadamard", "projection", "hadamard_response", "rappor", "comm_hash", "bounds", "harness")


def _users_times_k(args):
    messages, scheme = args["messages"], args["scheme"]
    users = len(messages[0]) if isinstance(messages, tuple) else len(messages)
    k = args.get("k")
    return users * (scheme.k if k is None else k)


# Work counts computed from a call's arguments rather than measured:
# span name -> (count name, function of the bound arguments).
COMPUTED_COUNTS = {
    "core.sample_iid": ("users", lambda a: int(a["n"])),
    "hadamard.fwht": ("butterflies", lambda a: len(a["v"]) * int(math.log2(len(a["v"])))),
    "hadamard_response.hr_encode_batch": ("bits", lambda a: len(a["xs"])),
    "rappor.rappor_encode_batch": ("bits", lambda a: len(a["xs"]) * int(a["k"])),
    "comm_hash.preimage_counts": ("hash_evals", _users_times_k),
}


class Span:
    __slots__ = ("id", "name", "thread", "start", "end", "parent", "work")

    def __init__(self, sid, name, thread, start, end, parent, work):
        self.id, self.name, self.thread = sid, name, thread
        self.start, self.end, self.parent, self.work = start, end, parent, work

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        counted = COMPUTED_COUNTS.get(name)
        signature = inspect.signature(fn) if counted else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = None
            if counted:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                work = counted[1](bound.arguments)
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(sid, name, threading.get_ident(), start, end, parent, work))

        return traced

    def install(self) -> None:
        """Wrap the layers' public callables in every package namespace."""
        namespaces = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(namespace, attr, obj, wrapper)

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__post_init__"):
                continue
            if inspect.isfunction(obj):
                self._patch(cls, attr, obj, self._wrap(f"{prefix}.{attr}", obj))

    def _patch(self, holder, attr: str, original, replacement) -> None:
        setattr(holder, attr, replacement)
        self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        """Write the spans as CSV: id,name,thread,start,end,parent,work."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("id,name,thread,start,end,parent,work\n")
            for sp in sorted(self.spans, key=lambda sp: sp.id):
                parent = "" if sp.parent is None else sp.parent
                work = "" if sp.work is None else sp.work
                fh.write(f"{sp.id},{sp.name},{sp.thread},{sp.start!r},{sp.end!r},{parent},{work}\n")


class SpanIndex:
    """Self times and call trees of a finished trace."""

    def __init__(self, spans: list[Span]):
        self.children: dict[int, list[Span]] = defaultdict(list)
        for sp in spans:
            if sp.parent is not None:
                self.children[sp.parent].append(sp)

    def self_time(self, sp: Span) -> float:
        return sp.duration - sum(child.duration for child in self.children.get(sp.id, ()))

    def descendant_names(self, sp: Span) -> set[str]:
        names: set[str] = set()
        todo = list(self.children.get(sp.id, ()))
        while todo:
            child = todo.pop()
            names.add(child.name)
            todo.extend(self.children.get(child.id, ()))
        return names
