"""Spans around the public functions of each jointdigits module.

``instrument(tracer)`` wraps every public function of the six layer modules
(the names in each module's ``__all__``, plus the public methods of the
classes listed there) and patches the wrapper into every ``jointdigits``
module that imported the function by name, so calls between layers become
nested spans.  Nothing under ``src/`` changes; leaving the context restores
the originals.

A call records a span only when it enters a layer from another one (or from
the benchmark): a layer's internal calls stay inside its own span, which
keeps the span count proportional to layer crossings.  The phase functions
in ``PHASES`` are recorded even from inside their own layer, because a
per-layer metric is read from them.  Consecutive calls of the same leaf
function under the same parent are merged into one record with a count.

A span's busy time is its duration; for a generator it is the time spent
inside the generator's resumptions.  A span's self time is its busy time
minus the busy time of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "digits", "dependence", "image", "witness", "torus")
PHASES = frozenset({"torus.measure_map"})


class Tracer:
    """Span records in parallel arrays, plus deferred per-call counter hooks."""

    def __init__(self, hooks=None):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.count = array("q")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.stack: list[tuple[int, str]] = []  # (record index, layer) of open spans
        self.current_query = -1
        self.hooks = hooks or {}
        self.pending: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def __len__(self) -> int:
        return len(self.name)

    def add(self, name_id: int) -> int:
        """A record under the open span, not itself opened (for generators)."""
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.query.append(self.current_query)
        self.count.append(1)
        self.busy.append(0.0)
        t = perf_counter()
        self.start.append(t)
        self.end.append(t)
        return idx

    def open(self, name_id: int, layer: str) -> int:
        idx = self.add(name_id)
        self.stack.append((idx, layer))
        self.start[idx] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        t = perf_counter()
        self.stack.pop()
        self.end[idx] = t
        self.busy[idx] = t - self.start[idx]
        prev = idx - 1
        # a leaf right after a same-name leaf sibling: merge the two
        if (idx == len(self.name) - 1 and prev >= 0
                and self.name[prev] == self.name[idx]
                and self.parent[prev] == self.parent[idx]
                and self.query[prev] == self.query[idx]):
            self.end[prev] = t
            self.busy[prev] += self.busy[idx]
            self.count[prev] += 1
            for col in (self.name, self.parent, self.query, self.count,
                        self.start, self.end, self.busy):
                col.pop()

    def run_hooks(self) -> None:
        """Apply the counter hooks of the calls made since the last flush."""
        for hook, args, kwargs, result in self.pending:
            hook(args, kwargs, result)
        self.pending.clear()

    def records(self):
        """(name, start, end, busy, count, parent, query) for every span."""
        return [(self.names[self.name[i]], self.start[i], self.end[i], self.busy[i],
                 self.count[i], self.parent[i], self.query[i]) for i in range(len(self))]


def self_times(records) -> list[float]:
    """Per-record self time: busy minus the busy time of its children."""
    own = [r[3] for r in records]
    for r in records:
        if r[5] >= 0:
            own[r[5]] -= r[3]
    return own


def layer_totals(records) -> dict[str, dict[str, float]]:
    """Calls, self time and busy time per layer and per span name."""
    out: dict[str, dict[str, float]] = {}
    for r, own in zip(records, self_times(records)):
        for key in (r[0].split(".", 1)[0], r[0]):
            agg = out.setdefault(key, {"calls": 0, "self_s": 0.0, "busy_s": 0.0})
            agg["calls"] += r[4]
            agg["self_s"] += own
            agg["busy_s"] += r[3]
    return out


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    name_id = tracer.name_id(name)
    hook = tracer.hooks.get(name)
    phase = name in PHASES
    stack = tracer.stack

    if inspect.isgeneratorfunction(fn):
        def traced_gen(*args, **kwargs):
            if stack and stack[-1][1] == layer and not phase:
                return fn(*args, **kwargs)
            idx = tracer.add(name_id)
            if hook:
                tracer.pending.append((hook, args, kwargs, None))
            return _resumptions(tracer, idx, layer, fn(*args, **kwargs))

        return traced_gen

    def traced(*args, **kwargs):
        if stack and stack[-1][1] == layer and not phase:
            return fn(*args, **kwargs)
        idx = tracer.open(name_id, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook:
            tracer.pending.append((hook, args, kwargs, result))
        return result

    return traced


def _resumptions(tracer: Tracer, idx: int, layer: str, gen):
    """Re-yield gen, adding the time inside each resumption to span idx."""
    stack, busy = tracer.stack, tracer.busy
    try:
        while True:
            stack.append((idx, layer))
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                t1 = perf_counter()
                stack.pop()
                busy[idx] += t1 - t0
                tracer.end[idx] = t1
            yield item
    finally:
        gen.close()


@contextmanager
def instrument(tracer: Tracer):
    """Patch span wrappers into the jointdigits modules for the duration."""
    wrappers = {}
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for layer in LAYERS:
        module = importlib.import_module(f"jointdigits.{layer}")
        for public in module.__all__:
            obj = getattr(module, public)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = _wrap(tracer, obj, f"{layer}.{public}", layer)
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{layer}.{public}.{attr}"
                    if isinstance(member, (classmethod, staticmethod)):
                        patch(obj, attr, type(member)(_wrap(tracer, member.__func__, name, layer)))
                    elif inspect.isfunction(member):
                        patch(obj, attr, _wrap(tracer, member, name, layer))
    try:
        for modname, module in list(sys.modules.items()):
            if modname == "jointdigits" or modname.startswith("jointdigits."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        patch(module, attr, wrappers[value])
        yield tracer
    finally:
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)
