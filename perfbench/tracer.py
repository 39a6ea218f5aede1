"""Spans timed from outside the program under test.

`install` replaces public functions and methods of the given modules with
wrappers that open one span per call, and rebinds every other module
attribute that refers to the same function object (the names bound by
`from .x import name`), so calls across modules are timed too.

Each span records two times:

- self: its duration minus the durations of its direct child spans;
- own: for a call that enters a layer, its duration minus the time spent
  in other layers below it. A call from a function of the same layer is
  no entry: its time stays in the caller's own time. So summing own over
  a layer's spans counts each moment once. A cached build is a boundary:
  it always enters, so the first caller is not billed for the build.

Stats are aggregated per span name while the program runs; nothing is
kept per call. Work done by after-call hooks is charged to the tracer,
not to the span that called the traced function.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from typing import Any, Callable, Iterable

# stats fields, per span name
CALLS, SELF, OWN = range(3)

# a frame is [layer, boundary, start, child_all, child_other, name]
_LAYER, _CHILD_ALL, _CHILD_OTHER = 0, 3, 4


class Tracer:
    """Span stack with per-name aggregated calls, self and own time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.counters: dict[str, Any] = {}  # counts and records kept by hooks
        self._stack: list[list] = [[None, True, 0.0, 0.0, 0.0, None]]

    @property
    def covered_s(self) -> float:
        """Time covered by top-level spans and tracer bookkeeping so far."""
        return self._stack[0][_CHILD_ALL]

    def enter(self, name: str, layer: str, boundary: bool = False) -> None:
        self._stack.append([layer, boundary, self.clock(), 0.0, 0.0, name])

    def exit(self) -> None:
        end = self.clock()
        layer, boundary, start, child_all, child_other, name = self._stack.pop()
        dur = end - start
        parent = self._stack[-1]
        entry = boundary or parent[_LAYER] != layer
        parent[_CHILD_ALL] += dur
        parent[_CHILD_OTHER] += dur if entry else child_other
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[CALLS] += 1
        st[SELF] += dur - child_all
        if entry:
            st[OWN] += dur - child_other

    def charge(self, seconds: float) -> None:
        """Bill `seconds` of tracer work as a child of the open span."""
        top = self._stack[-1]
        top[_CHILD_ALL] += seconds
        top[_CHILD_OTHER] += seconds

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value


def wrap(tracer: Tracer, name, layer: str, fn: Callable,
         after: Callable | None = None, boundary: bool = False) -> Callable:
    """Return `fn` wrapped in a span.

    `name` is a string, or a function of (args, kwargs) giving the span
    name per call. `after(tracer, args, kwargs, result)` runs after the
    span closes and its time is charged as bookkeeping.
    """
    enter, exit_, clock = tracer.enter, tracer.exit, tracer.clock
    namer = name if callable(name) else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(namer(args, kwargs) if namer else name, layer, boundary)
        try:
            out = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            t0 = clock()
            after(tracer, args, kwargs, out)
            tracer.charge(clock() - t0)
        return out

    return traced


def _is_traceable(obj) -> bool:
    """A plain function, or one wrapped by functools.lru_cache."""
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))


def public_callables(module: types.ModuleType, layer: str):
    """Yield (span name, owner, attribute, function) for a module's own
    public functions and the public plain methods of its own classes."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for meth, fn in list(vars(obj).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{layer}.{obj.__name__}.{meth}", obj, meth, fn
        elif _is_traceable(obj):
            yield f"{layer}.{attr}", module, attr, obj


def install(
    tracer: Tracer,
    layers: dict[str, types.ModuleType],
    rebind_in: Iterable[types.ModuleType],
    only: dict[str, frozenset[str]],
    boundaries: frozenset[str],
    names: dict[str, Callable],
    hooks: dict[str, Callable],
) -> None:
    """Wrap the public callables of each layer module.

    `only[layer]` restricts a layer to the listed span names. Span names
    in `boundaries` always enter, even when called from their own layer.
    `names` and `hooks` map span names to per-call namers and after-call
    hooks.
    """
    replaced: dict[int, tuple[Callable, Callable]] = {}
    for layer, module in layers.items():
        allowed = only.get(layer)
        for span, owner, attr, fn in public_callables(module, layer):
            if allowed is not None and span not in allowed:
                continue
            w = wrap(tracer, names.get(span, span), layer, fn, hooks.get(span),
                     span in boundaries)
            setattr(owner, attr, w)
            if owner is module:
                replaced[id(fn)] = (fn, w)
    for module in rebind_in:
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
