"""Span tracer that times a library's layers from outside.

A layer is one module. `Tracer.install` walks each layer module and
wraps every public function defined there and every public method of
every class defined there, so a function added to a layer later is timed
without editing this file. Each wrapper is attributed to the module that
defines the callable (`__module__`) and is rebound in every module of the
package that imported the original by name, so calls made through
`from .detector import calibrate` are timed too.

A call into a layer from another layer opens a span with a parent (the
span that was open when it started). A call from a layer into itself
merges into the span already open, so self time is never counted twice.
Spans stay in memory until `summary` reduces them; the wrapped functions
run unchanged.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

# Percentiles tried for a layer's tail, highest first. The tail is the
# highest one with at least TAIL_MIN_BEYOND calls above it.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10

# hook(counters, args, kwargs, result, exc). A hook keyed on a qualified
# name runs after every call of that callable, merged calls included; one
# keyed on a layer name runs after every call that enters the layer.
Hook = Callable[[dict, tuple, dict, object, BaseException | None], None]


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Wraps layer modules; records spans and hook counters while installed."""

    def __init__(
        self,
        layers: dict[str, ModuleType],
        package: str,
        hooks: dict[str, Hook] | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.layers = layers
        self.package = package
        self.hooks = hooks or {}
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._wrapped_names: set[str] = set()

    # - wrapping -

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        name = f"{fn.__module__}.{fn.__qualname__}"
        self._wrapped_names.add(name)
        hook, layer_hook = self.hooks.get(name), self.hooks.get(layer)
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            merged = bool(stack) and spans[stack[-1]].layer == layer
            if merged and hook is None:
                return fn(*args, **kwargs)
            if not merged:
                index = len(spans)
                spans.append(Span(layer, name, 0.0, 0.0, stack[-1] if stack else None))
                stack.append(index)
                spans[index].start = clock()
            result, exc = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                if not merged:
                    spans[index].end = clock()
                    stack.pop()
                    if layer_hook is not None:
                        layer_hook(counters, args, kwargs, result, exc)
                if hook is not None:
                    hook(counters, args, kwargs, result, exc)

        return traced

    def _targets(self):
        """(owner, attribute, original, wrapped) for every public callable."""
        for layer, module in self.layers.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, name, obj, self._wrap(obj, layer)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        if inspect.isfunction(member):
                            yield obj, attr, member, self._wrap(member, layer)
                        elif isinstance(member, (staticmethod, classmethod)):
                            wrapped = self._wrap(member.__func__, layer)
                            yield obj, attr, member, type(member)(wrapped)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        functions = {}
        for owner, attr, original, wrapped in self._targets():
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if inspect.isfunction(original):
                functions[id(original)] = (original, wrapped)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def unmatched_hooks(self) -> list[str]:
        """Hook keys that name neither a wrapped callable nor a layer."""
        return sorted(set(self.hooks) - self._wrapped_names - set(self.layers))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # - reduction -

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def grouped(self, key: Callable[[Span], str]) -> dict[str, dict]:
        """Calls, total and self time, and latency of the spans grouped by key."""
        groups: dict[str, list[tuple[float, float]]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            groups.setdefault(key(span), []).append((span.end - span.start, self_s))
        out = {}
        for name, rows in sorted(groups.items()):
            p50, (tail, pct) = latency_quantiles([d for d, _ in rows])
            out[name] = {
                "calls": len(rows),
                "total_s": sum(d for d, _ in rows),
                "self_s": sum(s for _, s in rows),
                "call_us_p50": p50 * 1e6,
                "call_us_tail": tail * 1e6,
                "call_us_tail_pct": pct,
            }
        return out

    def summary(self, wall_s: float) -> dict:
        """Per-layer numbers over the recorded spans, zero for layers not entered.

        `wall_s` is the traced wall time the spans fall in; whatever no
        root span covers is reported as unattributed, so the layers' self
        times plus the unattributed time add up to it.
        """
        idle = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "call_us_p50": 0.0, "call_us_tail": 0.0, "call_us_tail_pct": 0.0}
        entered = self.grouped(lambda span: span.layer)
        root_s = sum(s.end - s.start for s in self.spans if s.parent is None)
        return {
            "layers": {name: entered.get(name, idle) for name in self.layers},
            "wall_s": wall_s,
            "unattributed_s": wall_s - root_s,
        }


def latency_quantiles(durations: list[float]) -> tuple[float, tuple[float, float]]:
    """Median and (tail value, tail percentile) of call durations.

    With fewer than 2 * TAIL_MIN_BEYOND calls no percentile has enough
    calls beyond it, and the tail is the maximum (percentile 100).
    """
    if not durations:
        return 0.0, (0.0, 0.0)
    ordered = sorted(durations)
    median = ordered[_rank(len(ordered), 50.0) - 1]
    for pct in TAIL_PERCENTILES:
        rank = _rank(len(ordered), pct)
        if len(ordered) - rank >= TAIL_MIN_BEYOND:
            return median, (ordered[rank - 1], pct)
    return median, (ordered[-1], 100.0)


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of percentile `pct` among n sorted values."""
    return max(1, -(-n * round(pct * 100) // 10000))
