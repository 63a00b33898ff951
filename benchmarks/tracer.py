"""In-memory span recorder for the benchmark's traced runs.

A span is one call across a layer boundary: its name, start and end on one
clock, the span that was open when it started (its parent), the job it
belongs to, an optional work count and an optional key. Spans stay in
memory until the run ends and are then summarized per name.

Wrappers are installed from outside the program: ``install`` rebinds each
public function of the named modules in every module of the package that
holds a reference to it, because ``from .montecarlo import derive_seed``
binds a separate name that a patch of ``montecarlo.derive_seed`` alone
would miss. Nothing in the program is edited.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

__all__ = [
    "Span",
    "Stats",
    "Hook",
    "Tracer",
    "install",
    "union_length",
    "self_times",
    "summarize",
]


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    job: str | None = None
    count: int = 0
    key: str | None = None


@dataclass
class Stats:
    """Totals over all spans of one name (and key, when keyed)."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0


@dataclass(frozen=True)
class Hook:
    """Extra facts to record at one wrapped function.

    ``count``: parameter whose integer value is the span's work count.
    ``size``: parameter whose element count (1 for a scalar) is the span's
    work count. ``key``: parameter whose value keys the span. ``callback``:
    span name for the first positional argument when it is callable; it is
    wrapped so that its calls become child spans and drop out of the
    caller's self time.
    """

    count: str | None = None
    size: str | None = None
    key: str | None = None
    callback: str | None = None


class Tracer:
    """Records spans on one thread; ``job`` tags every span begun while set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job: str | None = None
        self._open: list[int] = []

    def begin(self, name: str, count: int = 0, key: str | None = None) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent, job=self.job, count=count, key=key))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._open.remove(idx)

    def wrap(self, fn, name: str, hook: Hook = Hook()):
        """Return ``fn`` recording one span per call, named ``name``."""
        count_at = _parameter(fn, hook.count)
        size_at = _parameter(fn, hook.size)
        key_at = _parameter(fn, hook.key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = 0
            if count_at:
                count = int(_argument(args, kwargs, count_at) or 0)
            elif size_at:
                count = _size(_argument(args, kwargs, size_at))
            key = _argument(args, kwargs, key_at) if key_at else None
            if hook.callback is not None and args and callable(args[0]):
                args = (self.wrap(args[0], hook.callback),) + args[1:]
            idx = self.begin(name, count, None if key is None else str(key))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced


def _parameter(fn, name: str | None):
    """(position, name, default) of parameter ``name`` of ``fn``, or None."""
    if name is None:
        return None
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    for pos, param in enumerate(params):
        if param.name == name:
            default = None if param.default is inspect.Parameter.empty else param.default
            return pos, name, default
    return None


def _argument(args, kwargs, at):
    pos, name, default = at
    if pos < len(args):
        return args[pos]
    return kwargs.get(name, default)


def _size(value) -> int:
    size = getattr(value, "size", None)
    if isinstance(size, int):
        return size
    try:
        return len(value)
    except TypeError:
        return 1


def _public_functions(module) -> dict[str, object]:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


def install(tracer: Tracer, package: str, modules, hooks: dict[str, Hook]) -> set[str]:
    """Wrap every public function of ``package.<module>`` for each module.

    Spans are named ``<module>.<function>``. Each wrapper replaces the
    original in every loaded module of ``package`` that binds it. Returns
    the span names wrapped. A module that cannot be imported is skipped, so
    a caller finds what is missing by looking for its span name there.
    """
    wrapped = set()
    wrappers = {}
    for short in modules:
        try:
            module = importlib.import_module(f"{package}.{short}")
        except ImportError:
            continue
        for attr, fn in _public_functions(module).items():
            name = f"{short}.{attr}"
            wrappers[id(fn)] = (fn, tracer.wrap(fn, name, hooks.get(name, Hook())))
            wrapped.add(name)
    loaded = [m for n, m in list(sys.modules.items()) if m is not None and (n == package or n.startswith(package + "."))]
    for module in loaded:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return wrapped


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - union_length(children.get(idx, ()), span.start, span.end)
        for idx, span in enumerate(spans)
    ]


def summarize(spans: list[Span], job: str | None = None) -> dict[str, Stats]:
    """Stats per span name, and per ``name[key]`` for keyed spans.

    With ``job`` set, only spans of that job are counted.
    """
    out: dict[str, Stats] = {}
    for span, own in zip(spans, self_times(spans)):
        if job is not None and span.job != job:
            continue
        names = [span.name] if span.key is None else [span.name, f"{span.name}[{span.key}]"]
        for name in names:
            stats = out.setdefault(name, Stats())
            stats.calls += 1
            stats.total_s += span.end - span.start
            stats.self_s += own
            stats.count += span.count
    return out
