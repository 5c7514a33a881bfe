"""In-memory spans around the public stage functions of `cutstokes`.

`Tracer.installed` replaces each named function wherever a loaded
`cutstokes` module binds it (and a class's `__init__` in place), so the
package's own entry points run unchanged while every call becomes a span.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

clock = time.perf_counter


class MissingSpanError(RuntimeError):
    """A stage the workload must run produced no span."""


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    unit: int | None      # id of the enclosing unit span (its own id for a unit)
    start: float
    end: float = float("nan")     # both set when the call returns

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def _resolve(package: str, dotted: str):
    mod, attr = dotted.rsplit(".", 1)
    return getattr(sys.modules[f"{package}.{mod}"], attr)


class Tracer:
    """Spans, per-unit counts and unit results of one benchmark process.

    Unit functions (one call per level or shift) are always wrapped, because
    the accuracy gate needs their results; stage functions only when
    `enabled`.  `overhead` is the time spent inside the wrappers around
    the wrapped calls while tracing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.units: list[dict] = []           # one record per unit call
        self.counts: dict[int, dict] = {}     # unit span id -> {metric: value}
        self.overhead = 0.0
        self._stack: list[Span] = []

    def _open(self, name: str, is_unit: bool) -> Span:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        unit = sid if is_unit else (parent.unit if parent else None)
        span = Span(sid, name, parent.id if parent else None, unit, float("nan"))
        self.spans.append(span)
        self._stack.append(span)
        return span

    def wrap(self, fn, name: str, on_return=None, is_unit: bool = False,
             is_init: bool = False):
        """`fn` inside a span named `name`.

        `on_return(obj)` runs after a successful call on the result (on the
        new object for an `__init__`) and returns a dict: for a unit it
        fills the unit's record (traced or not), for a stage it gives counts
        for the enclosing unit.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            span = self._open(name, is_unit) if self.enabled else None
            if is_unit:
                record = {"name": name, "ok": False}
                self.units.append(record)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if is_unit:
                    record["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                t1 = clock()
                if span is not None:
                    span.start, span.end = t0, t1
                    self._stack.pop()
            values = on_return(args[0] if is_init else result) if on_return else {}
            if is_unit:
                record.update(values, ok=True)
            elif values:
                self.count(span, values)
            if self.enabled:
                self.overhead += (t0 - t_in) + (clock() - t1)
            return result

        return wrapper

    def count(self, span: Span, values: dict) -> None:
        """Record counts for the span's unit; the first value of a unit wins,
        so a nested repeat of a stage (e.g. the error quadrature) is ignored."""
        slot = self.counts.setdefault(span.unit, {})
        for k, v in values.items():
            slot.setdefault(k, v)

    @contextmanager
    def installed(self, package: str, units: dict, stages: dict = None):
        """Wrap `units` and, when enabled, `stages`: {dotted name: on_return}.

        A dotted name is `<module>.<attribute>` inside `package`.  Every
        binding is restored on exit.
        """
        patches = []   # (owner, attribute, original)
        todo = [(n, cb, True) for n, cb in units.items()]
        if self.enabled:
            todo += [(n, cb, False) for n, cb in (stages or {}).items()]
        mods = [m for k, m in list(sys.modules.items())
                if k == package or k.startswith(package + ".")]
        try:
            for name, cb, is_unit in todo:
                orig = _resolve(package, name)
                if isinstance(orig, type):
                    init = orig.__dict__["__init__"]
                    patches.append((orig, "__init__", init))
                    setattr(orig, "__init__", self.wrap(init, name, cb, is_unit,
                                                        is_init=True))
                    continue
                new = self.wrap(orig, name, cb, is_unit)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            patches.append((mod, attr, orig))
                            setattr(mod, attr, new)
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    def require(self, names) -> None:
        """Raise unless every name in `names` produced at least one span."""
        fired = {s.name for s in self.spans}
        missing = sorted(set(names) - fired)
        if missing:
            raise MissingSpanError(f"listed spans never fired: {', '.join(missing)}")

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

