"""Spans and counters recorded from outside the library.

A Tracer wraps public functions of the `sact` modules.  Modules import
some functions by name (`from .groups import subgroup_order`), so a wrapper
on the defining module alone would miss their calls: `install` replaces the
function in every `sact` namespace that holds it.

Spans are kept in memory as [name, start, end, parent, outermost] and
written out once, at the end of a run.  A function's total time is the sum
of its outermost spans (a span nested in a span of the same name is not
counted twice); its self time is each span's duration minus the durations
of its direct child spans.  Hot functions get a call counter instead of a
span, so the trace does not swamp what it measures.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, OUTERMOST = range(5)


def _search_order(frame):
    """Order of the group the calling frame is searching in, if it names one."""
    local = frame.f_locals
    for key in ("spec", "v"):
        obj = local.get(key)
        spec = obj if key == "spec" else getattr(obj, "spec", None)
        if spec is not None and hasattr(spec, "order") and hasattr(spec, "degree"):
            return spec.order
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.bindings: dict = {}   # metric name -> namespaces that were patched
        self.originals: dict = {}  # metric name -> the function before wrapping
        self._stack: list = []
        self._depth: Counter = Counter()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self._depth[name] == 0]
        self._depth[name] += 1
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()
        self._depth[rec[NAME]] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    # -- wrappers ----------------------------------------------------------

    def timed(self, name: str, fn, on_result=None):
        """Wrap fn in a span; on_result(args, result, caller_frame) runs after."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_result is not None:
                on_result(args, result, sys._getframe(1))
            return result
        return wrapper

    def timed_generator(self, name: str, fn):
        """Wrap a generator function: one span per resume, a count per yield."""
        yielded = name + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    rec = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    self.counts[yielded] += 1
                    yield item
            finally:
                gen.close()
        return wrapper

    def counted(self, name: str, fn):
        """Wrap fn with a call counter only."""
        cell = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, module, attr: str, name: str, wrap) -> list:
        """Replace module.attr by wrap(original) wherever a sact module binds it.

        Returns the namespaces patched; afterwards no loaded sact module
        holds the original.
        """
        original = getattr(module, attr)
        self.originals[name] = original
        wrapper = wrap(name, original)
        patched = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "sact" or mod_name.startswith("sact.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched.append(mod_name)
        self.bindings[name] = patched
        return patched

    def install_method(self, cls, attr: str, name: str, wrap) -> None:
        setattr(cls, attr, wrap(name, getattr(cls, attr)))
        self.bindings[name] = [f"{cls.__module__}.{cls.__name__}"]

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict:
        """{name: (spans, outermost seconds, self seconds)}."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = {}
        for i, rec in enumerate(self.spans):
            n, total, own = out.get(rec[NAME], (0, 0.0, 0.0))
            dur = rec[END] - rec[START]
            out[rec[NAME]] = (n + 1, total + (dur if rec[OUTERMOST] else 0.0),
                              own + dur - child[i])
        return out

    def child_seconds(self, parent: str, child: str) -> float:
        """Time in `child` spans whose direct parent is a `parent` span."""
        spans = self.spans
        return sum((rec[END] - rec[START] for rec in spans
                    if rec[NAME] == child and rec[PARENT] >= 0
                    and spans[rec[PARENT]][NAME] == parent), 0.0)

    def write(self, path: str, extra: dict) -> None:
        names = sorted({rec[NAME] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        payload = dict(extra)
        payload.update({
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[rec[NAME]], round(rec[START] - t0, 7),
                       round(rec[END] - t0, 7), rec[PARENT]] for rec in self.spans],
            "counts": dict(self.counts),
            "bindings": self.bindings,
        })
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def full_order_hook(tracer: Tracer, name: str):
    """on_result hook counting calls that return the searched group's order."""
    full, unknown = name + ".full", name + ".unknown_group"

    def hook(args, result, frame):
        order = _search_order(frame)
        if order is None:
            tracer.counts[unknown] += 1
        elif result == order:
            tracer.counts[full] += 1
    return hook
