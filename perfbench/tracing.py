"""Span tracing from outside the program.

A `Tracer` replaces module-global names (and class attributes) with
timing wrappers. Each call records a span (name, start, end, parent) in
memory; optional hooks turn a call's arguments or result into counts.
Names that no longer exist are reported as missing, never raised, so
the traced run survives refactors of the program it wraps.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# Exceptions a count hook may raise when the program's shapes change.
HOOK_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError)

_ABSENT = object()


def resolve(target: str):
    """Split "package.module:Attr.path" into (owner object, attribute name).

    Returns None when the module, an intermediate attribute or the final
    attribute does not exist, or the final attribute is not callable.
    """
    module_name, _, attr_path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records spans of wrapped calls; a span's parent is the innermost open span."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent span index or -1)
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self.missing: list[str] = []
        self.hook_errors: defaultdict = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, target: str, span_name: str, hook=None) -> bool:
        """Patch `target` ("module:attr" or "module:Class.attr") with a span wrapper.

        `hook(counts, args, kwargs, result)` runs after each call. Returns
        False and records the target as missing when it cannot be resolved.
        """
        found = resolve(target)
        if found is None:
            self.missing.append(target)
            return False
        owner, attr = found
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _ABSENT)
        name_id = self._name_id(span_name)
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if hook is not None:
                try:
                    hook(self.counts, args, kwargs, result)
                except HOOK_ERRORS:
                    self.hook_errors[span_name] += 1
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, own))
        return True

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def write(self, path) -> None:
        """Dump the recorded spans and counts as JSON."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": dict(self.counts), "missing": self.missing,
                       "hook_errors": dict(self.hook_errors)}, fh)
            fh.write("\n")


def covered_length(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        out.append((end - start) - covered_length(children.get(index, ()), start, end))
    return out
