"""In-memory spans and counters for the benchmark's traced pass.

The program is traced from outside: `Tracer.patch` rebinds a module or class
attribute to a wrapper that records one span per call, and `Tracer.restore`
puts every original back. Patch a name where its caller looks it up, for
example `dsmlab.fuzz.check_sc_compositional` for calls made by
`run_campaign`, since `from .checker import ...` copies the binding.

A span is (name, start_ns, end_ns, parent index, run id); the parent is the
span that was open when the call began, -1 for none. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

_clock = time.perf_counter_ns

HOOKS = "trace.hooks"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.run_id = 0
        self._stack = [-1]
        self._patched: list = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span named `name`."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(index)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            spans[index] = (name, start, end, parent, self.run_id)

    def patch(
        self, owner, attr: str, name: str, on_result: Optional[Callable] = None
    ) -> None:
        """Record a span named `name` around every call of owner.attr. After
        the span closes, on_result(result, args) may take counts, inside a
        span of its own (HOOKS) so that its time is not charged to a layer."""
        original = getattr(owner, attr)
        call = self.call

        def traced(*args, **kwargs):
            result = call(name, original, *args, **kwargs)
            if on_result is not None:
                call(HOOKS, on_result, result, args)
            return result

        self._rebind(owner, attr, original, traced)

    def count(self, owner, attr: str, key: str, when: Optional[Callable] = None) -> None:
        """Count calls of owner.attr (those whose result satisfies `when`,
        if given) under counts[key], without a span."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args):
            result = original(*args)
            if when is None or when(result):
                counts[key] += 1
            return result

        self._rebind(owner, attr, original, counted)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> tuple[dict, dict]:
        """(name -> summed self time in seconds, name -> number of spans)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: defaultdict = defaultdict(int)
        calls: defaultdict = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ns[name] += end - start - child[i]
            calls[name] += 1
        return {k: v / 1e9 for k, v in self_ns.items()}, dict(calls)

    def write(self, path: Path) -> None:
        """One tab-separated line per span: index, parent, run, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("index\tparent\trun\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                f.write(f"{i}\t{parent}\t{run}\t{name}\t{start}\t{end}\n")
