"""Span tracer that wraps cora's public functions from outside the package.

`Tracer.installed()` replaces every public function defined in the five
cora layers (phy, channel, detector, harness, cli) with a timing wrapper,
wherever a `cora.*` module binds it (so `phy.dechirp` and `harness.dechirp`
both go through the same wrapper), and restores the originals on exit.

Spans are kept in memory as (name, start, end, parent) and written out at
the end of a run. A span's self time is its duration minus the time its
direct children cover. Calls are single-threaded and synchronous, so
children never overlap and their durations simply add.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time

LAYERS = ("phy", "channel", "detector", "harness", "cli")

# Work counts taken from a call's arguments: span name -> (counter, fn).
COUNTERS = {
    "channel.apply_fading": ("samples", lambda args, kwargs: len(args[0])),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.wall_s = 0.0
        self._stack: list[list] = []  # open spans: [index, start, children_s]

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.counts[key] = self.counts.get(key, 0) + counter[1](args, kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                spans[index] = (name, frame[1], end, parent)
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace every call into the cora layers for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"cora.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                    self.calls.setdefault(f"{layer}.{attr}", 0)
                    self.self_s.setdefault(f"{layer}.{attr}", 0.0)
        for name, (counter, _) in COUNTERS.items():
            self.counts.setdefault(f"{name}.{counter}", 0)
        patched = []
        for name, module in list(sys.modules.items()):
            if name != "cora" and not name.startswith("cora."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, obj))
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.wall_s += time.perf_counter() - start
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    def unattributed_s(self) -> float:
        """Traced wall time that no span covers."""
        return self.wall_s - sum(self.self_s.values())

    def write_spans(self, path) -> None:
        """Gzipped, one JSON array per line: [name, start_s, end_s, parent_index]."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent]))
                fh.write("\n")
