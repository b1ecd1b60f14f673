"""Spans around the benchmark's calls into each layer of autoplex.

A traced run wraps every program call the benchmark makes in a span
(name, start, end, parent) and every operation in an enclosing span, keeps
the spans in memory and writes them out as JSON lines when the run ends.
An untraced run uses NullTracer, which calls the program directly.
"""

from __future__ import annotations

import json
import time


class NullTracer:
    """Calls straight through; records nothing."""

    def layer(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass

    def begin_op(self, kind):
        pass

    def end_op(self):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append(
            {
                "id": sid,
                "op": self._op,
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
            }
        )
        self._stack.append(sid)

    def _close(self):
        self.spans[self._stack.pop()]["end"] = time.perf_counter()

    def layer(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def begin_op(self, kind):
        self._op += 1
        self._open(f"op.{kind}")

    def end_op(self):
        self._close()

    def layer_totals(self) -> dict:
        """{span name: (calls, total ms)} over closed spans."""
        out: dict[str, list] = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            agg = out.setdefault(s["name"], [0, 0.0])
            agg[0] += 1
            agg[1] += (s["end"] - s["start"]) * 1e3
        return {k: (v[0], v[1]) for k, v in out.items()}

    def op_self_ms(self) -> float:
        """Time inside operation spans not covered by their child spans:
        the benchmark's own work between program calls."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        total = 0.0
        for s in self.spans:
            if s["parent"] is None and s["end"] is not None:
                total += s["end"] - s["start"] - child.get(s["id"], 0.0)
        return total * 1e3

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
