"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  Spans are appended when they open,
so a span's index is larger than its parent's and the children of one span
appear in start order.  The columns are kept in typed arrays so that a run
with hundreds of thousands of spans stays small, and are written out once,
when the run ends, as raw arrays behind a JSON header (``Recorder.read``).
"""

from __future__ import annotations

import json
import time
from array import array

perf_counter = time.perf_counter
COLUMNS = ("name", "start", "end", "parent")


class Recorder:
    """Spans plus named counters, recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount=1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def by_name(self) -> dict[str, tuple[int, float]]:
        """{span name: (spans, summed self time in seconds)}."""
        selfs = self_times(self.start, self.end, self.parent)
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        for nid, s in zip(self.name, selfs):
            calls[nid] += 1
            total[nid] += s
        return {n: (calls[i], total[i]) for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        """One JSON header line, then the raw columns in header order."""
        header = {"names": self.names, "counters": self.counters, "spans": len(self.name),
                  "columns": [[c, getattr(self, c).typecode] for c in COLUMNS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in COLUMNS:
                getattr(self, c).tofile(fh)

    @classmethod
    def read(cls, path) -> "Recorder":
        rec = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            for name in header["names"]:
                rec.name_id(name)
            rec.counters = header["counters"]
            for c, _ in header["columns"]:
                getattr(rec, c).fromfile(fh, header["spans"])
        return rec


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the durations of its child spans.

    The recorder nests spans properly (a child opens and closes inside its
    parent, and siblings do not overlap), so the children's durations add
    up to the time they cover.
    """
    out = [e - s for s, e in zip(start, end)]
    for idx, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[idx] - start[idx]
    return out


def wrapper(rec: Recorder, orig, span: str | None, after=None):
    """A recording stand-in for the callable ``orig``.

    With ``span`` None it only runs ``after`` (for hot leaves whose spans
    would cost more than the work they time).  ``after(rec, args, result)``
    records counters at the same boundary as the span.
    """
    if span is None:
        def counting(*args, **kwargs):
            result = orig(*args, **kwargs)
            after(rec, args, result)
            return result
        return counting
    nid = rec.name_id(span)

    def spanning(*args, **kwargs):
        idx = rec.open(nid)
        try:
            result = orig(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(rec, args, result)
        return result

    return spanning
