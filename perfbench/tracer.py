"""Spans and call counts, kept in memory and written out once at the end.

A span is (name, start, end, parent). Calls timed with Tracer.call are
aggregated: one record per (name, parent) holds the first start, the last
end, the summed busy time and the call count.
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[int] = []
        self._aggregate: dict[tuple[str, int | None], int] = {}

    def _parent(self) -> int | None:
        return self._open[-1] if self._open else None

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        start = perf_counter()
        self.records.append(
            {"name": name, "start": start, "end": None, "parent": self._parent(), "busy": 0.0, "calls": 1}
        )
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            rec = self.records[index]
            rec["end"] = perf_counter()
            rec["busy"] = rec["end"] - start

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), timed into the aggregate record for name."""
        key = (name, self._parent())
        index = self._aggregate.get(key)
        if index is None:
            index = self._aggregate[key] = len(self.records)
            self.records.append(
                {"name": name, "start": None, "end": None, "parent": key[1], "busy": 0.0, "calls": 0}
            )
        rec = self.records[index]
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            if rec["start"] is None:
                rec["start"] = start
            rec["end"] = end
            rec["busy"] += end - start
            rec["calls"] += 1

    def seconds(self, *names: str) -> float:
        return sum(r["busy"] for r in self.records if r["name"] in names)

    def calls(self, name: str) -> int:
        return sum(r["calls"] for r in self.records if r["name"] == name)

    def top_level_seconds(self) -> float:
        return sum(r["busy"] for r in self.records if r["parent"] is None)

    @classmethod
    def from_records(cls, records: list[dict]) -> "Tracer":
        tracer = cls()
        tracer.records = records
        return tracer
