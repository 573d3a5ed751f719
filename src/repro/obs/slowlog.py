"""Slow-query log: a bounded record of the K worst queries.

A serving engine cannot keep every query's telemetry, but the handful
of *worst* queries are exactly the ones worth keeping in full detail —
they dominate tail latency and are where the paper's pruning argument
either holds or falls apart.  :class:`SlowQueryLog` is the K-worst
sink over :func:`repro.obs.audit.audit_record` dicts: it retains the K
slowest records seen so far (min-heap on ``elapsed``), each with its
complete counter snapshot and, when span collection was on, the
captured span tree.

Attach one to a :class:`~repro.serve.QueryService` (``slow_log=``) or a
benchmark run (``run_benchmark(..., slow_log=log)``).  Its
:meth:`wants_detail` gate (one float comparison) tells
:func:`~repro.obs.audit.publish` whether to build the heavy fields, so
the common fast query never pays for a counter snapshot or span tree.
"""

from __future__ import annotations

import heapq
import json

from repro.obs.audit import AuditSink

#: Outcome flags shown in :meth:`SlowQueryLog.format_table`.
_FLAGS = (("timed_out", "TIMEOUT"), ("truncated", "TRUNCATED"),
          ("cancelled", "CANCELLED"), ("cache_hit", "CACHED"))


class SlowQueryLog(AuditSink):
    """Bounded, thread-safe log of the ``capacity`` slowest records."""

    def __init__(self, capacity: int = 10):
        if capacity < 1:
            raise ValueError("slow-query log capacity must be >= 1")
        super().__init__()
        self.capacity = capacity
        # (elapsed, arrival number, record): ties on elapsed break by
        # arrival order, so eviction is deterministic and the records
        # themselves are never compared.
        self._heap: list[tuple[float, int, dict]] = []

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def threshold(self) -> float:
        """Minimum elapsed time a new query needs to be retained."""
        with self._lock:
            if len(self._heap) < self.capacity:
                return 0.0
            return self._heap[0][0]

    def _keeps(self, elapsed: float) -> bool:
        # Callers hold self._lock.
        return len(self._heap) < self.capacity or elapsed > self._heap[0][0]

    def would_keep(self, elapsed: float) -> bool:
        """Cheap pre-check: would a query this slow be retained?"""
        with self._lock:
            return self._keeps(elapsed)

    def wants_detail(self, record: dict) -> bool:
        """Only records that will be retained need the counters, phase
        seconds and span tree."""
        return self.would_keep(record["elapsed"])

    def _keep(self, record: dict) -> bool:
        elapsed = record["elapsed"]
        if not self._keeps(elapsed):
            return False
        item = (elapsed, self.total_recorded, record)
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, item)
        else:
            heapq.heapreplace(self._heap, item)
        return True

    def entries(self) -> list[dict]:
        """Retained records, slowest first."""
        with self._lock:
            heap = list(self._heap)
        return [record for _, _, record in
                sorted(heap, key=lambda item: (-item[0], item[1]))]

    def clear(self) -> None:
        """Drop all retained records (the total keeps counting)."""
        with self._lock:
            self._heap.clear()

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "total_recorded": self.total_recorded,
            "entries": self.entries(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def format_table(self) -> str:
        """Human-readable rendering, slowest first."""
        entries = self.entries()
        lines = [f"slow-query log: {len(entries)}/{self.capacity} "
                 f"retained of {self.total_recorded} recorded"]
        for rank, entry in enumerate(entries, 1):
            flags = [label for key, label in _FLAGS if entry.get(key)]
            if "error" in entry:
                flags.append(entry["error"])
            suffix = f"  [{','.join(flags)}]" if flags else ""
            lines.append(
                f"{rank:3d}. {entry['elapsed'] * 1e3:10.3f} ms  "
                f"{entry.get('n_results', 0):8d} rows  "
                f"{entry['query']}{suffix}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SlowQueryLog({len(self)}/{self.capacity}, "
                f"threshold={self.threshold:.4f}s)")
