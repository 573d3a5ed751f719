"""Structured JSON-lines query logging, keyed by query id.

The slow log keeps the K worst queries; dashboards and offline
analysis need the *other* direction too — every query, one compact
line, join-able against the slow log and the flight recorder by
``query_id``.  :class:`QueryLogWriter` is the JSONL sink over
:func:`repro.obs.audit.audit_record`: each line is the audit record of
one settled query plus ``schema_version``.  Counters are deliberately
excluded by default (they multiply the line size ~10x and live in the
slow log for the queries that matter); build the writer with
``counters=True`` to attach them — with the phase seconds and, when
spans were collected, the span tree — to every line.

Schema v3 (``schema_version: 3``) is the audit record itself; see
``docs/observability.md`` for the mapping from v2, whose
``wait_seconds`` and ``cached`` fields are carried by ``stages`` and
``cache_hit``.

The writer is thread-safe (one lock around write+flush) and used by
:class:`~repro.serve.QueryService` when constructed with
``query_log=`` — see ``repro serve --query-log``.
"""

from __future__ import annotations

import json

from repro.obs.audit import AuditSink


class QueryLogWriter(AuditSink):
    """Append-only JSON-lines log of audit records.

    Parameters
    ----------
    target:
        A path (opened for append) or any writable text file object
        (kept open; closed by :meth:`close` only when owned).
    counters:
        Ask :func:`~repro.obs.audit.publish` for each query's heavy
        fields (operation counters, phase seconds, span tree).
    """

    #: Version stamped on every line.
    SCHEMA_VERSION = 3

    def __init__(self, target, counters: bool = False):
        super().__init__()
        if hasattr(target, "write"):
            self._handle = target
            self._owns_handle = False
            self.path = getattr(target, "name", None)
        else:
            self._handle = open(target, "a", encoding="utf-8")
            self._owns_handle = True
            self.path = str(target)
        self.counters = counters

    # ------------------------------------------------------------------

    def wants_detail(self, record: dict) -> bool:
        """Heavy fields on every line iff built with ``counters``."""
        return self.counters

    def _keep(self, record: dict) -> bool:
        line = json.dumps({**record, "schema_version": self.SCHEMA_VERSION},
                          separators=(",", ":"), sort_keys=True)
        self._handle.write(line + "\n")
        self._handle.flush()
        return True

    def close(self) -> None:
        """Flush and close the underlying file (when owned)."""
        with self._lock:
            if self._owns_handle and not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "QueryLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QueryLogWriter({self.path!r}, "
                f"total={self.total_recorded})")


def read_query_log(path) -> list[dict]:
    """Parse a JSON-lines query log back into records (tests, tools)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
