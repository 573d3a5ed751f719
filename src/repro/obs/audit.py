"""Audit records: the one per-query record every recorder keeps.

One settled query produces one compact JSON-ready dict joining every
telemetry stream on ``query_id``: the lifecycle stage decomposition
(:mod:`repro.obs.lifecycle`), the engine time ``elapsed``, the outcome
flags and routed backend from :class:`~repro.core.result.QueryStats`,
the cache verdict, the result count, and a *digest* of the span tree —
enough shape to recognise the query's execution (span count, depth,
per-name tallies of the top levels) without retaining the tree itself.

Three sinks consume the same dict through :func:`publish`:

* :class:`~repro.obs.slowlog.SlowQueryLog` — the K worst by ``elapsed``;
* :class:`~repro.obs.flight.FlightRecorder` — the last N, compact;
* :class:`~repro.obs.querylog.QueryLogWriter` — every record, one JSON
  line each.

Each sink is an :class:`AuditSink`: it owns its lock and a running
``total_recorded``, and its ``wants_detail(record)`` decides whether it
receives the record with the heavy fields (``counters``,
``phase_seconds``, ``span_tree``) attached; those are built at most
once per query and only when some sink asks.
"""

from __future__ import annotations

import itertools
import threading
import time

#: Span names tallied by :func:`span_digest` are cut at this depth;
#: deeper levels (per-wave, per-ring-step spans) carry per-operation
#: fan-out that would make the digest as big as the tree.
_DIGEST_MAX_DEPTH = 2


def span_digest(spans) -> "dict | None":
    """A bounded summary of a :class:`~repro.obs.spans.SpanStack`.

    Returns ``None`` for ``None``/empty stacks.  The digest is a few
    scalars plus a small name→count table of the shallow levels — the
    shape of the execution, not its contents.
    """
    if spans is None or len(spans) == 0:
        return None
    names: dict[str, int] = {}
    total_seconds = 0.0
    for span in spans.spans:
        if span.depth == 0:
            total_seconds += span.duration
        if span.depth <= _DIGEST_MAX_DEPTH:
            names[span.name] = names.get(span.name, 0) + 1
    return {
        "spans": len(spans) + spans.dropped,
        "max_depth": spans.max_depth(),
        "root_seconds": total_seconds,
        "by_name": dict(sorted(names.items())),
    }


def audit_record(
    query,
    stats,
    n_results: int,
    engine: str,
    ticket=None,
    cache_hit: bool = False,
    worker_id: "int | None" = None,
    spans=None,
    error: "BaseException | None" = None,
) -> dict:
    """Build the audit record of one finished query.

    ``stats`` is the :class:`~repro.core.result.QueryStats` of the
    evaluation.  ``ticket`` is the :class:`~repro.serve.service.Ticket`
    of a served query (its ``lifecycle`` supplies the stage
    decomposition and end-to-end ``total_seconds``); a bare engine call
    passes none.  Fields that do not apply (no ticket, no spans, no
    error) are simply absent so the record stays compact.
    """
    record: dict = {
        "ts": time.time(),
        "query": str(query),
        "engine": engine,
        "n_results": n_results,
        "cache_hit": cache_hit,
        "elapsed": stats.elapsed,
        # The backend that computed the answer; engines predating
        # attribution (and cache hits) fall back to the engine label.
        "backend": stats.backend or engine,
    }
    query_id = ticket.query_id if ticket is not None else stats.query_id
    if query_id:
        record["query_id"] = query_id
    if ticket is not None:
        lifecycle = ticket.lifecycle
        record["stages"] = lifecycle.stage_durations()
        record["total_seconds"] = lifecycle.total()
    for flag in ("timed_out", "truncated", "cancelled"):
        if getattr(stats, flag, False):
            record[flag] = True
    if worker_id is not None:
        record["worker"] = worker_id
    digest = span_digest(spans)
    if digest is not None:
        record["span_digest"] = digest
    if error is not None:
        record["error"] = type(error).__name__
        record["error_detail"] = str(error)
    return record


class AuditSink:
    """Base of the audit-record sinks.

    Every sink has its own lock (so the serving layer appends outside
    its metrics lock) and numbers the records offered to it in arrival
    order: ``total_recorded`` is the number of the latest, i.e. the
    count so far.  Clearing a sink drops what it retained, never the
    count.  Subclasses implement :meth:`_keep`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._arrivals = itertools.count(1)
        self.total_recorded = 0

    def wants_detail(self, record: dict) -> bool:
        """Whether this sink wants ``record`` with its heavy fields."""
        return False

    def record(self, record: dict) -> bool:
        """Offer one audit record; True when the sink retained it."""
        with self._lock:
            self.total_recorded = next(self._arrivals)
            return self._keep(record)

    def _keep(self, record: dict) -> bool:
        """Retain ``record``; called under the lock, after counting."""
        raise NotImplementedError


def publish(sinks, record: dict, stats, spans=None,
            phase_seconds: "dict | None" = None) -> None:
    """Hand one audit record to every sink.

    A sink whose ``wants_detail(record)`` is true receives a copy with
    the heavy fields attached — ``counters`` (from ``stats``),
    ``phase_seconds`` and, when ``spans`` holds this query's spans,
    ``span_tree``; the copy is built at most once.  Every other sink
    receives ``record`` itself.
    """
    detailed = None
    for sink in sinks:
        if not sink.wants_detail(record):
            sink.record(record)
            continue
        if detailed is None:
            detailed = dict(record)
            detailed["counters"] = dict(
                sorted(stats.operation_counts().items()))
            detailed["phase_seconds"] = dict(
                sorted((phase_seconds or {}).items()))
            if spans is not None and len(spans):
                detailed["span_tree"] = spans.tree()
        sink.record(detailed)
